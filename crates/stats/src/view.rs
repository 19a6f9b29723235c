//! Precompiled, index-addressed views of the discovery variable set.
//!
//! The offline phase of XInsight (preprocess → FD detection → XLearner/FCI,
//! Fig. 3 of the paper) issues thousands of CI queries over the *same* small
//! set of dimension columns.  Resolving column names through the schema's
//! string lookup on every query — the seed behaviour — wastes both hashing
//! work and cache locality.  A [`DiscoveryView`] performs that resolution
//! exactly once per fit: each variable gets a dense `u32` id, and the view
//! holds the borrowed dictionary-code slice plus cardinality for each.
//! Everything downstream (contingency tables, CI tests, the skeleton search)
//! then works purely on integer ids and `&[u32]` slices.

use xinsight_data::{DataError, Dataset, Result};

/// A compiled view over a subset of a dataset's dimensions.
///
/// Construction resolves each variable name to its column once; afterwards
/// all accessors are index-based and allocation-free.  The view borrows the
/// dataset's column storage, so it is cheap to build and copy-free to query.
///
/// ```
/// use xinsight_data::DatasetBuilder;
/// use xinsight_stats::DiscoveryView;
///
/// let data = DatasetBuilder::new()
///     .dimension("X", ["a", "b", "a"])
///     .dimension("Y", ["p", "p", "q"])
///     .build()
///     .unwrap();
/// let view = DiscoveryView::compile(&data, &["Y", "X"]).unwrap();
/// assert_eq!(view.n_vars(), 2);
/// assert_eq!(view.name(0), "Y");        // ids follow the compile order
/// assert_eq!(view.cardinality(1), 2);   // X has categories {a, b}
/// assert_eq!(view.codes(1), &[0, 1, 0]);
/// ```
#[derive(Debug, Clone)]
pub struct DiscoveryView<'a> {
    names: Vec<String>,
    codes: Vec<&'a [u32]>,
    cards: Vec<usize>,
    n_rows: usize,
}

impl<'a> DiscoveryView<'a> {
    /// Compiles a view: resolves every name in `vars` to its dimension
    /// column (erroring on unknown names or measures) and records code
    /// slices and cardinalities.  Ids are assigned in `vars` order.
    pub fn compile(data: &'a Dataset, vars: &[&str]) -> Result<Self> {
        let mut names = Vec::with_capacity(vars.len());
        let mut codes = Vec::with_capacity(vars.len());
        let mut cards = Vec::with_capacity(vars.len());
        for &name in vars {
            let col = data.dimension(name)?;
            names.push(name.to_owned());
            codes.push(col.codes());
            cards.push(col.cardinality());
        }
        Ok(DiscoveryView {
            names,
            codes,
            cards,
            n_rows: data.n_rows(),
        })
    }

    /// Number of compiled variables.
    pub fn n_vars(&self) -> usize {
        self.names.len()
    }

    /// Number of rows each code slice covers.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Name of variable `id`.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// All variable names in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Observed cardinality of variable `id`.
    pub fn cardinality(&self, id: u32) -> usize {
        self.cards[id as usize]
    }

    /// Borrowed per-row dictionary codes of variable `id`
    /// ([`xinsight_data::NULL_CODE`] marks missing rows).
    pub fn codes(&self, id: u32) -> &'a [u32] {
        self.codes[id as usize]
    }

    /// Validates that `id` is in range, with a readable error.
    pub(crate) fn check_id(&self, id: u32) -> Result<()> {
        if (id as usize) < self.names.len() {
            Ok(())
        } else {
            Err(DataError::UnknownAttribute(format!(
                "variable id {id} out of range (view has {} variables)",
                self.names.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::DatasetBuilder;

    fn data() -> Dataset {
        DatasetBuilder::new()
            .dimension("A", ["x", "y", "x", "z"])
            .dimension("B", ["p", "p", "q", "q"])
            .measure("M", [1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap()
    }

    #[test]
    fn compile_resolves_names_once_in_order() {
        let d = data();
        let view = DiscoveryView::compile(&d, &["B", "A"]).unwrap();
        assert_eq!(view.n_vars(), 2);
        assert_eq!(view.n_rows(), 4);
        assert_eq!(view.name(0), "B");
        assert_eq!(view.cardinality(1), 3);
        assert_eq!(view.codes(0), &[0, 0, 1, 1]);
    }

    #[test]
    fn unknown_and_measure_columns_are_errors() {
        let d = data();
        assert!(DiscoveryView::compile(&d, &["A", "Nope"]).is_err());
        assert!(DiscoveryView::compile(&d, &["A", "M"]).is_err());
    }

    #[test]
    fn null_codes_are_exposed_verbatim() {
        let d = DatasetBuilder::new()
            .dimension_column(
                "X",
                xinsight_data::DimensionColumn::from_optional_values([Some("a"), None, Some("b")]),
            )
            .build()
            .unwrap();
        let view = DiscoveryView::compile(&d, &["X"]).unwrap();
        assert_eq!(view.codes(0), &[0, xinsight_data::NULL_CODE, 1]);
    }
}
