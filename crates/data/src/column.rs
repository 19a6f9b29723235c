//! Columnar storage of dimensions and measures.

// HashMap here never leaks iteration order into output: dictionary interning maps; codes give the deterministic order (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::error::{DataError, Result};
use crate::mask::RowMask;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Dictionary-encoded categorical column.
///
/// Each distinct category receives a dense `u32` code; the per-row payload is
/// the vector of codes.  `u32::MAX` encodes a missing value.
///
/// Categories are interned as `Arc<str>`: the dictionary vector and the
/// reverse lookup share one allocation per category (instead of storing every
/// string twice), and a [`SegmentedDataset`](crate::SegmentedDataset) whose
/// segments snapshot a shared global dictionary pays one allocation per
/// category *total*, however many segments exist.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionColumn {
    codes: Vec<u32>,
    categories: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, u32>,
}

/// Sentinel code used for missing categorical values.
pub const NULL_CODE: u32 = u32::MAX;

impl DimensionColumn {
    /// Builds a dimension column from string-like values.
    pub fn from_values<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        Self::from_optional_values(values.into_iter().map(Some))
    }

    /// Builds a dimension column where some values may be missing.
    pub fn from_optional_values<I, S>(values: I) -> Self
    where
        I: IntoIterator<Item = Option<S>>,
        S: AsRef<str>,
    {
        let mut col = Self::from_interned(Vec::new(), Vec::new(), HashMap::new());
        for v in values {
            match v {
                Some(s) => col.push(s.as_ref()),
                None => col.codes.push(NULL_CODE),
            }
        }
        col
    }

    /// Builds a dimension column from pre-encoded storage: per-row `codes`
    /// into the given `categories` dictionary (typically a snapshot of a
    /// [`SegmentedDataset`](crate::SegmentedDataset)'s shared global
    /// dictionary, so the `Arc<str>`s are shared rather than re-interned).
    /// Every code must be in range or [`NULL_CODE`]; the dictionary must be
    /// duplicate-free.
    pub fn from_parts(codes: Vec<u32>, categories: Vec<Arc<str>>) -> Result<Self> {
        let cardinality = categories.len() as u32;
        if let Some(&bad) = codes.iter().find(|&&c| c != NULL_CODE && c >= cardinality) {
            return Err(DataError::InvalidBinning(format!(
                "dictionary code {bad} is out of range for a dictionary of {cardinality}"
            )));
        }
        let mut lookup = HashMap::with_capacity(categories.len());
        for (i, category) in categories.iter().enumerate() {
            if lookup.insert(Arc::clone(category), i as u32).is_some() {
                return Err(DataError::DuplicateAttribute(category.to_string()));
            }
        }
        Ok(Self::from_interned(codes, categories, lookup))
    }

    /// Assembles a column its builder has already interned: `lookup` maps
    /// every category of the duplicate-free `categories` to its code, and
    /// every code is in range or [`NULL_CODE`].  Unlike
    /// [`DimensionColumn::from_parts`], nothing is re-validated.
    pub(crate) fn from_interned(
        codes: Vec<u32>,
        categories: Vec<Arc<str>>,
        lookup: HashMap<Arc<str>, u32>,
    ) -> Self {
        DimensionColumn {
            codes,
            categories,
            lookup,
        }
    }

    /// Builds a column from per-row keys into a source dictionary of
    /// `n_keys` entries (`None` marks a missing row), assigning codes in
    /// first-appearance order: the dictionary re-interning the rows'
    /// strings would build — same order, unseen keys dropped — without
    /// touching a string per row.  `category(key)` is called once per
    /// distinct key that occurs, and keys naming the same string must
    /// already be merged by the caller.
    pub(crate) fn from_keys(
        keys: impl ExactSizeIterator<Item = Option<usize>>,
        n_keys: usize,
        mut category: impl FnMut(usize) -> Arc<str>,
    ) -> Self {
        let mut remap = vec![NULL_CODE; n_keys];
        let mut categories = Vec::new();
        let mut codes = Vec::with_capacity(keys.len());
        for key in keys {
            codes.push(match key {
                None => NULL_CODE,
                Some(key) => {
                    if remap[key] == NULL_CODE {
                        remap[key] = categories.len() as u32;
                        categories.push(category(key));
                    }
                    remap[key]
                }
            });
        }
        let lookup = categories
            .iter()
            .enumerate()
            .map(|(code, c)| (Arc::clone(c), code as u32))
            .collect();
        Self::from_interned(codes, categories, lookup)
    }

    /// The rows at `rows`, in that order, re-coded in first-appearance
    /// order (see [`DimensionColumn::from_keys`]); the kept categories
    /// share this column's interned strings.
    pub(crate) fn take(&self, rows: &[usize]) -> Self {
        let keys = rows.iter().map(|&i| match self.codes[i] {
            NULL_CODE => None,
            code => Some(code as usize),
        });
        Self::from_keys(keys, self.categories.len(), |code| {
            Arc::clone(&self.categories[code])
        })
    }

    /// Appends one value, interning its category.
    pub fn push(&mut self, value: &str) {
        let code = match self.lookup.get(value) {
            Some(&c) => c,
            None => {
                let c = self.categories.len() as u32;
                // xlint: allow(no-alloc-hot-path, interning a category seen for the first time: one allocation per distinct value, not per cell)
                let interned: Arc<str> = Arc::from(value);
                self.categories.push(Arc::clone(&interned));
                self.lookup.insert(interned, c);
                c
            }
        };
        self.codes.push(code);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Returns `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct categories observed (the paper's *cardinality*).
    pub fn cardinality(&self) -> usize {
        self.categories.len()
    }

    /// Dictionary code of row `i`, or `NULL_CODE` when missing.
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// All per-row codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The category string for a dictionary code.
    fn category(&self, code: u32) -> Option<&str> {
        self.categories.get(code as usize).map(|s| s.as_ref())
    }

    /// All (interned) category strings, ordered by code.
    pub fn categories(&self) -> &[Arc<str>] {
        &self.categories
    }

    /// Dictionary code of a category string, if present.
    pub fn code_of(&self, category: &str) -> Option<u32> {
        self.lookup.get(category).copied()
    }

    /// Category string of row `i`, or `None` when missing.
    pub fn value(&self, i: usize) -> Option<&str> {
        let code = self.codes[i];
        if code == NULL_CODE {
            None
        } else {
            self.category(code)
        }
    }

    /// Returns `true` if row `i` is missing.
    pub fn is_null(&self, i: usize) -> bool {
        self.codes[i] == NULL_CODE
    }

    /// Mask of rows whose code equals `code`.
    pub fn equals_mask(&self, code: u32) -> RowMask {
        RowMask::from_bools(self.codes.iter().map(|&c| c == code))
    }

    /// Counts occurrences of each category among the rows selected by `mask`.
    pub fn value_counts(&self, mask: &RowMask) -> Vec<(String, usize)> {
        let mut counts = vec![0usize; self.categories.len()];
        for i in mask.iter_selected() {
            let code = self.codes[i];
            if code != NULL_CODE {
                counts[code as usize] += 1;
            }
        }
        self.categories
            .iter()
            .map(|c| c.to_string())
            .zip(counts)
            .collect()
    }
}

/// Numerical column with `f64` payload; missing values are stored as NaN.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureColumn {
    values: Vec<f64>,
}

impl MeasureColumn {
    /// Builds a measure column from numeric values.
    pub fn from_values<I: IntoIterator<Item = f64>>(values: I) -> Self {
        MeasureColumn {
            values: values.into_iter().collect(),
        }
    }

    /// Builds a measure column where some values may be missing.
    pub fn from_optional_values<I: IntoIterator<Item = Option<f64>>>(values: I) -> Self {
        MeasureColumn {
            values: values.into_iter().map(|v| v.unwrap_or(f64::NAN)).collect(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values (missing values are NaN).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value of row `i`, or `None` when missing.
    pub fn value(&self, i: usize) -> Option<f64> {
        let v = self.values[i];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Returns `true` if row `i` is missing.
    pub fn is_null(&self, i: usize) -> bool {
        self.values[i].is_nan()
    }

    /// The rows at `rows`, in that order; every missing value becomes the
    /// canonical `f64::NAN`.
    pub(crate) fn take(&self, rows: &[usize]) -> Self {
        MeasureColumn::from_optional_values(rows.iter().map(|&i| self.value(i)))
    }

    /// Minimum over the selected, non-missing rows.
    pub fn min(&self, mask: &RowMask) -> Option<f64> {
        mask.iter_selected()
            .filter_map(|i| self.value(i))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
    }

    /// Maximum over the selected, non-missing rows.
    pub fn max(&self, mask: &RowMask) -> Option<f64> {
        mask.iter_selected()
            .filter_map(|i| self.value(i))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// A column of either kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Categorical column.
    Dimension(DimensionColumn),
    /// Numerical column.
    Measure(MeasureColumn),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Dimension(c) => c.len(),
            Column::Measure(c) => c.len(),
        }
    }

    /// Returns `true` when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value of row `i`.
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Dimension(c) => c
                .value(i)
                .map(|s| Value::Category(s.to_owned()))
                .unwrap_or(Value::Null),
            Column::Measure(c) => c.value(i).map(Value::Number).unwrap_or(Value::Null),
        }
    }

    /// Returns `true` if row `i` is missing.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Dimension(c) => c.is_null(i),
            Column::Measure(c) => c.is_null(i),
        }
    }

    /// Borrows the dimension payload or fails.
    pub fn as_dimension(&self, name: &str) -> Result<&DimensionColumn> {
        match self {
            Column::Dimension(c) => Ok(c),
            Column::Measure(_) => Err(DataError::WrongKind {
                attribute: name.to_owned(),
                expected: "dimension",
            }),
        }
    }

    /// Borrows the measure payload or fails.
    pub fn as_measure(&self, name: &str) -> Result<&MeasureColumn> {
        match self {
            Column::Measure(c) => Ok(c),
            Column::Dimension(_) => Err(DataError::WrongKind {
                attribute: name.to_owned(),
                expected: "measure",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimension_dictionary_encoding() {
        let col = DimensionColumn::from_values(["a", "b", "a", "c", "b"]);
        assert_eq!(col.len(), 5);
        assert_eq!(col.cardinality(), 3);
        assert_eq!(col.code_of("a"), Some(0));
        assert_eq!(col.code_of("c"), Some(2));
        assert_eq!(col.value(3), Some("c"));
        assert_eq!(col.code_of("zzz"), None);
    }

    #[test]
    fn from_parts_validates_codes_and_shares_interned_categories() {
        let dict: Vec<Arc<str>> = vec![Arc::from("a"), Arc::from("b")];
        let col = DimensionColumn::from_parts(vec![0, 1, NULL_CODE, 0], dict.clone()).unwrap();
        assert_eq!(col.len(), 4);
        assert_eq!(col.cardinality(), 2);
        assert_eq!(col.value(1), Some("b"));
        assert!(col.is_null(2));
        // The dictionary entries are shared, not re-interned.
        assert!(Arc::ptr_eq(&col.categories()[0], &dict[0]));
        // Out-of-range codes and duplicate categories are rejected.
        assert!(DimensionColumn::from_parts(vec![2], dict.clone()).is_err());
        let dup: Vec<Arc<str>> = vec![Arc::from("x"), Arc::from("x")];
        assert!(DimensionColumn::from_parts(vec![0], dup).is_err());
    }

    #[test]
    fn dimension_nulls() {
        let col = DimensionColumn::from_optional_values([Some("x"), None, Some("y")]);
        assert!(col.is_null(1));
        assert_eq!(col.value(1), None);
        assert_eq!(col.cardinality(), 2);
    }

    #[test]
    fn equals_mask_selects_matching_rows() {
        let col = DimensionColumn::from_values(["a", "b", "a"]);
        let mask = col.equals_mask(col.code_of("a").unwrap());
        assert_eq!(mask.iter_selected().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn value_counts_respect_mask() {
        let col = DimensionColumn::from_values(["a", "b", "a", "b", "b"]);
        let mask = RowMask::from_bools([true, true, true, false, false]);
        let counts = col.value_counts(&mask);
        assert_eq!(counts, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
    }

    #[test]
    fn measure_accessors_and_nulls() {
        let col = MeasureColumn::from_optional_values([Some(1.0), None, Some(3.0)]);
        assert_eq!(col.value(0), Some(1.0));
        assert_eq!(col.value(1), None);
        assert!(col.is_null(1));
        let mask = RowMask::ones(3);
        assert_eq!(col.min(&mask), Some(1.0));
        assert_eq!(col.max(&mask), Some(3.0));
    }

    #[test]
    fn column_value_dispatch() {
        let dim = Column::Dimension(DimensionColumn::from_values(["q"]));
        let mea = Column::Measure(MeasureColumn::from_values([7.0]));
        assert_eq!(dim.value(0), Value::Category("q".into()));
        assert_eq!(mea.value(0), Value::Number(7.0));
        assert!(dim.as_dimension("d").is_ok());
        assert!(dim.as_measure("d").is_err());
        assert!(mea.as_measure("m").is_ok());
        assert!(mea.as_dimension("m").is_err());
    }
}
