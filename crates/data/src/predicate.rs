//! Predicates: disjunctions of filters on the same dimension (Sec. 2.1).

use crate::dataset::Dataset;
use crate::error::Result;
use crate::filter::Filter;
use crate::mask::RowMask;
use std::fmt;

/// A predicate `{X = x_1 ∨ ... ∨ X = x_k}` over a single dimension `X`.
///
/// XPlainer's explanations and contingencies are predicates; a [`Filter`]
/// is the single-element special case.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    attribute: String,
    values: Vec<String>,
}

impl Predicate {
    /// Creates an empty predicate on a dimension (matches no rows).
    pub fn empty(attribute: impl Into<String>) -> Self {
        Predicate {
            attribute: attribute.into(),
            values: Vec::new(),
        }
    }

    /// Creates a predicate from the given values of a dimension.
    pub fn new<I, S>(attribute: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut p = Predicate::empty(attribute);
        for v in values {
            p.insert(v.into());
        }
        p
    }

    /// The dimension this predicate constrains.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// The asserted category values (sorted, deduplicated).
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Number of filters in the disjunction (`|P|` in Eqn. 4).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the predicate contains no filters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Inserts a value, keeping the set sorted and deduplicated.
    pub fn insert(&mut self, value: impl Into<String>) {
        let value = value.into();
        if let Err(pos) = self.values.binary_search(&value) {
            self.values.insert(pos, value);
        }
    }

    /// Returns `true` if the predicate asserts the given value.
    pub fn contains(&self, value: &str) -> bool {
        self.values
            .binary_search_by(|v| v.as_str().cmp(value))
            .is_ok()
    }

    /// The individual filters making up the disjunction.
    pub fn filters(&self) -> Vec<Filter> {
        self.values
            .iter()
            .map(|v| Filter::equals(&self.attribute, v))
            .collect()
    }

    /// Union with another predicate on the same attribute.
    ///
    /// # Panics
    /// Panics if the attributes differ; predicates are single-dimensional by
    /// construction (Sec. 2.1, "Single- vs. Multi-Dimensional Explanation").
    pub fn union(&self, other: &Predicate) -> Predicate {
        assert_eq!(
            self.attribute, other.attribute,
            "predicates must target the same dimension"
        );
        let mut out = self.clone();
        for v in &other.values {
            out.insert(v.clone());
        }
        out
    }

    /// Evaluates the predicate into a row mask (`D_P` in the paper).
    pub fn mask(&self, data: &Dataset) -> Result<RowMask> {
        let col = data.dimension(&self.attribute)?;
        let mut mask = RowMask::zeros(data.n_rows());
        for v in &self.values {
            if let Some(code) = col.code_of(v) {
                mask = mask.or(&col.equals_mask(code));
            }
        }
        Ok(mask)
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.values.is_empty() {
            return write!(f, "{} ∈ ∅", self.attribute);
        }
        if self.values.len() == 1 {
            return write!(f, "{} = {}", self.attribute, self.values[0]);
        }
        write!(f, "{} ∈ {{{}}}", self.attribute, self.values.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn data() -> Dataset {
        DatasetBuilder::new()
            .dimension("Carrier", ["AA", "UA", "DL", "AA", "WN", "DL"])
            .build()
            .unwrap()
    }

    #[test]
    fn insert_sorts_and_dedups() {
        let mut p = Predicate::empty("Carrier");
        p.insert("UA");
        p.insert("AA");
        p.insert("UA");
        assert_eq!(p.values(), ["AA", "UA"]);
        assert_eq!(p.len(), 2);
        assert!(p.contains("AA"));
        assert!(!p.contains("DL"));
    }

    #[test]
    fn mask_is_union_of_filter_masks() {
        let d = data();
        let p = Predicate::new("Carrier", ["AA", "DL"]);
        assert_eq!(
            p.mask(&d).unwrap().iter_selected().collect::<Vec<_>>(),
            vec![0, 2, 3, 5]
        );
    }

    #[test]
    fn union_difference_disjoint() {
        let a = Predicate::new("X", ["1", "2"]);
        let b = Predicate::new("X", ["2", "3"]);
        assert_eq!(a.union(&b).values(), ["1", "2", "3"]);
    }

    #[test]
    #[should_panic(expected = "same dimension")]
    fn union_across_dimensions_panics() {
        let a = Predicate::new("X", ["1"]);
        let b = Predicate::new("Y", ["1"]);
        let _ = a.union(&b);
    }

    #[test]
    fn filters_round_trip() {
        let p = Predicate::new("X", ["b", "a"]);
        let fs = p.filters();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0], Filter::equals("X", "a"));
        assert_eq!(fs[1], Filter::equals("X", "b"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Predicate::empty("X").to_string(), "X ∈ ∅");
        assert_eq!(Predicate::new("X", ["a"]).to_string(), "X = a");
        assert_eq!(Predicate::new("X", ["a", "b"]).to_string(), "X ∈ {a, b}");
    }
}
