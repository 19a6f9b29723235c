//! Subspaces: conjunctions of filters on disjoint dimensions (Sec. 2.1).

use crate::dataset::Dataset;
use crate::error::{DataError, Result};
use crate::filter::Filter;
use crate::mask::RowMask;
use std::fmt;

/// A subspace `{X_1 = x_1 ∧ ... ∧ X_k = x_k}` over disjoint dimensions.
///
/// Two subspaces that differ in exactly one filter are *siblings*; the shared
/// filters are the *background* variables and the differing one is the
/// *foreground* variable (the Why-Query context, Sec. 2.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Subspace {
    filters: Vec<Filter>,
}

impl Subspace {
    /// The empty subspace, selecting every row.
    pub fn all() -> Self {
        Subspace {
            filters: Vec::new(),
        }
    }

    /// Builds a subspace from filters; fails if two filters share a dimension.
    pub fn new<I: IntoIterator<Item = Filter>>(filters: I) -> Result<Self> {
        let mut out = Subspace::all();
        for f in filters {
            out = out.and(f)?;
        }
        Ok(out)
    }

    /// Convenience constructor for a single-filter subspace.
    pub fn of(attribute: impl Into<String>, value: impl Into<String>) -> Self {
        Subspace {
            filters: vec![Filter::equals(attribute, value)],
        }
    }

    /// Adds one filter, keeping filters sorted by attribute.
    pub fn and(mut self, filter: Filter) -> Result<Self> {
        if self
            .filters
            .iter()
            .any(|f| f.attribute() == filter.attribute())
        {
            return Err(DataError::OverlappingSubspace(
                filter.attribute().to_owned(),
            ));
        }
        self.filters.push(filter);
        self.filters.sort();
        Ok(self)
    }

    /// The filters of the conjunction, sorted by attribute name.
    pub fn filters(&self) -> &[Filter] {
        &self.filters
    }

    /// Number of filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Returns `true` when the subspace selects everything.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Evaluates the subspace into a row mask (`D_s`).
    pub fn mask(&self, data: &Dataset) -> Result<RowMask> {
        let mut mask = data.all_rows();
        for f in &self.filters {
            mask = mask.and(&f.mask(data)?);
        }
        Ok(mask)
    }

    /// If `self` and `other` are siblings, returns
    /// `(foreground attribute, self value, other value)`.
    ///
    /// Siblings constrain the same set of dimensions and differ in the value
    /// of exactly one of them.
    pub fn sibling_difference<'a>(
        &'a self,
        other: &'a Subspace,
    ) -> Option<(&'a str, &'a str, &'a str)> {
        if self.filters.len() != other.filters.len() {
            return None;
        }
        let mut diff = None;
        for (a, b) in self.filters.iter().zip(other.filters.iter()) {
            if a.attribute() != b.attribute() {
                return None;
            }
            if a.value() != b.value() {
                if diff.is_some() {
                    return None;
                }
                diff = Some((a.attribute(), a.value(), b.value()));
            }
        }
        diff
    }
}

impl fmt::Display for Subspace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.filters.is_empty() {
            return write!(f, "⊤");
        }
        let parts: Vec<String> = self.filters.iter().map(|p| p.to_string()).collect();
        write!(f, "{}", parts.join(" ∧ "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn data() -> Dataset {
        DatasetBuilder::new()
            .dimension("Location", ["A", "A", "B", "B", "A"])
            .dimension("Severity", ["Severe", "Mild", "Severe", "Mild", "Severe"])
            .build()
            .unwrap()
    }

    #[test]
    fn conjunction_mask() {
        let d = data();
        let s = Subspace::of("Location", "A")
            .and(Filter::equals("Severity", "Severe"))
            .unwrap();
        assert_eq!(
            s.mask(&d).unwrap().iter_selected().collect::<Vec<_>>(),
            vec![0, 4]
        );
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn all_selects_everything() {
        let d = data();
        assert_eq!(Subspace::all().mask(&d).unwrap().count(), 5);
        assert!(Subspace::all().is_empty());
    }

    #[test]
    fn overlapping_filters_rejected() {
        let err = Subspace::of("Location", "A")
            .and(Filter::equals("Location", "B"))
            .unwrap_err();
        assert_eq!(err, DataError::OverlappingSubspace("Location".into()));
    }

    #[test]
    fn sibling_detection() {
        let s1 = Subspace::new([
            Filter::equals("Location", "A"),
            Filter::equals("Severity", "Severe"),
        ])
        .unwrap();
        let s2 = Subspace::new([
            Filter::equals("Location", "B"),
            Filter::equals("Severity", "Severe"),
        ])
        .unwrap();
        let (fg, v1, v2) = s1.sibling_difference(&s2).unwrap();
        assert_eq!(fg, "Location");
        assert_eq!((v1, v2), ("A", "B"));
        let attributes: Vec<&str> = s1.filters().iter().map(|f| f.attribute()).collect();
        assert_eq!(attributes, ["Location", "Severity"]);
    }

    #[test]
    fn non_siblings_are_rejected() {
        let s1 = Subspace::of("Location", "A");
        let s2 = Subspace::of("Severity", "Mild");
        assert!(s1.sibling_difference(&s2).is_none());
        let s3 = Subspace::new([
            Filter::equals("Location", "B"),
            Filter::equals("Severity", "Severe"),
        ])
        .unwrap();
        assert!(s1.sibling_difference(&s3).is_none());
        // Same subspace: zero differing filters is not a sibling pair either.
        assert!(s1.sibling_difference(&s1).is_none());
    }

    #[test]
    fn display() {
        assert_eq!(Subspace::all().to_string(), "⊤");
        let s = Subspace::new([Filter::equals("B", "2"), Filter::equals("A", "1")]).unwrap();
        assert_eq!(s.to_string(), "A = 1 ∧ B = 2");
    }
}
