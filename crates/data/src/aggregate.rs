//! Aggregation operators over measures (Sec. 2.1).

use crate::dataset::Dataset;
use crate::error::{DataError, Result};
use crate::mask::RowMask;
use std::fmt;

/// SQL-style aggregate functions over a measure.
///
/// The Why-Query definition (Def. 2.1) is parameterised by an aggregate
/// `agg()`.  The paper's translation rules and XPlainer optimizations are
/// specialised for `SUM` and `AVG`; `COUNT`, `MIN`, `MAX` are supported by
/// the data model (and by the brute-force explainer) for completeness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Sum of the measure over the selection.
    Sum,
    /// Arithmetic mean of the measure over the selection.
    Avg,
    /// Number of selected rows with a non-missing measure value.
    Count,
    /// Minimum of the measure over the selection.
    Min,
    /// Maximum of the measure over the selection.
    Max,
}

impl Aggregate {
    /// Evaluates the aggregate of `measure` over the rows selected by `mask`.
    ///
    /// `Sum` and `Count` of an empty selection are 0; `Avg`, `Min` and `Max`
    /// of an empty selection are undefined and return an error.
    ///
    /// Accumulation goes through [`MeasureStats`](crate::MeasureStats) —
    /// the same exactly-summing codepath the segmented store merges — so a
    /// monolithic evaluation and a per-segment merge of the same rows are
    /// bit-identical.
    pub fn eval(&self, data: &Dataset, measure: &str, mask: &RowMask) -> Result<f64> {
        if mask.len() != data.n_rows() {
            return Err(DataError::MaskLengthMismatch {
                mask: mask.len(),
                rows: data.n_rows(),
            });
        }
        crate::MeasureStats::of(data.measure(measure)?, mask)
            .value(*self)
            .ok_or_else(|| DataError::EmptyAggregate {
                aggregate: self.name(),
                attribute: measure.to_owned(),
            })
    }

    /// Like [`Aggregate::eval`] but returns `None` instead of an error for an
    /// empty selection.  Used by XPlainer where removing a predicate can empty
    /// one sibling subspace.
    pub fn eval_opt(&self, data: &Dataset, measure: &str, mask: &RowMask) -> Result<Option<f64>> {
        match self.eval(data, measure, mask) {
            Ok(v) => Ok(Some(v)),
            Err(DataError::EmptyAggregate { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The SQL-style name (what `Display` writes and `FromStr` parses).
    pub fn name(&self) -> &'static str {
        match self {
            Aggregate::Sum => "SUM",
            Aggregate::Avg => "AVG",
            Aggregate::Count => "COUNT",
            Aggregate::Min => "MIN",
            Aggregate::Max => "MAX",
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl std::str::FromStr for Aggregate {
    type Err = DataError;

    /// Parses the SQL-style name [`Aggregate`]'s `Display` writes, so the
    /// wire and persistence formats round-trip through one spelling.
    fn from_str(s: &str) -> Result<Aggregate> {
        match s {
            "SUM" => Ok(Aggregate::Sum),
            "AVG" => Ok(Aggregate::Avg),
            "COUNT" => Ok(Aggregate::Count),
            "MIN" => Ok(Aggregate::Min),
            "MAX" => Ok(Aggregate::Max),
            other => Err(DataError::Serve(format!("unknown aggregate `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::filter::Filter;

    fn data() -> Dataset {
        DatasetBuilder::new()
            .dimension("G", ["a", "a", "b", "b", "b"])
            .measure("M", [1.0, 3.0, 5.0, 7.0, 9.0])
            .build()
            .unwrap()
    }

    #[test]
    fn aggregates_over_all_rows() {
        let d = data();
        let all = d.all_rows();
        assert_eq!(Aggregate::Sum.eval(&d, "M", &all).unwrap(), 25.0);
        assert_eq!(Aggregate::Avg.eval(&d, "M", &all).unwrap(), 5.0);
        assert_eq!(Aggregate::Count.eval(&d, "M", &all).unwrap(), 5.0);
        assert_eq!(Aggregate::Min.eval(&d, "M", &all).unwrap(), 1.0);
        assert_eq!(Aggregate::Max.eval(&d, "M", &all).unwrap(), 9.0);
    }

    #[test]
    fn aggregates_under_filter() {
        let d = data();
        let mask = Filter::equals("G", "b").mask(&d).unwrap();
        assert_eq!(Aggregate::Sum.eval(&d, "M", &mask).unwrap(), 21.0);
        assert_eq!(Aggregate::Avg.eval(&d, "M", &mask).unwrap(), 7.0);
    }

    #[test]
    fn empty_selection_behaviour() {
        let d = data();
        let empty = RowMask::zeros(d.n_rows());
        assert_eq!(Aggregate::Sum.eval(&d, "M", &empty).unwrap(), 0.0);
        assert_eq!(Aggregate::Count.eval(&d, "M", &empty).unwrap(), 0.0);
        assert!(Aggregate::Avg.eval(&d, "M", &empty).is_err());
        assert_eq!(Aggregate::Avg.eval_opt(&d, "M", &empty).unwrap(), None);
        assert_eq!(Aggregate::Min.eval_opt(&d, "M", &empty).unwrap(), None);
    }

    #[test]
    fn missing_values_are_skipped() {
        let d = DatasetBuilder::new()
            .measure_column(
                "M",
                crate::column::MeasureColumn::from_optional_values([Some(2.0), None, Some(4.0)]),
            )
            .build()
            .unwrap();
        let all = d.all_rows();
        assert_eq!(Aggregate::Count.eval(&d, "M", &all).unwrap(), 2.0);
        assert_eq!(Aggregate::Avg.eval(&d, "M", &all).unwrap(), 3.0);
    }

    #[test]
    fn aggregate_over_dimension_is_error() {
        let d = data();
        assert!(Aggregate::Sum.eval(&d, "G", &d.all_rows()).is_err());
    }

    #[test]
    fn mask_length_checked() {
        let d = data();
        let bad = RowMask::ones(2);
        assert!(matches!(
            Aggregate::Sum.eval(&d, "M", &bad),
            Err(DataError::MaskLengthMismatch { .. })
        ));
    }

    #[test]
    fn display() {
        assert_eq!(Aggregate::Avg.to_string(), "AVG");
        assert_eq!(Aggregate::Sum.to_string(), "SUM");
    }
}
