//! Discretization of measures into categorical range bins (Sec. 2.1).
//!
//! XInsight uses measures in two roles: as the aggregation target of a Why
//! Query, and as candidate explanation attributes.  In the latter role a
//! measure must first be discretized into a dimension whose categories are
//! range labels (e.g. `LeadTime ≤ 133`), so that filters and predicates apply.

use crate::column::DimensionColumn;
use crate::dataset::Dataset;
use crate::error::{DataError, Result};
use std::sync::Arc;

/// A binning specification: sorted cut points defining half-open intervals.
///
/// `cuts = [c_1, ..., c_k]` produces `k + 1` bins:
/// `(-∞, c_1], (c_1, c_2], ..., (c_k, ∞)`.
#[derive(Debug, Clone, PartialEq)]
pub struct BinSpec {
    cuts: Vec<f64>,
    labels: Vec<String>,
}

impl BinSpec {
    /// Builds a bin specification from cut points (must be strictly increasing).
    pub fn from_cuts(cuts: Vec<f64>) -> Result<Self> {
        if cuts.is_empty() {
            return Err(DataError::InvalidBinning(
                "at least one cut point is required".into(),
            ));
        }
        if cuts.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DataError::InvalidBinning(
                "cut points must be strictly increasing".into(),
            ));
        }
        if cuts.iter().any(|c| !c.is_finite()) {
            return Err(DataError::InvalidBinning(
                "cut points must be finite".into(),
            ));
        }
        let mut labels = Vec::with_capacity(cuts.len() + 1);
        labels.push(format!("≤ {}", fmt_num(cuts[0])));
        for w in cuts.windows(2) {
            labels.push(format!("({}, {}]", fmt_num(w[0]), fmt_num(w[1])));
        }
        labels.push(format!("> {}", fmt_num(*cuts.last().expect("non-empty"))));
        Ok(BinSpec { cuts, labels })
    }

    /// Number of bins.
    #[cfg(test)]
    fn n_bins(&self) -> usize {
        self.cuts.len() + 1
    }

    /// The cut points.
    pub fn cuts(&self) -> &[f64] {
        &self.cuts
    }

    /// Human-readable label of bin `idx`.
    pub fn label(&self, idx: usize) -> &str {
        &self.labels[idx]
    }

    /// Index of the bin containing `value`.
    pub fn bin_of(&self, value: f64) -> usize {
        match self.cuts.iter().position(|&c| value <= c) {
            Some(i) => i,
            None => self.cuts.len(),
        }
    }
}

fn fmt_num(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.3}")
    }
}

/// A reusable discretizer bound to a measure name.
#[derive(Debug, Clone, PartialEq)]
pub struct Discretizer {
    measure: String,
    spec: BinSpec,
}

impl Discretizer {
    /// Creates a discretizer for `measure` with the given bin spec.
    pub fn new(measure: impl Into<String>, spec: BinSpec) -> Self {
        Discretizer {
            measure: measure.into(),
            spec,
        }
    }

    /// The measure this discretizer applies to.
    pub fn measure(&self) -> &str {
        &self.measure
    }

    /// The bin specification.
    pub fn spec(&self) -> &BinSpec {
        &self.spec
    }

    /// Applies the discretizer, returning a new dataset with an appended
    /// dimension column named `<measure>_bin` (or `out_name` when provided).
    pub fn apply(&self, data: &Dataset, out_name: Option<&str>) -> Result<Dataset> {
        let name = out_name
            .map(str::to_owned)
            .unwrap_or_else(|| format!("{}_bin", self.measure));
        data.clone().with_dimension(&name, self.bin_column(data)?)
    }

    /// The binned measure as a dimension column: one range label per
    /// non-missing row, coded in first-appearance order — the column that
    /// interning each row's label would build, with each label interned
    /// once.
    pub fn bin_column(&self, data: &Dataset) -> Result<DimensionColumn> {
        let col = data.measure(&self.measure)?;
        // Bins whose labels print alike (cuts closer than the label
        // precision) share the first such bin's key, as they would share a
        // category when interned by string.
        let labels = &self.spec.labels;
        let key_of_bin: Vec<usize> = (0..labels.len())
            .map(|b| labels.iter().position(|l| *l == labels[b]).unwrap_or(b))
            .collect();
        let keys = col
            .values()
            .iter()
            .map(|&v| (!v.is_nan()).then(|| key_of_bin[self.spec.bin_of(v)]));
        Ok(DimensionColumn::from_keys(keys, labels.len(), |key| {
            Arc::from(self.spec.label(key))
        }))
    }
}

/// Equal-width binning of a measure into `n_bins` bins over the observed range.
pub fn discretize_equal_width(data: &Dataset, measure: &str, n_bins: usize) -> Result<Discretizer> {
    if n_bins < 2 {
        return Err(DataError::InvalidBinning(
            "equal-width binning needs at least 2 bins".into(),
        ));
    }
    let col = data.measure(measure)?;
    let all = data.all_rows();
    let (min, max) = match (col.min(&all), col.max(&all)) {
        (Some(a), Some(b)) if b > a => (a, b),
        _ => {
            return Err(DataError::InvalidBinning(format!(
                "measure `{measure}` has no spread to discretize"
            )))
        }
    };
    let width = (max - min) / n_bins as f64;
    let cuts: Vec<f64> = (1..n_bins).map(|i| min + width * i as f64).collect();
    Ok(Discretizer::new(measure, BinSpec::from_cuts(cuts)?))
}

/// Equal-frequency (quantile) binning of a measure into `n_bins` bins.
pub fn discretize_equal_frequency(
    data: &Dataset,
    measure: &str,
    n_bins: usize,
) -> Result<Discretizer> {
    if n_bins < 2 {
        return Err(DataError::InvalidBinning(
            "equal-frequency binning needs at least 2 bins".into(),
        ));
    }
    let col = data.measure(measure)?;
    let mut values: Vec<f64> = col
        .values()
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .collect();
    if values.len() < n_bins {
        return Err(DataError::InvalidBinning(format!(
            "measure `{measure}` has only {} non-missing values for {n_bins} bins",
            values.len()
        )));
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
    let mut cuts = Vec::new();
    for i in 1..n_bins {
        let q = i as f64 / n_bins as f64;
        let idx = ((values.len() - 1) as f64 * q).round() as usize;
        let cut = values[idx];
        if cuts.last().is_none_or(|&last: &f64| cut > last) {
            cuts.push(cut);
        }
    }
    let max = *values.last().expect("non-empty");
    if cuts.is_empty() || max <= cuts[0] {
        return Err(DataError::InvalidBinning(format!(
            "measure `{measure}` is too concentrated for {n_bins} quantile bins"
        )));
    }
    Ok(Discretizer::new(measure, BinSpec::from_cuts(cuts)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn data() -> Dataset {
        DatasetBuilder::new()
            .measure("LeadTime", (0..100).map(|i| i as f64).collect::<Vec<_>>())
            .build()
            .unwrap()
    }

    #[test]
    fn bin_spec_basic() {
        let spec = BinSpec::from_cuts(vec![10.0, 20.0]).unwrap();
        assert_eq!(spec.n_bins(), 3);
        assert_eq!(spec.bin_of(5.0), 0);
        assert_eq!(spec.bin_of(10.0), 0);
        assert_eq!(spec.bin_of(15.0), 1);
        assert_eq!(spec.bin_of(25.0), 2);
        assert_eq!(spec.label(0), "≤ 10");
        assert_eq!(spec.label(1), "(10, 20]");
        assert_eq!(spec.label(2), "> 20");
    }

    #[test]
    fn bin_spec_validation() {
        assert!(BinSpec::from_cuts(vec![]).is_err());
        assert!(BinSpec::from_cuts(vec![2.0, 1.0]).is_err());
        assert!(BinSpec::from_cuts(vec![1.0, 1.0]).is_err());
        assert!(BinSpec::from_cuts(vec![f64::NAN]).is_err());
    }

    #[test]
    fn equal_width_covers_range() {
        let d = data();
        let disc = discretize_equal_width(&d, "LeadTime", 4).unwrap();
        assert_eq!(disc.spec().n_bins(), 4);
        let binned = disc.apply(&d, None).unwrap();
        assert_eq!(binned.n_attributes(), 2);
        let col = binned.dimension("LeadTime_bin").unwrap();
        assert_eq!(col.cardinality(), 4);
    }

    #[test]
    fn equal_frequency_balances_counts() {
        let d = data();
        let disc = discretize_equal_frequency(&d, "LeadTime", 4).unwrap();
        let binned = disc.apply(&d, Some("LT")).unwrap();
        let col = binned.dimension("LT").unwrap();
        let counts = col.value_counts(&binned.all_rows());
        let max = counts.iter().map(|(_, c)| *c).max().unwrap();
        let min = counts.iter().map(|(_, c)| *c).min().unwrap();
        assert!(
            max - min <= 2,
            "bins should be roughly balanced: {counts:?}"
        );
    }

    #[test]
    fn bins_whose_labels_print_alike_share_one_category() {
        // Cuts closer than the labels' three decimals: bins 1 and 2 are
        // both "(1.000, 1.000]", as one interned category.
        let spec = BinSpec::from_cuts(vec![1.0001, 1.0002, 1.0003]).unwrap();
        assert_eq!(spec.label(1), spec.label(2));
        let d = DatasetBuilder::new()
            .measure("M", [1.00025, 0.0, 1.00015, 2.0, 1.00025])
            .build()
            .unwrap();
        let col = Discretizer::new("M", spec).bin_column(&d).unwrap();
        assert_eq!(col.codes(), &[0, 1, 0, 2, 0]);
        assert_eq!(col.cardinality(), 3);
        assert_eq!(col.value(2), Some("(1.000, 1.000]"));
        assert_eq!(col.code_of("> 1.000"), Some(2));
    }

    #[test]
    fn degenerate_measures_rejected() {
        let flat = DatasetBuilder::new()
            .measure("M", vec![5.0; 10])
            .build()
            .unwrap();
        assert!(discretize_equal_width(&flat, "M", 3).is_err());
        assert!(discretize_equal_frequency(&flat, "M", 3).is_err());
        assert!(discretize_equal_width(&flat, "M", 1).is_err());
    }

    #[test]
    fn missing_values_stay_missing() {
        let d = DatasetBuilder::new()
            .measure_column(
                "M",
                crate::column::MeasureColumn::from_optional_values([
                    Some(1.0),
                    None,
                    Some(10.0),
                    Some(20.0),
                ]),
            )
            .build()
            .unwrap();
        let disc = Discretizer::new("M", BinSpec::from_cuts(vec![5.0]).unwrap());
        let binned = disc.apply(&d, None).unwrap();
        assert!(binned.dimension("M_bin").unwrap().is_null(1));
    }
}
