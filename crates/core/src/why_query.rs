//! Why Queries (Def. 2.1).

use crate::json::Json;
use xinsight_data::{
    Aggregate, DataError, Dataset, Filter, MeasureStats, Result, RowMask, SegmentedDataset,
    Subspace,
};

/// A Why Query `Δ_{s1, s2, M, agg}(D) = agg_M(D_{s1}) − agg_M(D_{s2})` over two
/// sibling subspaces.
///
/// The paper assumes Δ is non-negative w.l.o.g.; [`WhyQuery::oriented`]
/// swaps the subspaces when necessary so user code does not have to care.
///
/// Queries are `Eq + Hash` (subspace filters are kept sorted by attribute,
/// so structurally equal queries hash equally) and serialize to a canonical
/// JSON form ([`WhyQuery::to_json`]), which doubles as the serving layer's
/// wire format and result-cache key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WhyQuery {
    measure: String,
    aggregate: Aggregate,
    s1: Subspace,
    s2: Subspace,
    foreground: String,
    foreground_values: (String, String),
}

impl WhyQuery {
    /// Creates a Why Query.  The two subspaces must be siblings (identical
    /// except for the value of exactly one dimension, the *foreground*
    /// variable).
    pub fn new(
        measure: impl Into<String>,
        aggregate: Aggregate,
        s1: Subspace,
        s2: Subspace,
    ) -> Result<Self> {
        let (fg, v1, v2) = s1.sibling_difference(&s2).ok_or_else(|| {
            DataError::OverlappingSubspace(
                "Why Query subspaces must be siblings (differ in exactly one filter)".into(),
            )
        })?;
        let foreground = fg.to_owned();
        let foreground_values = (v1.to_owned(), v2.to_owned());
        Ok(WhyQuery {
            measure: measure.into(),
            aggregate,
            s1,
            s2,
            foreground,
            foreground_values,
        })
    }

    /// The target measure `M`.
    pub fn measure(&self) -> &str {
        &self.measure
    }

    /// The aggregate function.
    pub fn aggregate(&self) -> Aggregate {
        self.aggregate
    }

    /// The first sibling subspace.
    pub fn s1(&self) -> &Subspace {
        &self.s1
    }

    /// The second sibling subspace.
    pub fn s2(&self) -> &Subspace {
        &self.s2
    }

    /// The foreground (breakdown) dimension `F`.
    pub fn foreground(&self) -> &str {
        &self.foreground
    }

    /// The two values the foreground dimension takes in `s1` and `s2`.
    #[cfg(test)]
    fn foreground_values(&self) -> (&str, &str) {
        (&self.foreground_values.0, &self.foreground_values.1)
    }

    /// The background dimensions `B` (shared filters of the siblings).
    pub fn background(&self) -> Vec<&str> {
        self.s1
            .filters()
            .iter()
            .map(|f| f.attribute())
            .filter(|a| *a != self.foreground)
            .collect()
    }

    /// Evaluates `Δ(D)` over the whole dataset.
    pub fn delta(&self, data: &Dataset) -> Result<f64> {
        self.delta_over(data, &data.all_rows())
    }

    /// Evaluates `Δ(D')` where `D'` is the subset selected by `restriction`
    /// (the paper's `Δ(D − D_P)` etc. are expressed this way).
    ///
    /// When either sibling subspace becomes empty under a non-additive
    /// aggregate the difference is undefined, and this returns a
    /// [`DataError::EmptyAggregate`] error.
    pub fn delta_over(&self, data: &Dataset, restriction: &RowMask) -> Result<f64> {
        self.delta_over_opt(data, restriction)?
            .ok_or_else(|| DataError::EmptyAggregate {
                aggregate: "WHY-QUERY",
                attribute: self.measure.clone(),
            })
    }

    /// Like [`WhyQuery::delta_over`] but returns `None` when one side is
    /// empty and the aggregate is undefined there.
    fn delta_over_opt(&self, data: &Dataset, restriction: &RowMask) -> Result<Option<f64>> {
        let m1 = self.s1.mask(data)?.and(restriction);
        let m2 = self.s2.mask(data)?.and(restriction);
        let a1 = self.aggregate.eval_opt(data, &self.measure, &m1)?;
        let a2 = self.aggregate.eval_opt(data, &self.measure, &m2)?;
        Ok(match (a1, a2) {
            (Some(x), Some(y)) => Some(x - y),
            _ => None,
        })
    }

    /// Serializes the query to its canonical JSON value (see
    /// [`WhyQuery::to_json`]).
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("measure".to_owned(), Json::Str(self.measure.clone())),
            (
                "aggregate".to_owned(),
                Json::Str(self.aggregate.to_string()),
            ),
            ("s1".to_owned(), subspace_to_json(&self.s1)),
            ("s2".to_owned(), subspace_to_json(&self.s2)),
        ])
    }

    /// Serializes the query to canonical JSON text:
    ///
    /// ```json
    /// {"measure":"M","aggregate":"AVG","s1":[["X","a"]],"s2":[["X","b"]]}
    /// ```
    ///
    /// Subspaces are arrays of `[attribute, value]` pairs in the (sorted)
    /// filter order [`Subspace`] maintains, so structurally equal queries
    /// serialize to identical bytes — the serving layer keys its result
    /// cache on this property.  [`WhyQuery::from_json`] round-trips exactly
    /// and re-validates the sibling constraint.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Parses a query from a JSON value (see [`WhyQuery::to_json`] for the
    /// format).  Runs the full [`WhyQuery::new`] validation, so a wire
    /// query that is not a sibling pair is rejected.
    pub fn from_json_value(doc: &Json) -> Result<WhyQuery> {
        let measure = doc.get("measure")?.as_str()?;
        let aggregate: Aggregate = doc.get("aggregate")?.as_str()?.parse()?;
        let s1 = subspace_from_json(doc.get("s1")?)?;
        let s2 = subspace_from_json(doc.get("s2")?)?;
        WhyQuery::new(measure, aggregate, s1, s2)
    }

    /// Parses a query from canonical JSON text.
    pub fn from_json(text: &str) -> Result<WhyQuery> {
        Self::from_json_value(&Json::parse(text)?)
    }

    /// Returns a query with `s1`/`s2` possibly swapped so that `Δ(D) ≥ 0`
    /// (the paper's w.l.o.g. convention).
    pub fn oriented(&self, data: &Dataset) -> Result<WhyQuery> {
        if self.delta(data)? >= 0.0 {
            Ok(self.clone())
        } else {
            Ok(self.flipped())
        }
    }

    /// Evaluates `Δ(D)` over a segmented store, merging the per-segment
    /// statistics exactly (bit-identical for any segmentation of
    /// the same rows).  Errors when either sibling side is empty and the
    /// aggregate undefined there.
    pub fn delta_store(&self, store: &SegmentedDataset) -> Result<f64> {
        self.delta_store_opt(store)?
            .ok_or_else(|| DataError::EmptyAggregate {
                aggregate: "WHY-QUERY",
                attribute: self.measure.clone(),
            })
    }

    /// Like [`WhyQuery::delta_store`] but returns `None` when one side is
    /// empty and the aggregate is undefined there.
    fn delta_store_opt(&self, store: &SegmentedDataset) -> Result<Option<f64>> {
        let a1 = store.aggregate_subspace(&self.measure, self.aggregate, &self.s1)?;
        let a2 = store.aggregate_subspace(&self.measure, self.aggregate, &self.s2)?;
        Ok(match (a1, a2) {
            (Some(x), Some(y)) => Some(x - y),
            _ => None,
        })
    }

    /// [`WhyQuery::oriented`] over a segmented store: swaps `s1`/`s2` when
    /// necessary so that `Δ(D) ≥ 0`.
    pub fn oriented_store(&self, store: &SegmentedDataset) -> Result<WhyQuery> {
        if self.delta_store(store)? >= 0.0 {
            Ok(self.clone())
        } else {
            Ok(self.flipped())
        }
    }

    /// The aggregates `(x, y)` of `Δ(D) = x − y` from the sibling
    /// statistics `(a1, a2)` over the whole store
    /// (`SelectionCache::side_totals`); values and errors match
    /// [`WhyQuery::delta_store`].
    pub(crate) fn sibling_values(
        &self,
        a1: &MeasureStats,
        a2: &MeasureStats,
    ) -> Result<(f64, f64)> {
        match (a1.value(self.aggregate), a2.value(self.aggregate)) {
            (Some(x), Some(y)) => Ok((x, y)),
            _ => Err(DataError::EmptyAggregate {
                aggregate: "WHY-QUERY",
                attribute: self.measure.clone(),
            }),
        }
    }

    /// [`WhyQuery::oriented_store`] from the sibling aggregates `(x, y)`:
    /// the oriented query and its `Δ(D)`.  The flipped `Δ(D)` is computed
    /// as `y − x`, not as `−(x − y)`, so both parts are bit-identical to
    /// `oriented_store(..)?.delta_store(..)`, NaN sign included.
    pub(crate) fn oriented_on(&self, x: f64, y: f64) -> (WhyQuery, f64) {
        if WhyQuery::flips_on(x, y) {
            (self.flipped(), y - x)
        } else {
            (self.clone(), x - y)
        }
    }

    /// Whether [`WhyQuery::oriented_on`] swaps the siblings of a query with
    /// sibling aggregates `(x, y)`: when `x − y` is negative or NaN.
    pub(crate) fn flips_on(x: f64, y: f64) -> bool {
        let delta = x - y;
        delta < 0.0 || delta.is_nan()
    }

    /// The sibling-swapped query (`s1 ↔ s2`, foreground values swapped).
    fn flipped(&self) -> WhyQuery {
        let mut flipped = self.clone();
        std::mem::swap(&mut flipped.s1, &mut flipped.s2);
        flipped.foreground_values = (
            flipped.foreground_values.1.clone(),
            flipped.foreground_values.0.clone(),
        );
        flipped
    }
}

/// A subspace as a JSON array of `[attribute, value]` pairs.
fn subspace_to_json(subspace: &Subspace) -> Json {
    Json::Arr(
        subspace
            .filters()
            .iter()
            .map(|f| {
                Json::Arr(vec![
                    Json::Str(f.attribute().to_owned()),
                    Json::Str(f.value().to_owned()),
                ])
            })
            .collect(),
    )
}

fn subspace_from_json(doc: &Json) -> Result<Subspace> {
    let filters = doc
        .as_arr()?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr()?;
            if pair.len() != 2 {
                return Err(DataError::Serve(
                    "subspace filter needs [attribute, value]".into(),
                ));
            }
            Ok(Filter::equals(pair[0].as_str()?, pair[1].as_str()?))
        })
        .collect::<Result<Vec<_>>>()?;
    Subspace::new(filters)
}

impl std::fmt::Display for WhyQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Why is {}({}) in [{}] different from [{}]?",
            self.aggregate, self.measure, self.s1, self.s2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xplainer::{CompiledQuery, SelectionCache};
    use xinsight_data::{DatasetBuilder, Filter};

    fn data() -> Dataset {
        DatasetBuilder::new()
            .dimension("Location", ["A", "A", "A", "B", "B", "B"])
            .dimension("Smoking", ["Yes", "Yes", "No", "No", "No", "Yes"])
            .measure("LungCancer", [3.0, 3.0, 1.0, 1.0, 1.0, 3.0])
            .build()
            .unwrap()
    }

    fn query() -> WhyQuery {
        WhyQuery::new(
            "LungCancer",
            Aggregate::Avg,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap()
    }

    #[test]
    fn delta_matches_hand_computation() {
        let d = data();
        let q = query();
        // AVG(A) = 7/3, AVG(B) = 5/3, Δ = 2/3.
        assert!((q.delta(&d).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(q.foreground(), "Location");
        assert_eq!(q.foreground_values(), ("A", "B"));
        assert!(q.background().is_empty());
    }

    #[test]
    fn delta_over_restriction() {
        let d = data();
        let q = query();
        // Restricting to Smoking = Yes: AVG(A) = 3, AVG(B) = 3, Δ' = 0.
        let yes = Filter::equals("Smoking", "Yes").mask(&d).unwrap();
        assert!((q.delta_over(&d, &yes).unwrap()).abs() < 1e-12);
        // Restricting to Smoking = No: both sides average 1.
        let no = Filter::equals("Smoking", "No").mask(&d).unwrap();
        assert!((q.delta_over(&d, &no).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn empty_side_is_none() {
        let d = data();
        let q = query();
        let empty = RowMask::zeros(d.n_rows());
        assert_eq!(q.delta_over_opt(&d, &empty).unwrap(), None);
        assert!(q.delta_over(&d, &empty).is_err());
    }

    #[test]
    fn non_sibling_subspaces_rejected() {
        let err = WhyQuery::new(
            "LungCancer",
            Aggregate::Avg,
            Subspace::of("Location", "A"),
            Subspace::of("Smoking", "Yes"),
        )
        .unwrap_err();
        assert!(matches!(err, DataError::OverlappingSubspace(_)));
    }

    #[test]
    fn oriented_swaps_when_negative() {
        let d = data();
        let reversed = WhyQuery::new(
            "LungCancer",
            Aggregate::Avg,
            Subspace::of("Location", "B"),
            Subspace::of("Location", "A"),
        )
        .unwrap();
        assert!(reversed.delta(&d).unwrap() < 0.0);
        let fixed = reversed.oriented(&d).unwrap();
        assert!(fixed.delta(&d).unwrap() > 0.0);
        assert_eq!(fixed.foreground_values(), ("A", "B"));
    }

    #[test]
    fn store_deltas_match_monolithic_deltas_across_segmentations() {
        let d = data();
        let q = query();
        let mono = q.delta(&d).unwrap();
        let store = SegmentedDataset::from_dataset(d.clone());
        assert_eq!(q.delta_store(&store).unwrap().to_bits(), mono.to_bits());
        // Split the same rows across two segments: identical bits.
        let first = d
            .filter_rows(&RowMask::from_bools([true, true, true, true, false, false]))
            .unwrap();
        let rest = d
            .filter_rows(&RowMask::from_bools([
                false, false, false, false, true, true,
            ]))
            .unwrap();
        let split = SegmentedDataset::from_dataset(first).seal(&rest).unwrap();
        assert_eq!(q.delta_store(&split).unwrap().to_bits(), mono.to_bits());
        // Orientation over the store mirrors the dataset path.
        let reversed = WhyQuery::new(
            "LungCancer",
            Aggregate::Avg,
            Subspace::of("Location", "B"),
            Subspace::of("Location", "A"),
        )
        .unwrap();
        let fixed = reversed.oriented_store(&split).unwrap();
        assert!(fixed.delta_store(&split).unwrap() > 0.0);
        assert_eq!(fixed.foreground_values(), ("A", "B"));
        // Empty sides are None / an error, mirroring delta_over_opt.
        let ghost = WhyQuery::new(
            "LungCancer",
            Aggregate::Avg,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "Z"),
        )
        .unwrap();
        assert_eq!(ghost.delta_store_opt(&split).unwrap(), None);
        assert!(ghost.delta_store(&split).is_err());
    }

    #[test]
    fn cached_orientation_matches_the_store_oracle_bit_for_bit() {
        // Three segments; `P` and `Q` both hold `+∞`, so their SUM, AVG and
        // MAX differences are `∞ − ∞ = NaN` and orientation must flip the
        // way the oracle does, NaN sign included.
        let segment = |location: [&str; 4], values: [f64; 4]| {
            DatasetBuilder::new()
                .dimension("Location", location)
                .measure("M", values)
                .build()
                .unwrap()
        };
        let store = SegmentedDataset::from_dataset(segment(
            ["A", "B", "P", "Q"],
            [5.0, 1.0, f64::INFINITY, 2.0],
        ))
        .seal(&segment(
            ["A", "A", "B", "Q"],
            [-3.0, 7.5, 0.25, f64::INFINITY],
        ))
        .unwrap()
        .seal(&segment(["B", "A", "P", "B"], [4.0, 0.5, -1.0, -2.0]))
        .unwrap();
        assert_eq!(store.n_segments(), 3);
        let outcome = |result: Result<(WhyQuery, f64)>| match result {
            Ok((query, delta)) => Ok((query, delta.to_bits())),
            Err(e) => Err(e.to_string()),
        };
        let (mut flips, mut nans) = (0, 0);
        for aggregate in [
            Aggregate::Sum,
            Aggregate::Avg,
            Aggregate::Count,
            Aggregate::Min,
            Aggregate::Max,
        ] {
            // `Z` never occurs: an empty side, undefined for AVG/MIN/MAX.
            for (a, b) in [("A", "B"), ("B", "A"), ("P", "Q"), ("Q", "P"), ("A", "Z")] {
                let q = WhyQuery::new(
                    "M",
                    aggregate,
                    Subspace::of("Location", a),
                    Subspace::of("Location", b),
                )
                .unwrap();
                let oracle = q
                    .oriented_store(&store)
                    .and_then(|o| o.delta_store(&store).map(|d| (o, d)));
                let cache = SelectionCache::new();
                let cached = CompiledQuery::new(&store, &q, &cache).map(|compiled| {
                    let (x, y) = compiled.sibling_values();
                    q.oriented_on(x, y)
                });
                if let Ok((o, delta)) = &cached {
                    flips += usize::from(*o != q);
                    nans += usize::from(delta.is_nan());
                }
                assert_eq!(outcome(cached), outcome(oracle), "{aggregate:?} {a} vs {b}");
            }
        }
        assert!(flips >= 5, "both orientations must be exercised");
        assert!(nans > 0, "the NaN orientation must be exercised");
    }

    #[test]
    fn background_variables_reported() {
        let s1 = Subspace::new([
            Filter::equals("Location", "A"),
            Filter::equals("Smoking", "Yes"),
        ])
        .unwrap();
        let s2 = Subspace::new([
            Filter::equals("Location", "B"),
            Filter::equals("Smoking", "Yes"),
        ])
        .unwrap();
        let q = WhyQuery::new("LungCancer", Aggregate::Sum, s1, s2).unwrap();
        assert_eq!(q.background(), vec!["Smoking"]);
        assert_eq!(q.foreground(), "Location");
    }

    #[test]
    fn display_is_readable() {
        let q = query();
        let s = q.to_string();
        assert!(s.contains("AVG(LungCancer)"));
        assert!(s.contains("Location = A"));
    }

    #[test]
    fn json_round_trip_is_canonical() {
        let s1 = Subspace::new([
            Filter::equals("Smoking", "Yes"),
            Filter::equals("Location", "A"),
        ])
        .unwrap();
        let s2 = Subspace::new([
            Filter::equals("Location", "B"),
            Filter::equals("Smoking", "Yes"),
        ])
        .unwrap();
        let q = WhyQuery::new("LungCancer", Aggregate::Avg, s1, s2).unwrap();
        let json = q.to_json();
        // Filters appear sorted by attribute regardless of insertion order.
        assert_eq!(
            json,
            "{\"measure\":\"LungCancer\",\"aggregate\":\"AVG\",\
             \"s1\":[[\"Location\",\"A\"],[\"Smoking\",\"Yes\"]],\
             \"s2\":[[\"Location\",\"B\"],[\"Smoking\",\"Yes\"]]}"
        );
        let back = WhyQuery::from_json(&json).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn equal_queries_hash_equally() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |q: &WhyQuery| {
            let mut h = DefaultHasher::new();
            q.hash(&mut h);
            h.finish()
        };
        let a = query();
        let b = WhyQuery::from_json(&a.to_json()).unwrap();
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn wire_queries_are_validated() {
        // Not siblings: both filters differ.
        let bad = "{\"measure\":\"M\",\"aggregate\":\"AVG\",\
                    \"s1\":[[\"X\",\"a\"]],\"s2\":[[\"Y\",\"b\"]]}";
        assert!(WhyQuery::from_json(bad).is_err());
        // Unknown aggregate.
        let bad = "{\"measure\":\"M\",\"aggregate\":\"MEDIAN\",\
                    \"s1\":[[\"X\",\"a\"]],\"s2\":[[\"X\",\"b\"]]}";
        assert!(WhyQuery::from_json(bad).is_err());
        // Malformed filter pair.
        let bad = "{\"measure\":\"M\",\"aggregate\":\"AVG\",\
                    \"s1\":[[\"X\"]],\"s2\":[[\"X\",\"b\"]]}";
        assert!(WhyQuery::from_json(bad).is_err());
    }

    #[test]
    fn sum_aggregate_delta() {
        let d = data();
        let q = WhyQuery::new(
            "LungCancer",
            Aggregate::Sum,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap();
        assert!((q.delta(&d).unwrap() - 2.0).abs() < 1e-12);
    }
}
