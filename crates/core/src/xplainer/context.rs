//! Shared search state for the XPlainer strategies, spanning every segment
//! of the store.
//!
//! The strategies (`sum`, `avg`, `brute`) are segmentation-oblivious: they
//! probe `Δ(·)` terms through this context.  At build time the context
//! fetches its two sibling sides' per-segment group-bys on the attribute
//! from the [`SelectionCache`] and merges them, in segment order, into one
//! per-category table per side.  Every probe after that merges table
//! entries — the clause's categories, or every other category plus the
//! null bucket — and never touches the cache or a row again.  Merges are
//! exact, so the chosen explanation is bit-identical for any segmentation
//! of the same rows.

use super::cache::{Groups, QueryIds, SelectionCache, Side};
use super::XPlainerOptions;
use crate::why_query::WhyQuery;
use std::sync::Arc;
use xinsight_data::{MeasureStats, Predicate, Result, SegmentedDataset};

/// A Why Query compiled once against one store and cache: the measure and
/// both sibling sides as cache ids, plus the two sides of `Δ(D)` read
/// through the cache.  The pipeline compiles each request once and shares
/// the result with every attribute's [`SearchContext`].
#[derive(Debug, Clone)]
pub(crate) struct CompiledQuery {
    ids: QueryIds,
    x: f64,
    y: f64,
}

impl CompiledQuery {
    /// Compiles `query` and reads `Δ(D) = x − y` through `cache`.  This
    /// checks the store against the cache's lineage latch and validates the
    /// measure and both subspaces, so a foreign store or a missing/typo'd
    /// measure surfaces as an error here, not a panic deep in a worker.
    pub(crate) fn new(
        store: &SegmentedDataset,
        query: &WhyQuery,
        cache: &SelectionCache,
    ) -> Result<CompiledQuery> {
        let ids = cache.compile(store, query.measure(), query.s1(), query.s2())?;
        let (a, b) = cache.side_totals(store, &ids)?;
        let (x, y) = query.sibling_values(&a, &b)?;
        Ok(CompiledQuery { ids, x, y })
    }

    /// The two sibling aggregates `(x, y)` of `Δ(D) = x − y`.
    pub(crate) fn sibling_values(&self) -> (f64, f64) {
        (self.x, self.y)
    }

    /// The compiled form of the query [`WhyQuery::oriented_on`] its own
    /// `Δ(D)`: sides swapped exactly when the query is.
    pub(crate) fn oriented(self) -> CompiledQuery {
        if WhyQuery::flips_on(self.x, self.y) {
            CompiledQuery {
                ids: self.ids.flipped(),
                x: self.y,
                y: self.x,
            }
        } else {
            self
        }
    }
}

/// Precomputed per-attribute state shared by every search strategy: the
/// attribute's categories (borrowed from the store's *global* dictionary,
/// so categories that only appear in later segments are searchable),
/// `Δ(D)`, `ε` and `σ`, and both sibling sides grouped by the attribute.
///
/// Filter `i` is `attribute = categories[i]`, and `i` is that category's
/// global dictionary code, so it indexes the side tables directly.  The
/// tables are built from the [`SelectionCache`]'s per-segment group-bys,
/// which one attribute's context, one strategy or one query of a batch
/// computes and the others replay.  `Δ(D)` comes from the entries the
/// pipeline orients the query on, so it is computed once per query.  The
/// context is `Sync` and its probes only read its own tables, so the
/// strategies may fan their probe loops out over the shared rayon pool.
#[derive(Debug)]
pub struct SearchContext<'a> {
    store: &'a SegmentedDataset,
    query: &'a WhyQuery,
    attribute: String,
    categories: &'a [Arc<str>],
    delta_d: f64,
    epsilon: f64,
    sigma: f64,
    parallel: bool,
    /// The `s1` and `s2` sides grouped by the attribute, merged across
    /// segments in segment order.
    sides: [Groups; 2],
    /// Number of per-segment group-bys computed to build `sides`; replays
    /// from the cache are free and not counted.  The build is serial, so
    /// the count does not depend on the probes' scheduling.
    evaluations: usize,
    cache: Arc<SelectionCache>,
}

impl<'a> SearchContext<'a> {
    /// Builds the context for one attribute of interest with a private cache.
    pub fn build(
        store: &'a SegmentedDataset,
        query: &'a WhyQuery,
        attribute: &str,
        options: &XPlainerOptions,
    ) -> Result<Self> {
        Self::build_with_cache(
            store,
            query,
            attribute,
            options,
            Arc::new(SelectionCache::new()),
        )
    }

    /// Builds the context for one attribute of interest on a shared cache, so
    /// group-bys are reused across attributes, strategies and queries — and,
    /// because cache entries are keyed per immutable segment, across store
    /// *epochs* of one lineage: a context built after an ingest replays
    /// every older segment's group-bys from the cache and only computes the
    /// newly sealed segments (the serving layer's prefix-merge path hinges
    /// on exactly this behaviour).  Its `Δ(D)` is a replay of the
    /// pipeline's when both share the cache.
    pub fn build_with_cache(
        store: &'a SegmentedDataset,
        query: &'a WhyQuery,
        attribute: &str,
        options: &XPlainerOptions,
        cache: Arc<SelectionCache>,
    ) -> Result<Self> {
        let compiled = CompiledQuery::new(store, query, &cache)?;
        Self::build_compiled(store, query, attribute, options, cache, compiled)
    }

    /// Builds the context from a query compiled against `store` and
    /// `cache`: resolves the attribute and fetches both sides' group-bys.
    pub(crate) fn build_compiled(
        store: &'a SegmentedDataset,
        query: &'a WhyQuery,
        attribute: &str,
        options: &XPlainerOptions,
        cache: Arc<SelectionCache>,
        compiled: CompiledQuery,
    ) -> Result<Self> {
        let categories = store.categories(attribute)?;
        let column = store.schema().index_of(attribute)? as u32;
        let group =
            |side| cache.merged_groups(store, &compiled.ids, side, column, categories.len());
        let (s1, fresh_s1) = group(Side::S1)?;
        let (s2, fresh_s2) = group(Side::S2)?;
        let (x, y) = compiled.sibling_values();
        let delta_d = x - y;
        let m = categories.len().max(1);
        Ok(SearchContext {
            store,
            query,
            attribute: attribute.to_owned(),
            categories,
            delta_d,
            epsilon: options
                .epsilon
                .unwrap_or(options.epsilon_fraction * delta_d.abs()),
            sigma: options.sigma.unwrap_or(1.0 / m as f64),
            parallel: options.parallel,
            sides: [s1, s2],
            // Δ(D) is not a search step; it is not billed to the strategies.
            evaluations: fresh_s1 + fresh_s2,
            cache,
        })
    }

    /// Number of filters `m` on the attribute.
    pub fn m(&self) -> usize {
        self.categories.len()
    }

    /// The attribute of interest.
    pub fn attribute(&self) -> &str {
        &self.attribute
    }

    /// The store the context searches over.
    pub fn store(&self) -> &SegmentedDataset {
        self.store
    }

    /// `Δ(D)` over the full store.
    pub fn delta_d(&self) -> f64 {
        self.delta_d
    }

    /// The threshold `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The conciseness regulariser `σ`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The selection/aggregation cache the context's tables were built from.
    pub fn cache(&self) -> &Arc<SelectionCache> {
        &self.cache
    }

    /// Whether the strategies should fan their probe loops out over the
    /// thread pool.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Number of per-segment group-bys this context computed (cache
    /// replays are not counted).  Probes compute nothing.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Builds a [`Predicate`] from filter indices.
    pub fn predicate_of(&self, indices: &[usize]) -> Predicate {
        Predicate::new(
            &self.attribute,
            indices.iter().map(|&i| self.categories[i].to_string()),
        )
    }

    /// `Δ` over `side ∩ clause` (or `side − clause`), both sides, merged
    /// from the side tables.  The clause is the set of `indices`: a repeated
    /// index counts once, and one past the attribute's categories selects
    /// nothing.  `None` when one sibling side's aggregate is undefined.
    fn delta_clause(&self, indices: &[usize], complement: bool) -> Option<f64> {
        let mut in_clause = vec![false; self.m()];
        for &i in indices {
            if let Some(slot) = in_clause.get_mut(i) {
                *slot = true;
            }
        }
        let aggregate = self.query.aggregate();
        let [a, b] = self
            .sides
            .each_ref()
            .map(|groups| select(groups, &in_clause, complement).value(aggregate));
        Some(a? - b?)
    }

    /// `Δ(D_P)` where `P` is the disjunction of the given filters.
    /// Returns `None` when a sibling subspace is empty within `D_P`.
    pub fn delta_of(&self, indices: &[usize]) -> Option<f64> {
        self.delta_clause(indices, false)
    }

    /// `Δ(D − D_P)`: the difference after removing the rows matched by the
    /// given filters.  Returns `None` when a sibling subspace becomes empty.
    pub fn delta_without(&self, indices: &[usize]) -> Option<f64> {
        self.delta_clause(indices, true)
    }

    /// The paper's "`≤ ε`" check.  An undefined difference (one sibling
    /// subspace emptied entirely) does **not** count as explained away:
    /// wiping out one side of the comparison is a degenerate, uninformative
    /// "explanation" and is rejected.
    pub fn is_resolved(&self, delta: Option<f64>) -> bool {
        matches!(delta, Some(d) if d <= self.epsilon)
    }

    /// W-weight of a contingency `Γ` for an explanation `P` (Def. 3.5):
    /// `max((Δ(D − D_P) − Δ(D − D_P − D_Γ)) / Δ(D), 0)`.
    pub fn contingency_weight(&self, p: &[usize], gamma: &[usize]) -> f64 {
        let without_p = self.delta_without(p);
        let mut both: Vec<usize> = p.to_vec();
        both.extend_from_slice(gamma);
        let without_both = self.delta_without(&both);
        let a = without_p.unwrap_or(0.0);
        let b = without_both.unwrap_or(0.0);
        if self.delta_d.abs() < f64::EPSILON {
            return 0.0;
        }
        ((a - b) / self.delta_d).max(0.0)
    }
}

/// The statistics of one side over `side ∩ clause`, the merge of the
/// clause's buckets, or over `side − clause`, the merge of every other
/// bucket plus the null bucket (a null cell matches no filter).
fn select(groups: &Groups, in_clause: &[bool], complement: bool) -> MeasureStats {
    let mut stats = MeasureStats::new();
    for (bucket, &selected) in groups.by_code.iter().zip(in_clause) {
        if selected != complement {
            stats.merge(bucket);
        }
    }
    if complement {
        stats.merge(&groups.null);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{Aggregate, DatasetBuilder, Subspace, Value};

    fn fixture() -> (SegmentedDataset, WhyQuery) {
        let data = DatasetBuilder::new()
            .dimension("X", ["a", "a", "a", "b", "b", "b"])
            .dimension("Y", ["p", "q", "q", "p", "q", "q"])
            .measure("M", [10.0, 2.0, 2.0, 1.0, 1.0, 1.0])
            .build()
            .unwrap();
        let query = WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        (SegmentedDataset::from_dataset(data), query)
    }

    #[test]
    fn context_exposes_filters_and_delta() {
        let (store, query) = fixture();
        let ctx = SearchContext::build(&store, &query, "Y", &XPlainerOptions::default()).unwrap();
        assert_eq!(ctx.m(), 2);
        assert_eq!(ctx.attribute(), "Y");
        // Δ(D) = avg(a) − avg(b) = 14/3 − 1.
        assert!((ctx.delta_d() - (14.0 / 3.0 - 1.0)).abs() < 1e-12);
        assert!(ctx.epsilon() > 0.0);
        assert_eq!(ctx.sigma(), 0.5);
        assert_eq!(ctx.store().n_segments(), 1);
    }

    #[test]
    fn delta_of_and_without_track_subsets() {
        let (store, query) = fixture();
        let ctx = SearchContext::build(&store, &query, "Y", &XPlainerOptions::default()).unwrap();
        // A filter's index is its category's global dictionary code.
        let p_index = store.global_code("Y", "p").unwrap().unwrap() as usize;
        // Restricting to Y = p: avg(a) = 10, avg(b) = 1.
        assert!((ctx.delta_of(&[p_index]).unwrap() - 9.0).abs() < 1e-12);
        // Removing Y = p rows: avg(a) = 2, avg(b) = 1.
        assert!((ctx.delta_without(&[p_index]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(ctx.evaluations(), 2);
    }

    #[test]
    fn segmented_deltas_match_the_single_segment_case_exactly() {
        let (store, query) = fixture();
        // The same six rows split 2 / 3 / 1 across three segments.
        let flat = store.segments()[0].data().clone();
        let row = |i: usize| -> Vec<Value> {
            vec![
                flat.value(i, "X").unwrap(),
                flat.value(i, "Y").unwrap(),
                flat.value(i, "M").unwrap(),
            ]
        };
        let split = SegmentedDataset::from_dataset(
            DatasetBuilder::new()
                .dimension("X", ["a", "a"])
                .dimension("Y", ["p", "q"])
                .measure("M", [10.0, 2.0])
                .build()
                .unwrap(),
        )
        .append_rows(&[row(2), row(3), row(4)])
        .unwrap()
        .append_rows(&[row(5)])
        .unwrap();
        assert_eq!(split.n_segments(), 3);
        let mono = SearchContext::build(&store, &query, "Y", &XPlainerOptions::default()).unwrap();
        let seg = SearchContext::build(&split, &query, "Y", &XPlainerOptions::default()).unwrap();
        assert_eq!(mono.delta_d().to_bits(), seg.delta_d().to_bits());
        for indices in [vec![0usize], vec![1], vec![0, 1]] {
            assert_eq!(
                mono.delta_of(&indices).map(f64::to_bits),
                seg.delta_of(&indices).map(f64::to_bits)
            );
            assert_eq!(
                mono.delta_without(&indices).map(f64::to_bits),
                seg.delta_without(&indices).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn filters_cover_categories_first_seen_in_later_segments() {
        let (store, query) = fixture();
        let grown = store
            .append_rows(&[vec![Value::from("a"), Value::from("z"), Value::from(50.0)]])
            .unwrap();
        let ctx = SearchContext::build(&grown, &query, "Y", &XPlainerOptions::default()).unwrap();
        assert_eq!(ctx.m(), 3, "the new category `z` must be searchable");
        let z = grown.global_code("Y", "z").unwrap().unwrap() as usize;
        // Y = z only selects the appended row (side a): avg(a) = 50, b empty.
        assert_eq!(ctx.delta_of(&[z]), None);
        // Removing it restores the original six rows.
        assert!((ctx.delta_without(&[z]).unwrap() - (14.0 / 3.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn cached_replays_are_not_billed_as_evaluations() {
        let (store, query) = fixture();
        let ctx = SearchContext::build(&store, &query, "Y", &XPlainerOptions::default()).unwrap();
        // One group-by per side, computed at build time.
        assert_eq!(ctx.evaluations(), 2);
        let first = ctx.delta_of(&[0]);
        let replay = ctx.delta_of(&[0]);
        assert_eq!(first, replay);
        let _ = ctx.delta_without(&[0, 1]);
        assert_eq!(
            ctx.evaluations(),
            2,
            "a probe merges table entries and computes nothing"
        );
    }

    #[test]
    fn clause_indices_have_set_semantics() {
        let (store, query) = fixture();
        let ctx = SearchContext::build(&store, &query, "Y", &XPlainerOptions::default()).unwrap();
        let bits = |delta: Option<f64>| delta.map(f64::to_bits);
        for i in 0..ctx.m() {
            // A repeated index counts once.
            assert_eq!(bits(ctx.delta_of(&[i, i])), bits(ctx.delta_of(&[i])));
            assert_eq!(
                bits(ctx.delta_without(&[i, i])),
                bits(ctx.delta_without(&[i]))
            );
            // An index past the attribute's categories selects nothing.
            assert_eq!(
                bits(ctx.delta_without(&[i, ctx.m() + 3])),
                bits(ctx.delta_without(&[i]))
            );
        }
        assert_eq!(bits(ctx.delta_of(&[1, 1, 0])), bits(ctx.delta_of(&[0, 1])));
        assert_eq!(bits(ctx.delta_of(&[ctx.m()])), bits(ctx.delta_of(&[])));
        assert_eq!(
            bits(ctx.delta_without(&[ctx.m(), 99])),
            bits(Some(ctx.delta_d()))
        );
    }

    #[test]
    fn sibling_contexts_share_the_cache() {
        let (store, query) = fixture();
        let cache = Arc::new(SelectionCache::new());
        let opts = XPlainerOptions::default();
        let ctx1 = SearchContext::build_with_cache(&store, &query, "Y", &opts, Arc::clone(&cache))
            .unwrap();
        let _ = ctx1.delta_of(&[0]);
        let spent = ctx1.evaluations();
        assert!(spent > 0);
        // A second context over the same attribute replays everything.
        let ctx2 = SearchContext::build_with_cache(&store, &query, "Y", &opts, Arc::clone(&cache))
            .unwrap();
        let _ = ctx2.delta_of(&[0]);
        assert_eq!(ctx2.evaluations(), 0);
        assert!(cache.hits() > 0);
    }

    #[test]
    fn removing_everything_is_not_a_valid_resolution() {
        let (store, query) = fixture();
        let ctx = SearchContext::build(&store, &query, "Y", &XPlainerOptions::default()).unwrap();
        let all: Vec<usize> = (0..ctx.m()).collect();
        assert_eq!(ctx.delta_without(&all), None);
        assert!(!ctx.is_resolved(None));
        assert!(!ctx.is_resolved(Some(ctx.delta_d())));
        assert!(ctx.is_resolved(Some(0.0)));
    }

    #[test]
    fn predicate_of_maps_indices_to_values() {
        let (store, query) = fixture();
        let ctx = SearchContext::build(&store, &query, "Y", &XPlainerOptions::default()).unwrap();
        let pred = ctx.predicate_of(&[0, 1]);
        assert_eq!(pred.len(), 2);
        assert_eq!(pred.attribute(), "Y");
    }

    #[test]
    fn explicit_epsilon_and_sigma_override_defaults() {
        let (store, query) = fixture();
        let opts = XPlainerOptions {
            epsilon: Some(0.25),
            sigma: Some(0.05),
            ..XPlainerOptions::default()
        };
        let ctx = SearchContext::build(&store, &query, "Y", &opts).unwrap();
        assert_eq!(ctx.epsilon(), 0.25);
        assert_eq!(ctx.sigma(), 0.05);
    }

    #[test]
    fn unknown_measure_errors_instead_of_panicking() {
        let (store, _) = fixture();
        let bad = WhyQuery::new(
            "NoSuchMeasure",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        assert!(SearchContext::build(&store, &bad, "Y", &XPlainerOptions::default()).is_err());
        // A dimension used as a measure is rejected the same way.
        let dim = WhyQuery::new(
            "Y",
            Aggregate::Avg,
            Subspace::of("X", "a"),
            Subspace::of("X", "b"),
        )
        .unwrap();
        assert!(SearchContext::build(&store, &dim, "Y", &XPlainerOptions::default()).is_err());
    }

    #[test]
    fn contingency_weight_is_nonnegative_fraction() {
        let (store, query) = fixture();
        let ctx = SearchContext::build(&store, &query, "Y", &XPlainerOptions::default()).unwrap();
        let w = ctx.contingency_weight(&[0], &[1]);
        assert!(w >= 0.0);
    }
}
