//! The shared selection/aggregation cache behind the online search engine,
//! keyed per segment of the store it serves.
//!
//! Every XPlainer strategy spends its time evaluating `Δ(D_P)` and
//! `Δ(D − D_P)` terms, each of which aggregates the measure over
//! *(sibling subspace mask) ∩ (predicate clause mask)* selections.  The same
//! building blocks recur constantly: the SUM path's per-filter masks are
//! re-probed by the AVG greedy rounds and by brute force, sibling-subspace
//! masks are shared by **every** clause of **every** attribute, and a batch
//! of Why Queries over the same store overlaps almost entirely.
//!
//! [`SelectionCache`] memoizes both layers **per segment**:
//!
//! * **masks** — one [`RowMask`] per `(segment, filter)`,
//!   `(segment, subspace)` and `(segment, clause)`, each in the segment's
//!   local row domain, stored behind `Arc` so concurrent searches share
//!   them;
//! * **partial aggregates** — per
//!   `(segment, side, measure, clause, complement)` the mergeable
//!   [`MeasureStats`] sufficient statistics, from which `Δ` under any
//!   aggregate is derived arithmetically *after* merging the per-segment
//!   partials in segment order.
//!
//! Keys carry the segment's process-unique id **and its seal epoch**.
//! Both are immutable properties of a sealed segment, so an ingest — which
//! only ever *adds* segments in a new snapshot — invalidates nothing:
//! the new segment simply contributes additional cache keys, and every
//! entry computed for older segments keeps answering across epochs.  A
//! cheap lineage latch ([`SegmentedDataset::lineage`]) rejects reuse with a
//! *different* store outright.
//!
//! Merging per-segment [`MeasureStats`] uses exact summation
//! ([`xinsight_data::ExactSum`]), so the merged aggregate is bit-identical
//! for any segmentation of the same rows — the invariant the
//! "segmented == monolithic" property tests pin down.
//!
//! The cache is written once and shared freely: all methods take `&self`,
//! interior state lives behind [`parking_lot::RwLock`] maps, and hit/miss
//! counters are atomic.  One instance serves a single
//! [`super::SearchContext`] (private, per-attribute reuse), a whole query
//! (cross-attribute reuse in
//! [`crate::pipeline::XInsight::execute`]) or a whole batch (cross-query
//! reuse in [`crate::pipeline::XInsight::execute_batch`]).  Besides the
//! contexts, the pipeline itself reads `Δ(D)` through the cache
//! ([`SelectionCache::sibling_stats`]) to orient each query, so `Δ(D)` is
//! computed once per store segment and replayed by every later request and
//! every attribute's context.
//!
//! Entries are never evicted: the cache grows with the number of *distinct*
//! `(segment, clause)` pairs probed, which is what turns repeated `Δ` terms
//! into replays.  For the optimized strategies that is O(m²) small entries
//! per attribute per segment; brute force probes O(2^m) clauses, bounded by
//! [`super::XPlainerOptions::max_brute_force_filters`] (the same knob that
//! bounds its running time).  Scope a cache to a bounded working set.  Two
//! scopes are in use today: a fresh cache per `execute_batch` call (the
//! pipeline's default), and the serving layer's **per-model cache** held
//! across requests *and across ingest* — legal because ingest preserves the
//! store lineage, so a post-ingest request replays every older segment's
//! partials and computes only the newly sealed segment: the "merge cached
//! prefix partials with fresh suffix partials" serve path.  The serving
//! layer bounds that long-lived scope by replacing the cache wholesale on
//! model reload and on compaction (both produce freshly-identified
//! segments, so a stale cache would only hold dead keys).

// HashMap here never leaks iteration order into output: mask/partial memo tables; key-looked-up only (see clippy.toml).
#![allow(clippy::disallowed_types)]

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use xinsight_data::{
    DataError, MeasureStats, Result, RowMask, Segment, SegmentedDataset, Subspace,
};

/// Clause masks are memoized up to this many filter values; larger unions are
/// built transiently instead.  Rationale: a partial aggregate is computed at
/// most once per (segment, side, clause, complement) key, so a clause mask is
/// needed only a handful of times ever — but brute force enumerates `2^m`
/// clauses, and retaining one mask per clause per segment in a never-evicted
/// cache would pin hundreds of MB on large datasets.  Short clauses (the ones
/// every strategy and attribute re-probes) stay shared; long tails stay
/// transient.
const MAX_CACHED_CLAUSE_VALUES: usize = 2;

/// The identity of one sealed segment: its process-unique id plus the epoch
/// it was sealed in.  Both never change for a sealed segment, so entries
/// under this key survive every later ingest.
#[derive(Debug, Clone, Copy, Hash, PartialEq, Eq)]
struct SegmentId {
    id: u64,
    epoch: u64,
}

impl SegmentId {
    fn of(segment: &Segment) -> SegmentId {
        SegmentId {
            id: segment.id(),
            epoch: segment.epoch(),
        }
    }
}

/// Key of one memoized row mask (scoped to a segment).
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
enum MaskKey {
    /// A single equality filter `attribute = value`.
    Filter { attribute: String, value: String },
    /// A subspace (conjunction), keyed by its canonical display form.
    Subspace(String),
    /// A predicate clause: disjunction of filters on one attribute, values
    /// sorted.
    Clause {
        attribute: String,
        values: Vec<String>,
    },
}

/// Key of one memoized per-segment partial aggregate.
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
struct PartialKey {
    /// The segment the statistics were computed over.
    segment: SegmentId,
    /// Canonical key of the sibling-subspace side the aggregate is scoped to.
    side: String,
    /// The aggregated measure.
    measure: String,
    /// Attribute the clause ranges over (empty for the empty clause, which
    /// references no attribute and is shared across attributes).
    attribute: String,
    /// Sorted, deduplicated clause values.
    values: Vec<String>,
    /// `false` → aggregate over `side ∩ clause`; `true` → over
    /// `side − clause` (the paper's `D − D_P` selections).
    complement: bool,
}

/// Shared, thread-safe memoization of per-segment filter/subspace/clause
/// masks and partial aggregates (see the module docs for the design).
#[derive(Debug, Default)]
pub struct SelectionCache {
    masks: RwLock<HashMap<(SegmentId, MaskKey), Arc<RowMask>>>,
    /// Per-segment partial aggregates behind `Arc`, so a warm-cache replay
    /// is a pointer copy rather than a clone of the exact-sum partials.
    partials: RwLock<HashMap<PartialKey, Arc<MeasureStats>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Lineage of the store this cache was first used with.  Entries are
    /// keyed by process-unique segment ids, so they could never *alias*
    /// across stores — the latch exists to fail loudly on the misuse
    /// (one cache per store) instead of silently giving zero hits.
    lineage: OnceLock<u64>,
}

impl SelectionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SelectionCache::default()
    }

    /// Number of cache lookups (masks + partial aggregates) answered from
    /// memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // relaxed: monotonic cache counter
    }

    /// Number of cache lookups that had to compute their entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // relaxed: monotonic cache counter
    }

    /// Number of distinct masks currently memoized.
    pub fn mask_entries(&self) -> usize {
        self.masks.read().len()
    }

    /// Number of distinct partial aggregates currently memoized.
    pub fn partial_entries(&self) -> usize {
        self.partials.read().len()
    }

    /// A snapshot of the hit/miss counters and the total entry count
    /// (masks + partial aggregates) in the engine-wide
    /// [`CacheStats`](xinsight_stats::CacheStats) shape, for the serving
    /// layer's `/metrics` endpoint and the benches.
    pub fn stats(&self) -> xinsight_stats::CacheStats {
        xinsight_stats::CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.mask_entries() + self.partial_entries(),
        }
    }

    /// Checks that `store` is (a snapshot of) the store this cache serves,
    /// latching its lineage on first use.  Every epoch of one store is
    /// accepted — sealed segments are immutable, so entries computed in an
    /// older epoch remain exact in every later one; a different store is
    /// rejected.  Public entry points call this; crate-internal hot paths
    /// call it once per search context (through
    /// [`SelectionCache::sibling_stats`]) and then use the `_trusted`
    /// variants.
    pub(super) fn ensure_store(&self, store: &SegmentedDataset) -> Result<()> {
        let lineage = store.lineage();
        let latched = *self.lineage.get_or_init(|| lineage);
        if latched == lineage {
            Ok(())
        } else {
            Err(DataError::DatasetMismatch(format!(
                "SelectionCache was built against store lineage {latched} but was queried \
                 with lineage {lineage}; use one cache per store (any epoch of it)"
            )))
        }
    }

    fn mask_or_insert(
        &self,
        key: (SegmentId, MaskKey),
        build: impl FnOnce() -> Result<RowMask>,
    ) -> Result<Arc<RowMask>> {
        if let Some(mask) = self.masks.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
            return Ok(Arc::clone(mask));
        }
        let mask = Arc::new(build()?);
        // A concurrent search may have raced us here; both compute the same
        // mask.  As with partial aggregates, occupancy under the write lock
        // decides who counts the miss, keeping counters deterministic.
        match self.masks.write().entry(key) {
            std::collections::hash_map::Entry::Occupied(existing) => {
                self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
                Ok(Arc::clone(existing.get()))
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
                Ok(Arc::clone(slot.insert(mask)))
            }
        }
    }

    /// The row mask of one equality filter `attribute = value` within one
    /// segment (segment-local row domain).
    pub fn filter_mask(
        &self,
        store: &SegmentedDataset,
        segment: &Segment,
        attribute: &str,
        value: &str,
    ) -> Result<Arc<RowMask>> {
        self.ensure_store(store)?;
        self.filter_mask_trusted(segment, attribute, value)
    }

    pub(super) fn filter_mask_trusted(
        &self,
        segment: &Segment,
        attribute: &str,
        value: &str,
    ) -> Result<Arc<RowMask>> {
        self.mask_or_insert(
            (
                SegmentId::of(segment),
                MaskKey::Filter {
                    attribute: attribute.to_owned(),
                    value: value.to_owned(),
                },
            ),
            || xinsight_data::Filter::equals(attribute, value).mask(segment.data()),
        )
    }

    /// The row mask of a subspace (conjunction of filters) within one
    /// segment.
    pub fn subspace_mask(
        &self,
        store: &SegmentedDataset,
        segment: &Segment,
        subspace: &Subspace,
    ) -> Result<Arc<RowMask>> {
        self.ensure_store(store)?;
        self.subspace_mask_trusted(segment, subspace)
    }

    pub(super) fn subspace_mask_trusted(
        &self,
        segment: &Segment,
        subspace: &Subspace,
    ) -> Result<Arc<RowMask>> {
        self.mask_or_insert(
            (
                SegmentId::of(segment),
                MaskKey::Subspace(subspace_key(subspace)),
            ),
            || subspace.mask(segment.data()),
        )
    }

    /// The row mask of a predicate clause — the union of the given filters
    /// on one attribute — within one segment.  `values` must be sorted and
    /// deduplicated (the caller's canonical clause form).  The empty clause
    /// selects no rows.
    ///
    /// Clauses up to `MAX_CACHED_CLAUSE_VALUES` values are memoized; larger
    /// unions are built transiently (see that constant's docs for why).
    pub fn clause_mask(
        &self,
        store: &SegmentedDataset,
        segment: &Segment,
        attribute: &str,
        values: &[String],
    ) -> Result<Arc<RowMask>> {
        self.ensure_store(store)?;
        self.clause_mask_trusted(segment, attribute, values)
    }

    fn clause_mask_trusted(
        &self,
        segment: &Segment,
        attribute: &str,
        values: &[String],
    ) -> Result<Arc<RowMask>> {
        if let [value] = values {
            // A single-filter clause *is* its filter mask; no second entry.
            return self.filter_mask_trusted(segment, attribute, value);
        }
        let build_union = || {
            let mut mask = RowMask::zeros(segment.n_rows());
            for value in values {
                let filter = self.filter_mask_trusted(segment, attribute, value)?;
                mask = mask.or(&filter);
            }
            Ok(mask)
        };
        if values.len() > MAX_CACHED_CLAUSE_VALUES {
            return Ok(Arc::new(build_union()?));
        }
        self.mask_or_insert(
            (
                SegmentId::of(segment),
                MaskKey::Clause {
                    attribute: attribute.to_owned(),
                    values: values.to_vec(),
                },
            ),
            build_union,
        )
    }

    /// The partial aggregate of `measure` over `side ∩ clause`
    /// (or `side − clause` when `complement` is set) within one segment,
    /// memoized.  Callers merge the per-segment statistics in segment order
    /// — a bit-exact operation thanks to [`MeasureStats`]'s exact sum.
    ///
    /// Returns the (shared) statistics and whether they were freshly
    /// computed (`true` on a cache miss) — the search context uses the flag
    /// to count actual `Δ(·)` evaluations as opposed to cache replays.
    #[allow(clippy::too_many_arguments)]
    pub fn partial_agg(
        &self,
        store: &SegmentedDataset,
        segment: &Segment,
        measure: &str,
        side_key: &str,
        side: &RowMask,
        attribute: &str,
        values: &[String],
        complement: bool,
    ) -> Result<(Arc<MeasureStats>, bool)> {
        self.ensure_store(store)?;
        self.partial_agg_trusted(
            segment,
            measure,
            side_key,
            || Ok(side),
            attribute,
            values,
            complement,
        )
    }

    /// The statistics of `measure` over the sibling subspaces `s1` and `s2`
    /// of the whole store, each merged across segments in segment order:
    /// the two sides of `Δ(D)`.
    ///
    /// Per segment each side is the empty clause's complement partial under
    /// the subspace's side key, which is exactly the entry every
    /// [`super::SearchContext`] probes for its own `Δ(D)`.  So the pipeline
    /// (which orients the query on `Δ(D)`) and every context built for the
    /// query replay one set of entries instead of rescanning the store.  A
    /// replay touches no mask; a miss fetches the side's memoized subspace
    /// mask and computes the partial.
    pub fn sibling_stats(
        &self,
        store: &SegmentedDataset,
        measure: &str,
        s1: &Subspace,
        s2: &Subspace,
    ) -> Result<(MeasureStats, MeasureStats)> {
        self.ensure_store(store)?;
        store.check_measure(measure)?;
        let full_side = |subspace: &Subspace| -> Result<MeasureStats> {
            let side_key = subspace_key(subspace);
            let mut merged = MeasureStats::new();
            for segment in store.segments() {
                let (stats, _) = self.partial_agg_trusted(
                    segment,
                    measure,
                    &side_key,
                    || self.subspace_mask_trusted(segment, subspace),
                    "",
                    &[],
                    true,
                )?;
                merged.merge(&stats);
            }
            Ok(merged)
        };
        Ok((full_side(s1)?, full_side(s2)?))
    }

    /// [`SelectionCache::partial_agg`] without the per-call store check —
    /// for hot-path callers (the search context) that validated the store
    /// once at construction and hold it for their whole lifetime.  The side
    /// mask is only asked for on a miss.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn partial_agg_trusted<M: std::ops::Deref<Target = RowMask>>(
        &self,
        segment: &Segment,
        measure: &str,
        side_key: &str,
        side: impl FnOnce() -> Result<M>,
        attribute: &str,
        values: &[String],
        complement: bool,
    ) -> Result<(Arc<MeasureStats>, bool)> {
        let key = PartialKey {
            segment: SegmentId::of(segment),
            side: side_key.to_owned(),
            measure: measure.to_owned(),
            // The empty clause selects nothing regardless of attribute; key it
            // attribute-free so e.g. Δ(D) probes are shared across attributes.
            attribute: if values.is_empty() {
                String::new()
            } else {
                attribute.to_owned()
            },
            values: values.to_vec(),
            complement,
        };
        if let Some(stats) = self.partials.read().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
            return Ok((Arc::clone(stats), false));
        }
        let side = side()?;
        let clause = self.clause_mask_trusted(segment, attribute, values)?;
        let stats = Arc::new(compute_partial(
            segment, measure, &side, &clause, complement,
        )?);
        // Freshness is decided by entry occupancy under the write lock: when
        // two workers race on the same key, both compute (same inputs → same
        // stats) but exactly one reports `fresh = true`, so each distinct key
        // is counted as a miss exactly once.  (A caller aggregating over the
        // per-side, per-segment keys of one Δ term can still attribute a racy
        // term to two workers — see `SearchContext::evaluations`.)
        match self.partials.write().entry(key) {
            std::collections::hash_map::Entry::Occupied(existing) => {
                self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
                Ok((Arc::clone(existing.get()), false))
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                self.misses.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
                slot.insert(Arc::clone(&stats));
                Ok((stats, true))
            }
        }
    }
}

/// Canonical cache key of a subspace: its sorted `attr = value` display form.
fn subspace_key(subspace: &Subspace) -> String {
    subspace.to_string()
}

/// Aggregates `measure` over `side ∩ clause` (or `side − clause`) within one
/// segment using the word-parallel mask primitives; no intermediate mask is
/// materialized.
fn compute_partial(
    segment: &Segment,
    measure: &str,
    side: &RowMask,
    clause: &RowMask,
    complement: bool,
) -> Result<MeasureStats> {
    let column = segment.data().measure(measure)?;
    // Popcount-only emptiness probe: selections that wipe out a side (the
    // common case deep in the greedy/brute loops) never touch the column.
    let rows = if complement {
        side.and_not_count(clause)
    } else {
        side.intersect_count(clause)
    };
    let mut stats = MeasureStats::new();
    if rows == 0 {
        return Ok(stats);
    }
    stats.add_rows(rows);
    let (mut kept, mut removed);
    let selected: &mut dyn Iterator<Item = usize> = if complement {
        removed = side.iter_and_not(clause);
        &mut removed
    } else {
        kept = side.iter_and(clause);
        &mut kept
    };
    for i in selected {
        if let Some(v) = column.value(i) {
            stats.observe(v);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{Aggregate, DatasetBuilder, Filter, Value};

    fn data() -> SegmentedDataset {
        SegmentedDataset::from_dataset(
            DatasetBuilder::new()
                .dimension("X", ["a", "a", "a", "b", "b", "b"])
                .dimension("Y", ["p", "q", "r", "p", "q", "r"])
                .measure("M", [10.0, 2.0, 3.0, 1.0, 5.0, 7.0])
                .build()
                .unwrap(),
        )
    }

    fn seg(store: &SegmentedDataset) -> &Segment {
        &store.segments()[0]
    }

    #[test]
    fn filter_masks_are_shared() {
        let store = data();
        let cache = SelectionCache::new();
        let m1 = cache.filter_mask(&store, seg(&store), "Y", "p").unwrap();
        let m2 = cache.filter_mask(&store, seg(&store), "Y", "p").unwrap();
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(m1.iter_selected().collect::<Vec<_>>(), vec![0, 3]);
    }

    #[test]
    fn clause_mask_is_union_of_filters() {
        let store = data();
        let cache = SelectionCache::new();
        let values = vec!["p".to_owned(), "q".to_owned()];
        let clause = cache
            .clause_mask(&store, seg(&store), "Y", &values)
            .unwrap();
        let by_hand = Filter::equals("Y", "p")
            .mask(seg(&store).data())
            .unwrap()
            .or(&Filter::equals("Y", "q").mask(seg(&store).data()).unwrap());
        assert_eq!(*clause, by_hand);
        // Single-value clauses alias the filter-mask entry.
        let single = cache
            .clause_mask(&store, seg(&store), "Y", &["r".to_owned()])
            .unwrap();
        let filter = cache.filter_mask(&store, seg(&store), "Y", "r").unwrap();
        assert!(Arc::ptr_eq(&single, &filter));
    }

    #[test]
    fn partial_aggregates_match_direct_aggregation() {
        let store = data();
        let cache = SelectionCache::new();
        let side = Filter::equals("X", "a").mask(seg(&store).data()).unwrap();
        let values = vec!["p".to_owned(), "q".to_owned()];
        let (stats, fresh) = cache
            .partial_agg(
                &store,
                seg(&store),
                "M",
                "X = a",
                &side,
                "Y",
                &values,
                false,
            )
            .unwrap();
        assert!(fresh);
        // X = a ∩ Y ∈ {p, q} selects rows 0 and 1: M = 10, 2.
        assert_eq!(stats.rows, 2);
        assert_eq!(stats.count, 2);
        assert_eq!(stats.sum(), 12.0);
        assert_eq!(stats.value(Aggregate::Avg), Some(6.0));
        assert_eq!(stats.value(Aggregate::Min), Some(2.0));
        assert_eq!(stats.value(Aggregate::Max), Some(10.0));
        assert_eq!(stats.value(Aggregate::Count), Some(2.0));
        // Complement: X = a − Y ∈ {p, q} selects row 2 only.
        let (rest, _) = cache
            .partial_agg(&store, seg(&store), "M", "X = a", &side, "Y", &values, true)
            .unwrap();
        assert_eq!(rest.rows, 1);
        assert_eq!(rest.value(Aggregate::Sum), Some(3.0));
        // Replay hits the cache.
        let (again, fresh) = cache
            .partial_agg(
                &store,
                seg(&store),
                "M",
                "X = a",
                &side,
                "Y",
                &values,
                false,
            )
            .unwrap();
        assert!(!fresh);
        assert_eq!(again, stats);
    }

    #[test]
    fn empty_selection_semantics_mirror_aggregate_eval() {
        let store = data();
        let cache = SelectionCache::new();
        let side = Filter::equals("X", "a").mask(seg(&store).data()).unwrap();
        // The empty clause intersected with anything is empty…
        let (none, _) = cache
            .partial_agg(&store, seg(&store), "M", "X = a", &side, "Y", &[], false)
            .unwrap();
        assert_eq!(none.rows, 0);
        assert_eq!(none.value(Aggregate::Sum), Some(0.0));
        assert_eq!(none.value(Aggregate::Count), Some(0.0));
        assert_eq!(none.value(Aggregate::Avg), None);
        assert_eq!(none.value(Aggregate::Min), None);
        // …and its complement is the side itself.
        let (all, _) = cache
            .partial_agg(&store, seg(&store), "M", "X = a", &side, "Y", &[], true)
            .unwrap();
        assert_eq!(all.rows, 3);
        assert_eq!(all.value(Aggregate::Sum), Some(15.0));
    }

    #[test]
    fn empty_clause_entry_is_shared_across_attributes() {
        let store = data();
        let cache = SelectionCache::new();
        let side = Filter::equals("X", "b").mask(seg(&store).data()).unwrap();
        let (_, fresh_y) = cache
            .partial_agg(&store, seg(&store), "M", "X = b", &side, "Y", &[], true)
            .unwrap();
        let (_, fresh_x) = cache
            .partial_agg(&store, seg(&store), "M", "X = b", &side, "X", &[], true)
            .unwrap();
        assert!(fresh_y);
        assert!(!fresh_x, "empty clause must be keyed attribute-free");
    }

    #[test]
    fn missing_measure_values_are_skipped() {
        let store = SegmentedDataset::from_dataset(
            DatasetBuilder::new()
                .dimension("X", ["a", "a", "a"])
                .measure_column(
                    "M",
                    xinsight_data::MeasureColumn::from_optional_values([
                        Some(4.0),
                        None,
                        Some(6.0),
                    ]),
                )
                .build()
                .unwrap(),
        );
        let cache = SelectionCache::new();
        let side = store.segments()[0].all_rows();
        let (stats, _) = cache
            .partial_agg(
                &store,
                &store.segments()[0],
                "M",
                "all",
                &side,
                "",
                &[],
                true,
            )
            .unwrap();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.count, 2);
        assert_eq!(stats.value(Aggregate::Avg), Some(5.0));
    }

    #[test]
    fn unknown_measure_is_an_error() {
        let store = data();
        let cache = SelectionCache::new();
        let side = seg(&store).all_rows();
        assert!(cache
            .partial_agg(&store, seg(&store), "nope", "all", &side, "Y", &[], false)
            .is_err());
    }

    #[test]
    fn sibling_stats_are_the_contexts_delta_d_entries() {
        let store = data();
        let cache = SelectionCache::new();
        let (s1, s2) = (Subspace::of("X", "a"), Subspace::of("X", "b"));
        let (a, b) = cache.sibling_stats(&store, "M", &s1, &s2).unwrap();
        assert_eq!((a.sum(), b.sum()), (15.0, 13.0));
        // A context's Δ(D) probe (empty clause, complement) replays them.
        let misses = cache.misses();
        let side = cache.subspace_mask(&store, seg(&store), &s1).unwrap();
        let (stats, fresh) = cache
            .partial_agg(
                &store,
                seg(&store),
                "M",
                &s1.to_string(),
                &side,
                "Y",
                &[],
                true,
            )
            .unwrap();
        assert!(!fresh);
        assert_eq!(*stats, a);
        assert_eq!(cache.misses(), misses);
        assert!(matches!(
            cache.sibling_stats(&store, "X", &s1, &s2),
            Err(DataError::WrongKind { .. })
        ));
    }

    #[test]
    fn reuse_with_a_different_store_is_rejected_but_epochs_are_not() {
        let store = data();
        let cache = SelectionCache::new();
        cache.filter_mask(&store, seg(&store), "Y", "p").unwrap();
        // Another epoch of the *same* store is accepted, and the new segment
        // contributes fresh keys while old entries replay.
        let grown = store
            .append_rows(&[vec![Value::from("a"), Value::from("p"), Value::from(100.0)]])
            .unwrap();
        let hits_before = cache.hits();
        assert!(cache
            .filter_mask(&grown, &grown.segments()[0], "Y", "p")
            .is_ok());
        assert_eq!(cache.hits(), hits_before + 1, "old segment entries replay");
        assert!(cache
            .filter_mask(&grown, &grown.segments()[1], "Y", "p")
            .is_ok());
        assert_eq!(cache.mask_entries(), 2, "new segment adds its own key");
        // A different store (even with identical contents) is rejected.
        let other = data();
        assert!(matches!(
            cache.filter_mask(&other, &other.segments()[0], "Y", "p"),
            Err(DataError::DatasetMismatch(_))
        ));
    }

    #[test]
    fn long_clauses_are_not_retained_in_the_mask_layer() {
        let store = data();
        let cache = SelectionCache::new();
        let side = Filter::equals("X", "a").mask(seg(&store).data()).unwrap();
        // A 3-value clause (> MAX_CACHED_CLAUSE_VALUES): its union mask must
        // be transient, while its partial aggregate is still memoized.
        let long: Vec<String> = ["p", "q", "r"].iter().map(|s| s.to_string()).collect();
        let (_, fresh) = cache
            .partial_agg(&store, seg(&store), "M", "X = a", &side, "Y", &long, false)
            .unwrap();
        assert!(fresh);
        let masks_after_long = cache.mask_entries();
        let (_, replay) = cache
            .partial_agg(&store, seg(&store), "M", "X = a", &side, "Y", &long, false)
            .unwrap();
        assert!(!replay, "partial aggregates of long clauses are memoized");
        assert_eq!(
            cache.mask_entries(),
            masks_after_long,
            "long clause unions must not accumulate in the mask layer"
        );
        // Only the three constituent filter masks were stored, no 3-value
        // clause entry.
        assert_eq!(masks_after_long, 3);
        // A 2-value clause is still shared.
        let short: Vec<String> = ["p", "q"].iter().map(|s| s.to_string()).collect();
        let first = cache.clause_mask(&store, seg(&store), "Y", &short).unwrap();
        let second = cache.clause_mask(&store, seg(&store), "Y", &short).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
    }
}
