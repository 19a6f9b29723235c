//! The shared selection/aggregation cache behind the online search engine,
//! keyed per segment of the store it serves.
//!
//! Every XPlainer strategy spends its time evaluating `Δ(D_P)` and
//! `Δ(D − D_P)` terms.  A predicate `P` is a disjunction of equality
//! filters on one attribute, and those filters select disjoint rows, so
//! every such term is a merge of **per-category** sufficient statistics of
//! the measure over a sibling subspace.  [`SelectionCache`] memoizes the
//! two building blocks of those statistics **per segment**:
//!
//! * **side masks** — one [`RowMask`] per `(segment, sibling subspace)`, in
//!   the segment's local row domain, behind `Arc` so concurrent searches
//!   share them.  Only a group-by miss (and the serving layer's suffix
//!   check) reads them;
//! * **group-bys** — per `(segment, measure, side, attribute)` one
//!   [`Groups`] entry: the mergeable [`MeasureStats`] of the side's rows
//!   for each global code of the attribute, plus one bucket for rows whose
//!   cell is null.  It is built in one pass over the side's rows and sized
//!   by the segment's own codes.  The side's total (`Δ(D)`'s two sides, see
//!   `SelectionCache::side_totals`) is the same entry over no attribute: a
//!   single bucket holding every side row.
//!
//! A [`super::SearchContext`] fetches its two sides' group-bys once, merges
//! them across segments in segment order, and answers every `Δ` probe from
//! that table; a probe never reaches the cache.
//!
//! **Keys are dense ids, not strings.**  Every key field is a small
//! integer: the segment's process-unique id and seal epoch, the measure and
//! the attribute as schema column indices, and a side as its subspace's
//! `(column, global dictionary code)` pairs in the subspace's canonical
//! filter order.  A subspace value missing from the dictionary selects no
//! rows, so all such values share one `ABSENT` code.  A side is a
//! [`SmallVec`] of such words: up to four filters inline, wider ones
//! spilled to the heap (and charged for it).
//! Nothing is interned: the id space is the store's own schema and
//! dictionary, so client input cannot grow a side table.  A request
//! resolves its query to ids once ([`QueryIds`]).
//!
//! Segment ids and seal epochs are immutable properties of a sealed segment
//! and dictionary codes are append-only, so an ingest — which only ever
//! *adds* segments in a new snapshot — invalidates nothing: the new segment
//! simply contributes additional keys, and every entry computed for older
//! segments keeps answering across epochs.  A cheap lineage latch
//! ([`SegmentedDataset::lineage`]) rejects reuse with a *different* store
//! outright.
//!
//! Merging [`MeasureStats`] uses exact summation
//! ([`xinsight_data::ExactSum`]), and min, max, rows and count are
//! order-free, so a merge over any partition of the same rows — by segment
//! or by category — is bit-identical to one pass over them: the invariant
//! the "segmented == monolithic" property tests pin down.
//!
//! The cache is written once and shared freely: all methods take `&self`,
//! interior state lives behind [`parking_lot::RwLock`] maps, and hit/miss
//! counters are atomic.  One instance serves a single
//! [`super::SearchContext`] (private), a whole query (cross-attribute reuse
//! in [`crate::pipeline::XInsight::execute`]) or a whole batch (cross-query
//! reuse in [`crate::pipeline::XInsight::execute_batch`]).
//!
//! **The byte budget.**  Each entry's size is exact — a fixed-size key and
//! slot plus the heap words of a wide key, of the group-by's buckets and
//! their exact-sum partials, or of a mask — and the cache holds at most
//! [`SelectionCache::budget`] bytes of them (a quarter for masks, the rest
//! for group-bys).  [`SelectionCache::new`] is unbounded, for scopes that
//! end on their own (a fresh cache per `execute_batch` call, the pipeline's
//! default); the serving layer's **per-model cache**, held across requests
//! *and across ingest*, is built with [`SelectionCache::with_budget`].
//! Holding it across ingest is legal because ingest preserves the store
//! lineage, so a post-ingest request replays every older segment's
//! group-bys and computes only the newly sealed segment.  An insert that
//! would overflow the budget first evicts by CLOCK: a hit sets the entry's
//! referenced bit with a relaxed store under the read lock, and the
//! eviction sweep (under the write lock the insert already holds) gives
//! referenced entries a second chance, clears their bit and evicts the rest
//! until the table is back under seven eighths of its budget, so sweeps are
//! rare.  Eviction never changes an answer — an evicted entry is
//! recomputed, bit-identically, on its next fetch — only hit/miss counters
//! and `Δ` evaluation counts.  The serving layer also replaces the cache
//! wholesale on model reload and on compaction (both produce
//! freshly-identified segments, so a stale cache would only hold dead
//! keys).

// HashMap here never leaks iteration order into output: mask/group-by memo
// tables behind the sanctioned fxhash alias; key-looked-up only, and the
// eviction sweep's visiting order only decides which entries are recomputed
// later, never an answer (see clippy.toml).  Fx is safe here because every
// key word is an id the store assigns (segment, column, dictionary code):
// no key carries client bytes to craft collisions from.
#![allow(clippy::disallowed_types)]

use fxhash::FxHashMap;
use parking_lot::RwLock;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use xinsight_data::{
    Column, DataError, DimensionColumn, MeasureStats, Result, RowMask, Segment, SegmentedDataset,
    Subspace,
};
use xinsight_stats::SmallVec;

/// Inline capacity of a side's word list: four filters.
const INLINE_WORDS: usize = 4;

/// The code a side filter carries when its value is missing from the global
/// dictionary.  No row ever holds it (real codes are dictionary indices and
/// missing cells hold `NULL_CODE`), so such a filter selects nothing.
const ABSENT: u32 = u32::MAX - 1;

/// The attribute of a side's total: a group-by over no column, whose one
/// bucket holds every side row.
const NO_ATTRIBUTE: u32 = u32::MAX;

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

/// A side's packed `(column, code)` filters, in the subspace's sorted
/// filter order (so equal sides have equal lists), inline up to
/// [`INLINE_WORDS`] words and spilled to the heap beyond.
type Ids = SmallVec<u64, INLINE_WORDS>;

/// A subspace's filters as `(column, global code)` words, in the
/// subspace's canonical (attribute-sorted) order.  Fails on an unknown
/// attribute or a measure, exactly like [`Subspace::mask`].
fn side_ids(store: &SegmentedDataset, subspace: &Subspace) -> Result<Ids> {
    subspace
        .filters()
        .iter()
        .map(|filter| {
            let code = store
                .global_code(filter.attribute(), filter.value())?
                .unwrap_or(ABSENT);
            let column = store.schema().index_of(filter.attribute())? as u64;
            Ok(column << 32 | u64::from(code))
        })
        .collect()
}

/// Key of one memoized side mask (scoped to a segment).
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
struct MaskKey {
    segment: SegmentId,
    side: Ids,
}

/// Key of one memoized per-segment group-by.  Only `segment` changes from
/// one segment's lookup to the next.
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
struct GroupKey {
    /// The segment the statistics were computed over.
    segment: SegmentId,
    /// The aggregated measure's column.
    measure: u32,
    /// The grouping column ([`NO_ATTRIBUTE`] for the side's total).
    attribute: u32,
    /// The sibling-subspace side whose rows are grouped.
    side: Ids,
}

/// One of the two sibling subspaces of a Why Query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    S1,
    S2,
}

/// A Why Query's measure and sibling sides resolved to the cache's ids
/// against one store — once per request, then shared by every attribute's
/// search context.
#[derive(Debug, Clone)]
pub(crate) struct QueryIds {
    measure: u32,
    s1: Ids,
    s2: Ids,
}

impl QueryIds {
    /// The same query with its sibling sides swapped.
    pub(crate) fn flipped(self) -> QueryIds {
        QueryIds {
            measure: self.measure,
            s1: self.s2,
            s2: self.s1,
        }
    }

    /// The group-by key of `side` on `attribute`, aimed at no segment yet.
    fn key(&self, side: Side, attribute: u32) -> GroupKey {
        let side = match side {
            Side::S1 => &self.s1,
            Side::S2 => &self.s2,
        };
        GroupKey {
            segment: SegmentId { id: 0, epoch: 0 },
            measure: self.measure,
            attribute,
            side: side.clone(),
        }
    }
}

/// A side's measure statistics grouped by one attribute: one bucket per
/// global code (`by_code[code]`) and one for rows whose cell is null.  The
/// categories of the attribute select disjoint rows, so `side ∩ clause` is
/// the merge of the clause's buckets and `side − clause` the merge of every
/// other bucket plus `null`.
#[derive(Debug)]
pub(crate) struct Groups {
    pub(crate) by_code: Vec<MeasureStats>,
    pub(crate) null: MeasureStats,
}

impl Groups {
    fn new(categories: usize) -> Groups {
        Groups {
            by_code: vec![MeasureStats::new(); categories],
            null: MeasureStats::new(),
        }
    }

    /// Merges `other`'s buckets into this one's, code by code.
    fn merge(&mut self, other: &Groups) {
        for (total, stats) in self.by_code.iter_mut().zip(&other.by_code) {
            total.merge(stats);
        }
        self.null.merge(&other.null);
    }

    fn heap_bytes(&self) -> usize {
        self.by_code.capacity() * size_of::<MeasureStats>()
            + self
                .by_code
                .iter()
                .map(MeasureStats::heap_bytes)
                .sum::<usize>()
            + self.null.heap_bytes()
    }
}

/// One resident entry: the value, its exact byte charge and the CLOCK
/// referenced bit.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    charge: usize,
    referenced: AtomicBool,
}

impl<V> Slot<V> {
    /// Marks the entry as recently used.  Called under the read lock; the
    /// load-first keeps a hot entry's cache line shared between readers.
    fn touch(&self) {
        // relaxed: the bit is an eviction hint; a lost or late store only
        // changes which entry a later sweep recomputes, never a value.
        if !self.referenced.load(Ordering::Relaxed) {
            self.referenced.store(true, Ordering::Relaxed); // relaxed: eviction hint, see above
        }
    }
}

/// The byte charge of one entry: the map's key/slot pair, one control byte
/// of the table, and the heap words the key and value own.
fn charge<K, V>(heap_bytes: usize) -> usize {
    size_of::<(K, Slot<V>)>() + 1 + heap_bytes
}

/// One memo table under a byte budget.
#[derive(Debug)]
struct Table<K, V> {
    state: RwLock<TableState<K, V>>,
    budget: usize,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct TableState<K, V> {
    map: FxHashMap<K, Slot<V>>,
    bytes: usize,
}

impl<K: Hash + Eq, V: Clone> Table<K, V> {
    fn new(budget: usize) -> Self {
        Table {
            state: RwLock::new(TableState {
                map: FxHashMap::default(),
                bytes: 0,
            }),
            budget,
            evictions: AtomicU64::new(0),
        }
    }

    fn len(&self) -> usize {
        self.state.read().map.len()
    }

    fn bytes(&self) -> usize {
        self.state.read().bytes
    }

    fn get(&self, key: &K) -> Option<V> {
        let state = self.state.read();
        let slot = state.map.get(key)?;
        slot.touch();
        Some(slot.value.clone())
    }

    /// Publishes a freshly computed `value` unless a racing writer got there
    /// first.  Returns the resident value and whether this call computed it
    /// (a miss): occupancy under the write lock decides, so each distinct
    /// key is counted as a miss exactly once.  A value whose charge exceeds
    /// the whole budget is returned without being kept.
    fn insert(&self, key: K, value: V, charge: usize) -> (V, bool) {
        let mut state = self.state.write();
        if let Some(slot) = state.map.get(&key) {
            slot.touch();
            return (slot.value.clone(), false);
        }
        if charge <= self.budget {
            if state.bytes.saturating_add(charge) > self.budget {
                self.make_room(&mut state, charge);
            }
            state.bytes += charge;
            let slot = Slot {
                value: value.clone(),
                charge,
                referenced: AtomicBool::new(false),
            };
            state.map.insert(key, slot);
        }
        (value, true)
    }

    /// The CLOCK sweep: evicts unreferenced entries and clears the bit of
    /// referenced ones until `charge` more bytes fit under seven eighths of
    /// the budget.  The second pass only runs when every entry visited was
    /// referenced, and finds all their bits cleared.
    fn make_room(&self, state: &mut TableState<K, V>, charge: usize) {
        let target = (self.budget - self.budget / 8).saturating_sub(charge);
        let TableState { map, bytes } = state;
        let mut evicted = 0u64;
        for _ in 0..2 {
            if *bytes <= target {
                break;
            }
            map.retain(|_, slot| {
                if *bytes <= target || std::mem::take(slot.referenced.get_mut()) {
                    return true;
                }
                *bytes -= slot.charge;
                evicted += 1;
                false
            });
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed); // relaxed: monotonic eviction counter
    }
}

/// Shared, thread-safe, byte-budgeted memoization of per-segment side
/// masks and group-bys (see the module docs for the design).
#[derive(Debug)]
pub struct SelectionCache {
    masks: Table<MaskKey, Arc<RowMask>>,
    groups: Table<GroupKey, Arc<Groups>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Lineage of the store this cache was first used with.  Entries are
    /// keyed by process-unique segment ids, so they could never *alias*
    /// across stores — the latch exists to fail loudly on the misuse
    /// (one cache per store) instead of silently giving zero hits.
    lineage: OnceLock<u64>,
}

impl Default for SelectionCache {
    fn default() -> Self {
        SelectionCache::new()
    }
}

impl SelectionCache {
    /// Creates an empty, unbounded cache, for a scope that ends on its own
    /// (one query or one batch).
    pub fn new() -> Self {
        SelectionCache::with_budget(usize::MAX)
    }

    /// Creates an empty cache holding at most `budget` bytes of entries: a
    /// quarter for side masks, the rest for group-bys.  An insert that would
    /// overflow its table evicts by CLOCK first (see the module docs).
    pub fn with_budget(budget: usize) -> Self {
        let masks = budget / 4;
        SelectionCache {
            masks: Table::new(masks),
            groups: Table::new(budget - masks),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            lineage: OnceLock::new(),
        }
    }

    /// Number of cache lookups (side masks + group-bys) answered from
    /// memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // relaxed: monotonic cache counter
    }

    /// Number of cache lookups that had to compute their entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // relaxed: monotonic cache counter
    }

    /// Bytes currently charged to resident entries (masks + group-bys);
    /// never above [`SelectionCache::budget`].
    pub fn bytes(&self) -> usize {
        self.masks.bytes() + self.groups.bytes()
    }

    /// The byte budget this cache was built with (`usize::MAX` when
    /// unbounded).
    pub fn budget(&self) -> usize {
        self.masks.budget.saturating_add(self.groups.budget)
    }

    /// Number of entries evicted to stay within the budget.
    pub fn evictions(&self) -> u64 {
        // relaxed: monotonic eviction counters
        self.masks.evictions.load(Ordering::Relaxed) + self.groups.evictions.load(Ordering::Relaxed)
        // relaxed: see above
    }

    /// A snapshot of the hit/miss counters and the total entry count
    /// (masks + group-bys) in the engine-wide
    /// [`CacheStats`](xinsight_stats::CacheStats) shape, for the serving
    /// layer's `/metrics` endpoint and the benches.
    pub fn stats(&self) -> xinsight_stats::CacheStats {
        xinsight_stats::CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.masks.len() + self.groups.len(),
        }
    }

    fn count(&self, fresh: bool) {
        let counter = if fresh { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
    }

    /// Checks that `store` is (a snapshot of) the store this cache serves,
    /// latching its lineage on first use.  Every epoch of one store is
    /// accepted — sealed segments are immutable, so entries computed in an
    /// older epoch remain exact in every later one; a different store is
    /// rejected.  Public entry points call this; the search path calls it
    /// once per request (through [`SelectionCache::compile`]) and then
    /// fetches by ids.
    fn ensure_store(&self, store: &SegmentedDataset) -> Result<()> {
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

    /// Resolves a Why Query's measure and sibling subspaces to ids against
    /// `store`, after checking the store against the lineage latch and
    /// validating the measure: every later fetch by these ids relies on
    /// both.
    pub(crate) fn compile(
        &self,
        store: &SegmentedDataset,
        measure: &str,
        s1: &Subspace,
        s2: &Subspace,
    ) -> Result<QueryIds> {
        self.ensure_store(store)?;
        store.check_measure(measure)?;
        Ok(QueryIds {
            measure: store.schema().index_of(measure)? as u32,
            s1: side_ids(store, s1)?,
            s2: side_ids(store, s2)?,
        })
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
        self.side_mask(segment, &side_ids(store, subspace)?)
    }

    /// The memoized mask of one side within one segment.
    fn side_mask(&self, segment: &Segment, side: &Ids) -> Result<Arc<RowMask>> {
        let key = MaskKey {
            segment: SegmentId::of(segment),
            side: side.clone(),
        };
        if let Some(mask) = self.masks.get(&key) {
            self.count(false);
            return Ok(mask);
        }
        let mask = Arc::new(side_mask_of(segment, side)?);
        let bytes = charge::<MaskKey, Arc<RowMask>>(
            key.side.heap_bytes()
                + size_of::<RowMask>()
                + 2 * size_of::<usize>()
                + mask.heap_bytes(),
        );
        let (mask, fresh) = self.masks.insert(key, mask, bytes);
        self.count(fresh);
        Ok(mask)
    }

    /// The two sides of `Δ(D)` for a compiled query: each side's group-by
    /// over no attribute, merged across segments in segment order.  The
    /// pipeline orients every query on these, so they are computed once per
    /// store segment and replayed by every later request.
    pub(crate) fn side_totals(
        &self,
        store: &SegmentedDataset,
        ids: &QueryIds,
    ) -> Result<(MeasureStats, MeasureStats)> {
        let (a, _) = self.merged_groups(store, ids, Side::S1, NO_ATTRIBUTE, 0)?;
        let (b, _) = self.merged_groups(store, ids, Side::S2, NO_ATTRIBUTE, 0)?;
        Ok((a.null, b.null))
    }

    /// The group-by of one side on the column `attribute` over every
    /// segment of `store`, merged bucket by bucket in segment order into
    /// `categories` code buckets (the attribute's global cardinality: every
    /// segment's codes lie below it) plus the null bucket, and the number
    /// of per-segment group-bys this call computed.
    pub(crate) fn merged_groups(
        &self,
        store: &SegmentedDataset,
        ids: &QueryIds,
        side: Side,
        attribute: u32,
        categories: usize,
    ) -> Result<(Groups, usize)> {
        let mut merged = Groups::new(categories);
        let mut key = ids.key(side, attribute);
        let mut computed = 0;
        for segment in store.segments() {
            key.segment = SegmentId::of(segment);
            let (groups, fresh) = self.group_by(segment, &key)?;
            merged.merge(&groups);
            computed += usize::from(fresh);
        }
        Ok((merged, computed))
    }

    /// One segment's group-by under `key` (whose `segment` is set), and
    /// whether this call computed it.
    fn group_by(&self, segment: &Segment, key: &GroupKey) -> Result<(Arc<Groups>, bool)> {
        if let Some(groups) = self.groups.get(key) {
            self.count(false);
            return Ok((groups, false));
        }
        let side = self.side_mask(segment, &key.side)?;
        let groups = compute_groups(segment, key, &side)?;
        let bytes = charge::<GroupKey, Arc<Groups>>(
            key.side.heap_bytes()
                + size_of::<Groups>()
                + 2 * size_of::<usize>()
                + groups.heap_bytes(),
        );
        let (groups, fresh) = self.groups.insert(key.clone(), Arc::new(groups), bytes);
        self.count(fresh);
        Ok((groups, fresh))
    }
}

/// A dimension column of one segment, by schema index.
fn dimension_column(segment: &Segment, column: u32) -> Result<&DimensionColumn> {
    match segment.data().column(column as usize) {
        Column::Dimension(c) => Ok(c),
        Column::Measure(_) => Err(DataError::WrongKind {
            attribute: segment
                .data()
                .schema()
                .attribute(column as usize)
                .name
                .clone(),
            expected: "dimension",
        }),
    }
}

/// Evaluates a side's filters into a row mask over one segment (the
/// segment's codes are global codes, so a code compares directly).
fn side_mask_of(segment: &Segment, side: &Ids) -> Result<RowMask> {
    let mut mask = segment.all_rows();
    for &word in side.iter() {
        let code = word as u32;
        let codes = dimension_column(segment, (word >> 32) as u32)?.codes();
        mask = mask.and(&RowMask::from_bools(codes.iter().map(|&c| c == code)));
    }
    Ok(mask)
}

/// Groups the measure over the side's rows of one segment by the key's
/// attribute, in one pass: a row lands in its code's bucket, or in the null
/// bucket when its cell is null (`NULL_CODE` lies past every code) or the
/// key has no attribute.
fn compute_groups(segment: &Segment, key: &GroupKey, side: &RowMask) -> Result<Groups> {
    let data = segment.data();
    let Column::Measure(values) = data.column(key.measure as usize) else {
        return Err(DataError::WrongKind {
            attribute: data.schema().attribute(key.measure as usize).name.clone(),
            expected: "measure",
        });
    };
    let (codes, categories) = if key.attribute == NO_ATTRIBUTE {
        (&[][..], 0)
    } else {
        let column = dimension_column(segment, key.attribute)?;
        (column.codes(), column.categories().len())
    };
    let mut groups = Groups::new(categories);
    for i in side.iter_selected() {
        let stats = match codes
            .get(i)
            .and_then(|&code| groups.by_code.get_mut(code as usize))
        {
            Some(stats) => stats,
            None => &mut groups.null,
        };
        stats.add_rows(1);
        if let Some(v) = values.value(i) {
            stats.observe(v);
        }
    }
    Ok(groups)
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

    /// The group-by of `measure` over `side` on `attribute`, merged over
    /// every segment, as a search context fetches it, plus the number of
    /// per-segment group-bys computed.
    fn fetch(
        cache: &SelectionCache,
        store: &SegmentedDataset,
        measure: &str,
        side: &Subspace,
        attribute: &str,
    ) -> Result<(Groups, usize)> {
        let ids = cache.compile(store, measure, side, side)?;
        let column = store.schema().index_of(attribute)? as u32;
        let categories = store.cardinality(attribute)?;
        cache.merged_groups(store, &ids, Side::S1, column, categories)
    }

    /// The bucket of the `Y` category `value`.
    fn bucket<'g>(groups: &'g Groups, store: &SegmentedDataset, value: &str) -> &'g MeasureStats {
        &groups.by_code[store.global_code("Y", value).unwrap().unwrap() as usize]
    }

    fn a() -> Subspace {
        Subspace::of("X", "a")
    }

    #[test]
    fn side_masks_are_shared() {
        let store = data();
        let cache = SelectionCache::new();
        let m1 = cache.subspace_mask(&store, seg(&store), &a()).unwrap();
        let m2 = cache.subspace_mask(&store, seg(&store), &a()).unwrap();
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(m1.iter_selected().collect::<Vec<_>>(), vec![0, 1, 2]);
        let both = Subspace::new([Filter::equals("X", "b"), Filter::equals("Y", "q")]).unwrap();
        let mask = cache.subspace_mask(&store, seg(&store), &both).unwrap();
        assert_eq!(*mask, both.mask(seg(&store).data()).unwrap());
    }

    #[test]
    fn values_missing_from_the_dictionary_share_one_empty_side() {
        let store = data();
        let cache = SelectionCache::new();
        let ghost = cache
            .subspace_mask(&store, seg(&store), &Subspace::of("X", "zz"))
            .unwrap();
        assert!(ghost.is_none_selected());
        let other = cache
            .subspace_mask(&store, seg(&store), &Subspace::of("X", "yy"))
            .unwrap();
        assert!(Arc::ptr_eq(&ghost, &other), "absent values share one key");
        // Unknown attributes and measures fail as `Subspace::mask` does.
        for bad in [Subspace::of("Nope", "a"), Subspace::of("M", "a")] {
            assert_eq!(
                cache.subspace_mask(&store, seg(&store), &bad).unwrap_err(),
                bad.mask(seg(&store).data()).unwrap_err()
            );
        }
    }

    #[test]
    fn wide_sides_fall_back_to_a_boxed_word_list() {
        let store = SegmentedDataset::from_dataset(
            DatasetBuilder::new()
                .dimension("A", ["x", "x", "y"])
                .dimension("B", ["x", "x", "x"])
                .dimension("C", ["x", "x", "x"])
                .dimension("D", ["x", "x", "x"])
                .dimension("E", ["x", "y", "x"])
                .build()
                .unwrap(),
        );
        let filters = |n: usize| {
            Subspace::new(
                ["A", "B", "C", "D", "E"][..n]
                    .iter()
                    .map(|&c| Filter::equals(c, "x")),
            )
            .unwrap()
        };
        let narrow = side_ids(&store, &filters(4)).unwrap();
        assert!(!narrow.spilled() && narrow.len() == 4);
        assert_eq!(narrow.heap_bytes(), 0);
        let wide = side_ids(&store, &filters(5)).unwrap();
        assert!(wide.spilled() && wide.len() == 5);
        // The charge is the spilled allocation: exactly the five words.
        assert_eq!(wide.heap_bytes(), 5 * size_of::<u64>());
        let cache = SelectionCache::new();
        let mask = cache
            .subspace_mask(&store, seg(&store), &filters(5))
            .unwrap();
        assert_eq!(mask.iter_selected().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn partial_aggregates_match_direct_aggregation() {
        let store = data();
        let cache = SelectionCache::new();
        let (groups, computed) = fetch(&cache, &store, "M", &a(), "Y").unwrap();
        assert_eq!(computed, 1);
        assert_eq!(groups.by_code.len(), 3);
        let data = seg(&store).data();
        for value in ["p", "q", "r"] {
            let selected = a()
                .mask(data)
                .unwrap()
                .and(&Filter::equals("Y", value).mask(data).unwrap());
            let mut by_hand = seg(&store).measure_stats("M", &selected).unwrap();
            by_hand.add_rows(selected.count());
            assert_eq!(*bucket(&groups, &store, value), by_hand, "{value}");
        }
        // X = a ∩ Y = p is row 0 alone: M = 10.
        let p = bucket(&groups, &store, "p");
        assert_eq!((p.rows, p.count, p.sum()), (1, 1, 10.0));
        assert_eq!(p.value(Aggregate::Min), Some(10.0));
        assert_eq!(groups.null, MeasureStats::new());
    }

    #[test]
    fn clause_partial_is_the_union_of_its_filters() {
        let store = data();
        let cache = SelectionCache::new();
        let (groups, _) = fetch(&cache, &store, "M", &a(), "Y").unwrap();
        let mut merged = bucket(&groups, &store, "p").clone();
        merged.merge(bucket(&groups, &store, "q"));
        let data = seg(&store).data();
        let clause = Filter::equals("Y", "p")
            .mask(data)
            .unwrap()
            .or(&Filter::equals("Y", "q").mask(data).unwrap());
        let selected = a().mask(data).unwrap().and(&clause);
        let mut by_hand = seg(&store).measure_stats("M", &selected).unwrap();
        by_hand.add_rows(selected.count());
        assert_eq!(merged, by_hand);
    }

    #[test]
    fn clause_partials_build_no_masks() {
        let store = data();
        let cache = SelectionCache::new();
        let (groups, computed) = fetch(&cache, &store, "M", &a(), "Y").unwrap();
        assert_eq!(computed, 1);
        // A replay computes nothing and returns the same buckets.
        let (again, computed) = fetch(&cache, &store, "M", &a(), "Y").unwrap();
        assert_eq!(computed, 0);
        assert_eq!(again.by_code, groups.by_code);
        // Every clause is a merge of these buckets: only the side mask and
        // the one group-by are stored.
        assert_eq!((cache.masks.len(), cache.groups.len()), (1, 1));
    }

    #[test]
    fn empty_selection_semantics_mirror_aggregate_eval() {
        let store = data();
        let cache = SelectionCache::new();
        let (groups, _) = fetch(&cache, &store, "M", &a(), "Y").unwrap();
        // A merge of no bucket is empty…
        let none = MeasureStats::new();
        assert_eq!(none.rows, 0);
        assert_eq!(none.value(Aggregate::Sum), Some(0.0));
        assert_eq!(none.value(Aggregate::Count), Some(0.0));
        assert_eq!(none.value(Aggregate::Avg), None);
        assert_eq!(none.value(Aggregate::Min), None);
        // …and the merge of every bucket plus the null bucket is the side.
        let mut all = groups.null.clone();
        groups.by_code.iter().for_each(|stats| all.merge(stats));
        assert_eq!(all.rows, 3);
        assert_eq!(all.value(Aggregate::Sum), Some(15.0));
        // A side no row matches groups into empty buckets only.
        let (ghost, _) = fetch(&cache, &store, "M", &Subspace::of("X", "zz"), "Y").unwrap();
        assert!(ghost.by_code.iter().all(|stats| *stats == none));
        assert_eq!(ghost.null, none);
    }

    #[test]
    fn empty_clause_entry_is_shared_across_attributes() {
        let store = data();
        let cache = SelectionCache::new();
        let b = Subspace::of("X", "b");
        let ids = cache.compile(&store, "M", &b, &b).unwrap();
        let totals = cache.side_totals(&store, &ids).unwrap();
        let misses = cache.misses();
        // Grouping the side by two attributes adds one group-by each…
        fetch(&cache, &store, "M", &b, "Y").unwrap();
        fetch(&cache, &store, "M", &b, "X").unwrap();
        assert_eq!(cache.misses(), misses + 2);
        // …while the side's total is keyed attribute-free and replays.
        assert_eq!(cache.side_totals(&store, &ids).unwrap(), totals);
        assert_eq!(cache.misses(), misses + 2);
    }

    #[test]
    fn missing_measure_values_are_skipped() {
        let store = SegmentedDataset::from_dataset(
            DatasetBuilder::new()
                .dimension_column(
                    "Y",
                    xinsight_data::DimensionColumn::from_optional_values([
                        Some("p"),
                        None,
                        Some("p"),
                        None,
                    ]),
                )
                .measure_column(
                    "M",
                    xinsight_data::MeasureColumn::from_optional_values([
                        Some(4.0),
                        Some(1.0),
                        None,
                        None,
                    ]),
                )
                .build()
                .unwrap(),
        );
        let cache = SelectionCache::new();
        let (groups, _) = fetch(&cache, &store, "M", &Subspace::all(), "Y").unwrap();
        let p = bucket(&groups, &store, "p");
        assert_eq!((p.rows, p.count), (2, 1));
        assert_eq!(p.value(Aggregate::Avg), Some(4.0));
        assert_eq!((groups.null.rows, groups.null.count), (2, 1));
        assert_eq!(groups.null.sum(), 1.0);
    }

    #[test]
    fn unknown_measure_is_an_error() {
        let store = data();
        let cache = SelectionCache::new();
        assert!(fetch(&cache, &store, "nope", &a(), "Y").is_err());
        assert!(matches!(
            fetch(&cache, &store, "Y", &a(), "Y"),
            Err(DataError::WrongKind { .. })
        ));
    }

    #[test]
    fn sibling_stats_are_the_contexts_delta_d_entries() {
        let store = data();
        let cache = SelectionCache::new();
        let totals = |measure, s1, s2| {
            let ids = cache.compile(&store, measure, s1, s2)?;
            cache.side_totals(&store, &ids)
        };
        let (s1, s2) = (a(), Subspace::of("X", "b"));
        let (a, b) = totals("M", &s1, &s2).unwrap();
        assert_eq!((a.rows, a.sum(), b.rows, b.sum()), (3, 15.0, 3, 13.0));
        // A second request replays both totals, whichever way it is oriented.
        let misses = cache.misses();
        assert_eq!(totals("M", &s2, &s1).unwrap(), (b, a));
        assert_eq!(cache.misses(), misses);
        assert!(matches!(
            totals("X", &s1, &s2),
            Err(DataError::WrongKind { .. })
        ));
    }

    #[test]
    fn reuse_with_a_different_store_is_rejected_but_epochs_are_not() {
        let store = data();
        let cache = SelectionCache::new();
        cache.subspace_mask(&store, seg(&store), &a()).unwrap();
        // Another epoch of the *same* store is accepted, and the new segment
        // contributes fresh keys while old entries replay.
        let grown = store
            .append_rows(&[vec![Value::from("a"), Value::from("p"), Value::from(100.0)]])
            .unwrap();
        let hits_before = cache.hits();
        assert!(cache
            .subspace_mask(&grown, &grown.segments()[0], &a())
            .is_ok());
        assert_eq!(cache.hits(), hits_before + 1, "old segment entries replay");
        assert!(cache
            .subspace_mask(&grown, &grown.segments()[1], &a())
            .is_ok());
        assert_eq!(cache.masks.len(), 2, "new segment adds its own key");
        // A different store (even with identical contents) is rejected.
        let other = data();
        assert!(matches!(
            cache.subspace_mask(&other, &other.segments()[0], &a()),
            Err(DataError::DatasetMismatch(_))
        ));
    }

    #[test]
    fn a_warm_side_replays_every_segment_under_one_probe() {
        let store = data()
            .append_rows(&[vec![Value::from("a"), Value::from("q"), Value::from(4.0)]])
            .unwrap();
        let cache = SelectionCache::new();
        let (cold, computed) = fetch(&cache, &store, "M", &a(), "Y").unwrap();
        assert_eq!(computed, 2);
        let q = bucket(&cold, &store, "q");
        assert_eq!((q.rows, q.sum()), (2, 6.0));
        let hits = cache.hits();
        let (warm, computed) = fetch(&cache, &store, "M", &a(), "Y").unwrap();
        assert_eq!(computed, 0);
        assert_eq!(warm.by_code, cold.by_code);
        assert_eq!(cache.hits(), hits + 2, "one hit per segment");
        // A category first seen in a later segment gets a bucket there.
        let grown = store
            .append_rows(&[vec![Value::from("a"), Value::from("z"), Value::from(1.0)]])
            .unwrap();
        let misses = cache.misses();
        let (suffix, computed) = fetch(&cache, &grown, "M", &a(), "Y").unwrap();
        assert_eq!(computed, 1);
        assert_eq!(suffix.by_code.len(), 4);
        assert_eq!(bucket(&suffix, &grown, "z").sum(), 1.0);
        assert_eq!(bucket(&suffix, &grown, "q").rows, 2);
        // The new segment's side mask and group-by.
        assert_eq!(cache.misses(), misses + 2);
    }

    #[test]
    fn the_budget_bounds_bytes_and_evictions_keep_answers() {
        let store = data();
        let reference = SelectionCache::new();
        let one = {
            fetch(&reference, &store, "M", &a(), "Y").unwrap();
            reference.bytes()
        };
        assert!(one > 0);
        assert_eq!(reference.budget(), usize::MAX);
        // Room for a handful of group-bys: every fetch still answers exactly.
        let cache = SelectionCache::with_budget(4 * one);
        let sides = [
            a(),
            Subspace::of("X", "b"),
            Subspace::of("Y", "p"),
            Subspace::of("Y", "q"),
            Subspace::of("Y", "r"),
            Subspace::all(),
        ];
        for round in 0..3 {
            for side in &sides {
                for attribute in ["X", "Y"] {
                    let got = fetch(&cache, &store, "M", side, attribute).unwrap();
                    let want = fetch(&reference, &store, "M", side, attribute).unwrap();
                    assert_eq!(got.0.by_code, want.0.by_code, "round {round} {side:?}");
                    assert_eq!(got.0.null, want.0.null);
                    assert!(cache.bytes() <= cache.budget());
                }
            }
        }
        assert!(cache.evictions() > 0);
        assert_eq!(reference.evictions(), 0);
        // A budget below one entry keeps nothing and still answers.
        let tiny = SelectionCache::with_budget(1);
        for _ in 0..2 {
            let (groups, computed) = fetch(&tiny, &store, "M", &a(), "Y").unwrap();
            assert_eq!(computed, 1);
            assert_eq!(bucket(&groups, &store, "p").sum(), 10.0);
        }
        assert_eq!((tiny.bytes(), tiny.stats().entries), (0, 0));
    }

    #[test]
    fn referenced_entries_get_a_second_chance() {
        let table: Table<u32, u32> = Table::new(4 * charge::<u32, u32>(0));
        let bytes = charge::<u32, u32>(0);
        for key in 0..4 {
            assert_eq!(table.insert(key, key, bytes), (key, true));
        }
        assert_eq!(table.get(&0), Some(0));
        // Full: the insert sweeps, sparing the referenced key 0.
        table.insert(4, 4, bytes);
        assert_eq!(table.get(&0), Some(0));
        assert!(table.get(&4).is_some());
        assert!(table.bytes() <= table.budget);
        assert!(table.evictions.load(Ordering::Relaxed) >= 1);
    }
}
