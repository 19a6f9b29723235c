//! The shared selection/aggregation cache behind the online search engine,
//! keyed per segment of the store it serves.
//!
//! Every XPlainer strategy spends its time evaluating `Δ(D_P)` and
//! `Δ(D − D_P)` terms, each of which aggregates the measure over
//! *(sibling subspace) ∩ (predicate clause)* selections.  The same building
//! blocks recur constantly: the SUM path's single-filter terms are re-probed
//! by the AVG greedy rounds and by brute force, sibling-subspace masks are
//! shared by **every** clause of **every** attribute, and a batch of Why
//! Queries over the same store overlaps almost entirely.
//!
//! [`SelectionCache`] memoizes two layers **per segment**:
//!
//! * **side masks** — one [`RowMask`] per `(segment, sibling subspace)`, in
//!   the segment's local row domain, behind `Arc` so concurrent searches
//!   share them.  Only a partial-aggregate miss (and the serving layer's
//!   suffix check) reads them;
//! * **partial aggregates** — per
//!   `(segment, measure, side, attribute, clause, complement)` the mergeable
//!   [`MeasureStats`] sufficient statistics, from which `Δ` under any
//!   aggregate is derived arithmetically *after* merging the per-segment
//!   partials in segment order.
//!
//! **Keys are dense ids, not strings.**  Every key field is a small
//! integer: the segment's process-unique id and seal epoch, the measure and
//! the clause attribute as schema column indices, a side as its subspace's
//! `(column, global dictionary code)` pairs in the subspace's canonical
//! filter order, and a clause as a bitmap of global codes (a search
//! context's filter index *is* the category's code).  A subspace value
//! missing from the dictionary selects no rows, so all such values share
//! one `ABSENT` code.  Sides of up to four filters and clauses over the
//! first 256 codes of an attribute are stored inline; wider ones fall back
//! to a boxed word list.  Nothing is interned: the id space is the store's
//! own schema and dictionary, so client input cannot grow a side table.  A
//! search context resolves its query to ids once ([`QueryIds`]), and a
//! warm `Δ` probe hashes a few words per segment and allocates nothing.
//!
//! Segment ids and seal epochs are immutable properties of a sealed segment
//! and dictionary codes are append-only, so an ingest — which only ever
//! *adds* segments in a new snapshot — invalidates nothing: the new segment
//! simply contributes additional keys, and every entry computed for older
//! segments keeps answering across epochs.  A cheap lineage latch
//! ([`SegmentedDataset::lineage`]) rejects reuse with a *different* store
//! outright.
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
//! (`SelectionCache::side_totals`) to orient each query, so `Δ(D)` is
//! computed once per store segment and replayed by every later request and
//! every attribute's context.
//!
//! **The byte budget.**  Each entry's size is exact — a fixed-size key and
//! slot plus the heap words of a wide key, of the exact-sum partials or of
//! a mask — and the cache holds at most [`SelectionCache::budget`] bytes of
//! them (a quarter for masks, the rest for partials).  [`SelectionCache::new`]
//! is unbounded, for scopes that end on their own (a fresh cache per
//! `execute_batch` call, the pipeline's default); the serving layer's
//! **per-model cache**, held across requests *and across ingest*, is built
//! with [`SelectionCache::with_budget`].  Holding it across ingest is legal
//! because ingest preserves the store lineage, so a post-ingest request
//! replays every older segment's partials and computes only the newly
//! sealed segment: the "merge cached prefix partials with fresh suffix
//! partials" serve path.  An insert that would overflow the budget first
//! evicts by CLOCK: a hit sets the entry's referenced bit with a relaxed
//! store under the read lock, and the eviction sweep (under the write lock
//! the insert already holds) gives referenced entries a second chance,
//! clears their bit and evicts the rest until the table is back under
//! seven eighths of its budget, so sweeps are rare.  Eviction never changes
//! an answer — an evicted entry is recomputed, bit-identically, on its next
//! probe — only hit/miss counters and `Δ` evaluation counts.  The serving
//! layer also replaces the cache wholesale on model reload and on
//! compaction (both produce freshly-identified segments, so a stale cache
//! would only hold dead keys).

// HashMap here never leaks iteration order into output: mask/partial memo
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
    Column, DataError, MeasureStats, Result, RowMask, Segment, SegmentedDataset, Subspace,
};

/// Inline capacity of an [`Ids`] word list: four filters of a side, or the
/// first 256 codes of a clause's attribute.
const INLINE_WORDS: usize = 4;

/// The code a side filter carries when its value is missing from the global
/// dictionary.  No row ever holds it (real codes are dictionary indices and
/// missing cells hold `NULL_CODE`), so such a filter selects nothing.
const ABSENT: u32 = u32::MAX - 1;

/// The attribute of the empty clause.  The empty clause selects nothing
/// regardless of attribute, so it is keyed attribute-free and e.g. the
/// `Δ(D)` probes are shared across attributes.
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

/// A canonical list of 64-bit words — a side's packed `(column, code)`
/// filters or a clause's code bitmap — inline up to [`INLINE_WORDS`] words
/// and boxed beyond.  Equal sets have equal lists: sides keep the
/// subspace's sorted filter order, and bitmaps end at their highest set
/// word.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Ids {
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    Boxed(Box<[u64]>),
}

impl Ids {
    const EMPTY: Ids = Ids::Inline {
        len: 0,
        words: [0; INLINE_WORDS],
    };

    /// `n` zeroed words.
    fn zeroed(n: usize) -> Ids {
        if n <= INLINE_WORDS {
            Ids::Inline {
                len: n as u8,
                words: [0; INLINE_WORDS],
            }
        } else {
            Ids::Boxed(vec![0; n].into_boxed_slice())
        }
    }

    /// The clause of filter indices (= global codes) of one attribute, as a
    /// bitmap.  Inline, and so allocation-free, while every index is below
    /// 256.
    pub(crate) fn clause(indices: &[usize]) -> Ids {
        let mut ids = Ids::zeroed(indices.iter().max().map_or(0, |&i| i / 64 + 1));
        let words = ids.words_mut();
        for &i in indices {
            words[i / 64] |= 1 << (i % 64);
        }
        ids
    }

    /// A subspace's filters as `(column, global code)` pairs, in the
    /// subspace's canonical (attribute-sorted) order.  Fails on an unknown
    /// attribute or a measure, exactly like [`Subspace::mask`].
    fn side(store: &SegmentedDataset, subspace: &Subspace) -> Result<Ids> {
        let mut ids = Ids::zeroed(subspace.len());
        for (word, filter) in ids.words_mut().iter_mut().zip(subspace.filters()) {
            let code = store
                .global_code(filter.attribute(), filter.value())?
                .unwrap_or(ABSENT);
            let column = store.schema().index_of(filter.attribute())? as u64;
            *word = column << 32 | u64::from(code);
        }
        Ok(ids)
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Ids::Inline { len, words } => &mut words[..usize::from(*len)],
            Ids::Boxed(words) => words,
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            Ids::Inline { len, words } => &words[..usize::from(*len)],
            Ids::Boxed(words) => words,
        }
    }

    fn is_empty(&self) -> bool {
        self.words().is_empty()
    }

    /// Whether a clause bitmap holds `code` (never `NULL_CODE`: it lies past
    /// any bitmap).
    fn contains(&self, code: u32) -> bool {
        let code = code as usize;
        self.words()
            .get(code / 64)
            .is_some_and(|word| word >> (code % 64) & 1 == 1)
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Ids::Inline { .. } => 0,
            Ids::Boxed(words) => words.len() * size_of::<u64>(),
        }
    }
}

/// Key of one memoized side mask (scoped to a segment).
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
struct MaskKey {
    segment: SegmentId,
    side: Ids,
}

/// Key of one memoized per-segment partial aggregate.  Built once per `Δ`
/// side by [`QueryIds::probe`]; only `segment` changes from one segment's
/// lookup to the next.
#[derive(Debug, Clone, Hash, PartialEq, Eq)]
pub(crate) struct PartialKey {
    /// The segment the statistics were computed over.
    segment: SegmentId,
    /// The aggregated measure's column.
    measure: u32,
    /// The column the clause ranges over ([`NO_ATTRIBUTE`] for the empty
    /// clause).
    attribute: u32,
    /// `false` → aggregate over `side ∩ clause`; `true` → over
    /// `side − clause` (the paper's `D − D_P` selections).
    complement: bool,
    /// The sibling-subspace side the aggregate is scoped to.
    side: Ids,
    /// The clause's global codes.
    clause: Ids,
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

    fn side(&self, side: Side) -> &Ids {
        match side {
            Side::S1 => &self.s1,
            Side::S2 => &self.s2,
        }
    }

    /// The key of one `Δ` side: `side ∩ clause` (or `side − clause`) on the
    /// column `attribute`.  Allocation-free unless the side or the clause
    /// is wide.
    pub(crate) fn probe(
        &self,
        side: Side,
        attribute: u32,
        clause: Ids,
        complement: bool,
    ) -> PartialKey {
        PartialKey {
            segment: SegmentId { id: 0, epoch: 0 },
            measure: self.measure,
            attribute: if clause.is_empty() {
                NO_ATTRIBUTE
            } else {
                attribute
            },
            complement,
            side: self.side(side).clone(),
            clause,
        }
    }
}

impl PartialKey {
    /// Re-targets the key at the other sibling side of the same query.
    pub(crate) fn set_side(&mut self, ids: &QueryIds, side: Side) {
        self.side.clone_from(ids.side(side));
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
/// masks and partial aggregates (see the module docs for the design).
#[derive(Debug)]
pub struct SelectionCache {
    masks: Table<MaskKey, Arc<RowMask>>,
    /// Per-segment partial aggregates.  A warm replay merges them under the
    /// read lock, one guard per `Δ` side.
    partials: Table<PartialKey, MeasureStats>,
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
    /// quarter for side masks, the rest for partial aggregates.  An insert
    /// that would overflow its table evicts by CLOCK first (see the module
    /// docs).
    pub fn with_budget(budget: usize) -> Self {
        let masks = budget / 4;
        SelectionCache {
            masks: Table::new(masks),
            partials: Table::new(budget - masks),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            lineage: OnceLock::new(),
        }
    }

    /// Number of cache lookups (side masks + partial aggregates) answered
    /// from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // relaxed: monotonic cache counter
    }

    /// Number of cache lookups that had to compute their entry.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // relaxed: monotonic cache counter
    }

    /// Number of distinct side masks currently memoized.
    fn mask_entries(&self) -> usize {
        self.masks.len()
    }

    /// Number of distinct partial aggregates currently memoized.
    fn partial_entries(&self) -> usize {
        self.partials.len()
    }

    /// Bytes currently charged to resident entries (masks + partials);
    /// never above [`SelectionCache::budget`].
    pub fn bytes(&self) -> usize {
        self.masks.bytes() + self.partials.bytes()
    }

    /// The byte budget this cache was built with (`usize::MAX` when
    /// unbounded).
    pub fn budget(&self) -> usize {
        self.masks.budget.saturating_add(self.partials.budget)
    }

    /// Number of entries evicted to stay within the budget.
    pub fn evictions(&self) -> u64 {
        // relaxed: monotonic eviction counters
        self.masks.evictions.load(Ordering::Relaxed)
            + self.partials.evictions.load(Ordering::Relaxed) // relaxed: see above
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

    fn count(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed); // relaxed: monotonic cache counter
        }
        if misses > 0 {
            self.misses.fetch_add(misses, Ordering::Relaxed); // relaxed: monotonic cache counter
        }
    }

    /// Checks that `store` is (a snapshot of) the store this cache serves,
    /// latching its lineage on first use.  Every epoch of one store is
    /// accepted — sealed segments are immutable, so entries computed in an
    /// older epoch remain exact in every later one; a different store is
    /// rejected.  Public entry points call this; the search path calls it
    /// once per request (through [`SelectionCache::compile`]) and then
    /// probes by ids.
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
    /// validating the measure: every later probe by these ids relies on
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
            s1: Ids::side(store, s1)?,
            s2: Ids::side(store, s2)?,
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
        self.side_mask(segment, &Ids::side(store, subspace)?)
    }

    /// The memoized mask of one side within one segment.
    fn side_mask(&self, segment: &Segment, side: &Ids) -> Result<Arc<RowMask>> {
        let key = MaskKey {
            segment: SegmentId::of(segment),
            side: side.clone(),
        };
        if let Some(mask) = self.masks.get(&key) {
            self.count(1, 0);
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
        self.count(u64::from(!fresh), u64::from(fresh));
        Ok(mask)
    }

    /// The statistics of `measure` over the sibling subspaces `s1` and `s2`
    /// of the whole store, each merged across segments in segment order:
    /// the two sides of `Δ(D)`.
    #[cfg(test)]
    fn sibling_stats(
        &self,
        store: &SegmentedDataset,
        measure: &str,
        s1: &Subspace,
        s2: &Subspace,
    ) -> Result<(MeasureStats, MeasureStats)> {
        let ids = self.compile(store, measure, s1, s2)?;
        self.side_totals(store, &ids)
    }

    /// The two sides of `Δ(D)` for a compiled query, each merged across
    /// segments in segment order.
    ///
    /// Per segment each side is the empty clause's complement partial, which
    /// is exactly the entry every [`super::SearchContext`] probes for its own
    /// `Δ(D)`.  So the pipeline (which orients the query on `Δ(D)`) and
    /// every context built for the query replay one set of entries instead
    /// of rescanning the store.  A replay touches no mask; a miss fetches
    /// the side's memoized mask and computes the partial.
    pub(crate) fn side_totals(
        &self,
        store: &SegmentedDataset,
        ids: &QueryIds,
    ) -> Result<(MeasureStats, MeasureStats)> {
        let mut key = ids.probe(Side::S1, NO_ATTRIBUTE, Ids::EMPTY, true);
        let (a, _) = self.merged_partials(store.segments(), &mut key)?;
        key.set_side(ids, Side::S2);
        let (b, _) = self.merged_partials(store.segments(), &mut key)?;
        Ok((a, b))
    }

    /// The statistics of one `Δ` side — `key`'s selection in every segment,
    /// merged in segment order — and whether any per-segment partial was
    /// freshly computed.  The warm path walks the segments under one read
    /// guard, merging each resident partial in place (no clone, no
    /// allocation); from the first missing segment on, each segment is
    /// looked up or computed on its own.  Counts one hit or miss per
    /// segment.
    pub(crate) fn merged_partials(
        &self,
        segments: &[Arc<Segment>],
        key: &mut PartialKey,
    ) -> Result<(MeasureStats, bool)> {
        let mut merged = MeasureStats::new();
        let mut replayed = 0;
        {
            let state = self.partials.state.read();
            for segment in segments {
                key.segment = SegmentId::of(segment);
                let Some(slot) = state.map.get(key) else {
                    break;
                };
                slot.touch();
                merged.merge(&slot.value);
                replayed += 1;
            }
        }
        self.count(replayed as u64, 0);
        let mut fresh = false;
        for segment in &segments[replayed..] {
            key.segment = SegmentId::of(segment);
            let (stats, computed) = self.partial(segment, key)?;
            merged.merge(&stats);
            fresh |= computed;
        }
        Ok((merged, fresh))
    }

    /// One segment's partial under `key` (whose `segment` is set), computed
    /// on a miss.
    fn partial(&self, segment: &Segment, key: &PartialKey) -> Result<(MeasureStats, bool)> {
        if let Some(stats) = self.partials.get(key) {
            self.count(1, 0);
            return Ok((stats, false));
        }
        let side = self.side_mask(segment, &key.side)?;
        let stats = compute_partial(segment, key, &side)?;
        let bytes = charge::<PartialKey, MeasureStats>(
            key.side.heap_bytes() + key.clause.heap_bytes() + stats.heap_bytes(),
        );
        let (stats, fresh) = self.partials.insert(key.clone(), stats, bytes);
        self.count(u64::from(!fresh), u64::from(fresh));
        Ok((stats, fresh))
    }
}

/// The per-row dictionary codes of a dimension column of one segment.
fn dimension_codes(segment: &Segment, column: u32) -> Result<&[u32]> {
    match segment.data().column(column as usize) {
        Column::Dimension(c) => Ok(c.codes()),
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
    for &word in side.words() {
        let code = word as u32;
        let codes = dimension_codes(segment, (word >> 32) as u32)?;
        mask = mask.and(&RowMask::from_bools(codes.iter().map(|&c| c == code)));
    }
    Ok(mask)
}

/// Aggregates the measure over `side ∩ clause` (or `side − clause`) within
/// one segment: one pass over the side's rows, testing each row's code
/// against the clause bitmap; no clause mask is materialized.
fn compute_partial(segment: &Segment, key: &PartialKey, side: &RowMask) -> Result<MeasureStats> {
    let data = segment.data();
    let Column::Measure(values) = data.column(key.measure as usize) else {
        return Err(DataError::WrongKind {
            attribute: data.schema().attribute(key.measure as usize).name.clone(),
            expected: "measure",
        });
    };
    let codes = if key.attribute == NO_ATTRIBUTE {
        &[]
    } else {
        dimension_codes(segment, key.attribute)?
    };
    let mut stats = MeasureStats::new();
    let mut rows = 0;
    for i in side.iter_selected() {
        let in_clause = codes.get(i).is_some_and(|&code| key.clause.contains(code));
        if in_clause != key.complement {
            rows += 1;
            if let Some(v) = values.value(i) {
                stats.observe(v);
            }
        }
    }
    stats.add_rows(rows);
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

    /// The merged partial of `measure` over `side ∩ attribute ∈ values` (or
    /// `side − …`) through the id path, as a search context probes it.
    fn probe(
        cache: &SelectionCache,
        store: &SegmentedDataset,
        measure: &str,
        side: &Subspace,
        attribute: &str,
        values: &[&str],
        complement: bool,
    ) -> Result<(MeasureStats, bool)> {
        let ids = cache.compile(store, measure, side, side)?;
        let codes: Vec<usize> = values
            .iter()
            .map(|v| store.global_code(attribute, v).unwrap().unwrap() as usize)
            .collect();
        let column = store.schema().index_of(attribute)? as u32;
        let mut key = ids.probe(Side::S1, column, Ids::clause(&codes), complement);
        cache.merged_partials(store.segments(), &mut key)
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
    fn partial_aggregates_match_direct_aggregation() {
        let store = data();
        let cache = SelectionCache::new();
        let (stats, fresh) = probe(&cache, &store, "M", &a(), "Y", &["p", "q"], false).unwrap();
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
        let (rest, _) = probe(&cache, &store, "M", &a(), "Y", &["p", "q"], true).unwrap();
        assert_eq!(rest.rows, 1);
        assert_eq!(rest.value(Aggregate::Sum), Some(3.0));
        // Replay hits the cache, and clause order does not matter.
        let (again, fresh) = probe(&cache, &store, "M", &a(), "Y", &["q", "p"], false).unwrap();
        assert!(!fresh);
        assert_eq!(again, stats);
    }

    #[test]
    fn clause_partial_is_the_union_of_its_filters() {
        let store = data();
        let cache = SelectionCache::new();
        let (stats, _) = probe(&cache, &store, "M", &a(), "Y", &["p", "q"], false).unwrap();
        let data = seg(&store).data();
        let clause = Filter::equals("Y", "p")
            .mask(data)
            .unwrap()
            .or(&Filter::equals("Y", "q").mask(data).unwrap());
        let selected = a().mask(data).unwrap().and(&clause);
        let mut by_hand = seg(&store).measure_stats("M", &selected).unwrap();
        by_hand.add_rows(selected.count());
        assert_eq!(stats, by_hand);
    }

    #[test]
    fn clause_partials_build_no_masks() {
        let store = data();
        let cache = SelectionCache::new();
        for clause in [&["p", "q", "r"][..], &["p", "q"], &["r"]] {
            let (_, fresh) = probe(&cache, &store, "M", &a(), "Y", clause, false).unwrap();
            assert!(fresh);
            let (_, replay) = probe(&cache, &store, "M", &a(), "Y", clause, false).unwrap();
            assert!(!replay, "partial aggregates of every clause are memoized");
        }
        // Only the side mask is stored: clauses are tested row by row.
        assert_eq!(cache.mask_entries(), 1);
        assert_eq!(cache.partial_entries(), 3);
    }

    #[test]
    fn empty_selection_semantics_mirror_aggregate_eval() {
        let store = data();
        let cache = SelectionCache::new();
        // The empty clause intersected with anything is empty…
        let (none, _) = probe(&cache, &store, "M", &a(), "Y", &[], false).unwrap();
        assert_eq!(none.rows, 0);
        assert_eq!(none.value(Aggregate::Sum), Some(0.0));
        assert_eq!(none.value(Aggregate::Count), Some(0.0));
        assert_eq!(none.value(Aggregate::Avg), None);
        assert_eq!(none.value(Aggregate::Min), None);
        // …and its complement is the side itself.
        let (all, _) = probe(&cache, &store, "M", &a(), "Y", &[], true).unwrap();
        assert_eq!(all.rows, 3);
        assert_eq!(all.value(Aggregate::Sum), Some(15.0));
    }

    #[test]
    fn empty_clause_entry_is_shared_across_attributes() {
        let store = data();
        let cache = SelectionCache::new();
        let b = Subspace::of("X", "b");
        let (_, fresh_y) = probe(&cache, &store, "M", &b, "Y", &[], true).unwrap();
        let (_, fresh_x) = probe(&cache, &store, "M", &b, "X", &[], true).unwrap();
        assert!(fresh_y);
        assert!(!fresh_x, "empty clause must be keyed attribute-free");
    }

    #[test]
    fn wide_clauses_fall_back_to_a_boxed_bitmap() {
        let narrow = Ids::clause(&[3, 255]);
        assert!(matches!(narrow, Ids::Inline { len: 4, .. }));
        assert_eq!(narrow.heap_bytes(), 0);
        let wide = Ids::clause(&[3, 256]);
        assert!(matches!(&wide, Ids::Boxed(words) if words.len() == 5));
        assert_eq!(wide.heap_bytes(), 40);
        assert!(wide.contains(3) && wide.contains(256) && !wide.contains(255));
        assert!(!wide.contains(xinsight_data::NULL_CODE));
        assert_eq!(Ids::clause(&[]), Ids::EMPTY);
        assert_eq!(Ids::clause(&[1, 1, 0]), Ids::clause(&[0, 1]));
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
        let (stats, _) = probe(&cache, &store, "M", &Subspace::all(), "X", &[], true).unwrap();
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.count, 2);
        assert_eq!(stats.value(Aggregate::Avg), Some(5.0));
    }

    #[test]
    fn unknown_measure_is_an_error() {
        let store = data();
        let cache = SelectionCache::new();
        assert!(probe(&cache, &store, "nope", &a(), "Y", &[], false).is_err());
        assert!(matches!(
            probe(&cache, &store, "Y", &a(), "Y", &[], false),
            Err(DataError::WrongKind { .. })
        ));
    }

    #[test]
    fn sibling_stats_are_the_contexts_delta_d_entries() {
        let store = data();
        let cache = SelectionCache::new();
        let (s1, s2) = (a(), Subspace::of("X", "b"));
        let (a, b) = cache.sibling_stats(&store, "M", &s1, &s2).unwrap();
        assert_eq!((a.sum(), b.sum()), (15.0, 13.0));
        // A context's Δ(D) probe (empty clause, complement) replays them.
        let misses = cache.misses();
        let (stats, fresh) = probe(&cache, &store, "M", &s1, "Y", &[], true).unwrap();
        assert!(!fresh);
        assert_eq!(stats, a);
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
        assert_eq!(cache.mask_entries(), 2, "new segment adds its own key");
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
        let (cold, fresh) = probe(&cache, &store, "M", &a(), "Y", &["q"], false).unwrap();
        assert!(fresh);
        assert_eq!((cold.rows, cold.sum()), (2, 6.0));
        let hits = cache.hits();
        let (warm, fresh) = probe(&cache, &store, "M", &a(), "Y", &["q"], false).unwrap();
        assert!(!fresh);
        assert_eq!(warm, cold);
        assert_eq!(cache.hits(), hits + 2, "one hit per segment");
        // A newly sealed segment is the only one computed.
        let grown = store
            .append_rows(&[vec![Value::from("a"), Value::from("q"), Value::from(1.0)]])
            .unwrap();
        let misses = cache.misses();
        let (suffix, fresh) = probe(&cache, &grown, "M", &a(), "Y", &["q"], false).unwrap();
        assert!(fresh);
        assert_eq!((suffix.rows, suffix.sum()), (3, 7.0));
        // The new segment's side mask and partial.
        assert_eq!(cache.misses(), misses + 2);
    }

    #[test]
    fn the_budget_bounds_bytes_and_evictions_keep_answers() {
        let store = data();
        let reference = SelectionCache::new();
        let one = {
            probe(&reference, &store, "M", &a(), "Y", &["p"], false).unwrap();
            reference.bytes()
        };
        assert!(one > 0);
        assert_eq!(reference.budget(), usize::MAX);
        // Room for a handful of partials: every probe still answers exactly.
        let cache = SelectionCache::with_budget(4 * one);
        let clauses: [&[&str]; 7] = [
            &["p"],
            &["q"],
            &["r"],
            &["p", "q"],
            &["p", "r"],
            &["q", "r"],
            &[],
        ];
        for round in 0..3 {
            for clause in clauses {
                for complement in [false, true] {
                    let got = probe(&cache, &store, "M", &a(), "Y", clause, complement).unwrap();
                    let want =
                        probe(&reference, &store, "M", &a(), "Y", clause, complement).unwrap();
                    assert_eq!(got.0, want.0, "round {round} {clause:?}");
                    assert!(cache.bytes() <= cache.budget());
                }
            }
        }
        assert!(cache.evictions() > 0);
        assert_eq!(reference.evictions(), 0);
        // A budget below one entry keeps nothing and still answers.
        let tiny = SelectionCache::with_budget(1);
        for _ in 0..2 {
            let (stats, fresh) = probe(&tiny, &store, "M", &a(), "Y", &["p"], false).unwrap();
            assert!(fresh);
            assert_eq!(stats.sum(), 10.0);
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
