//! The memory-accounted, segment-set-scoped LRU result cache in front of
//! the explain engine.
//!
//! Serving traffic repeats itself: dashboards re-issue the same Why Query
//! on every refresh, and many users look at the same anomaly.  The
//! [`ResultCache`] memoizes the *serialized explanation list* per
//! `(model, query, options)` so a repeat costs a hash lookup instead of an
//! XPlainer search — and because the cached value is the exact byte string
//! the uncached path would serialize, cached and direct answers are
//! identical by construction (property-tested in `tests/serving.rs`,
//! including across forced evictions).
//!
//! ## Segment-set scoping
//!
//! Each entry records the **fingerprint** of the store snapshot it was
//! computed against: the ordered list of `(segment id, seal epoch)` pairs
//! ([`SegmentRef`]s) plus the global-dictionary size.  Ingest only ever
//! *appends* segments, so after an ingest the previous snapshot's
//! fingerprint is a **proper prefix** of the current one — and a cached
//! entry under that prefix is still byte-exact *iff* nothing that can move
//! scores changed: the new segments contribute no rows to the query's
//! sibling subspaces and no dimension gained a category (candidate filter
//! sets and the `σ = 1/m` regulariser depend on cardinality).  The caller
//! owns that validation (it needs the engine's segment masks); the cache
//! reports the candidate via [`Lookup::Prefix`] and the caller either
//! [`ResultCache::promote`]s the entry to the current fingerprint (serving
//! the cached bytes) or recomputes through the engine's per-segment
//! group-by cache — the *prefix merge* path, in which every pre-ingest
//! segment's group-bys replay and only the new segments are computed — and
//! records it via [`ResultCache::merged`].
//!
//! Fingerprints also make reload and compaction race-free without a
//! generation counter: both produce freshly-identified segments, so a slow
//! pre-swap request that inserts after the swap leaves an entry no
//! post-swap lookup can hit or promote (segment ids are process-unique and
//! never reused).  [`ResultCache::invalidate_model`] (reload) and
//! [`ResultCache::remap_model`] (compaction) reclaim those bytes.
//!
//! ## Bounding
//!
//! Like the engine's per-model [`SelectionCache`], this cache is
//! long-lived, so it is bounded by a configurable **byte
//! budget**: every entry is charged for its key (model id + canonical
//! query JSON + options), its fingerprint, its value and a fixed
//! bookkeeping overhead, and the least-recently-used entries are evicted
//! until the total fits.  Values larger than the whole budget are served
//! but never admitted.
//!
//! Recency is tracked with a monotonic tick per access: a `HashMap` holds
//! the entries and a `BTreeMap<tick, key>` orders them, making
//! lookup/insert `O(log n)` without an intrusive linked list.  One mutex
//! guards both maps (lookups are cheap relative to an explain);
//! hit/miss/eviction counters are relaxed atomics so `/metrics` never
//! contends with serving.
//!
//! [`SelectionCache`]: xinsight_core::SelectionCache

// HashMap here never leaks iteration order into output: cache interior; eviction order comes from the recency BTreeMap (see clippy.toml).
#![allow(clippy::disallowed_types)]

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xinsight_core::WhyQuery;

/// Fixed per-entry byte charge covering the maps' bookkeeping (hash entry,
/// tick entry, `Arc` header) on top of the measured key/value lengths.
pub const ENTRY_OVERHEAD_BYTES: usize = 128;

/// Identity of one sealed segment as the result cache sees it: the
/// process-unique segment id plus its seal epoch.  A store snapshot's
/// fingerprint is its ordered `Vec<SegmentRef>`.
pub type SegmentRef = (u64, u64);

/// Byte charge per fingerprint element.
const SEGMENT_REF_BYTES: usize = std::mem::size_of::<SegmentRef>();

/// Logical key of one cached result: the serving model, the
/// (canonicalized, hashable) query, and the canonical per-request options
/// suffix.  The store snapshot the value was computed against is *not*
/// part of the key — it is recorded on the entry as its fingerprint, so
/// one logical key holds at most one value and lookups decide between
/// exact replay, prefix promotion and recompute by comparing fingerprints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The model the query was answered against.
    pub model: String,
    /// The query itself; `WhyQuery`'s `Hash`/`Eq` make it directly usable
    /// as a map key, and its canonical JSON length is what the byte budget
    /// charges for.
    pub query: WhyQuery,
    /// Canonical serialization of the request's result-shaping options
    /// ([`RequestOptions::cache_key`](crate::wire::RequestOptions::cache_key)),
    /// so two requests that differ only in `top_k`, `min_score`, `types`
    /// or `deadline_ms` never alias.  The cache compares the suffix as an
    /// opaque string.
    pub options: String,
}

/// Outcome of a [`ResultCache::lookup`] against the current store
/// fingerprint.
#[derive(Debug, Clone)]
pub enum Lookup {
    /// The entry covers exactly the current segment set: the cached bytes
    /// are the answer.
    Hit(Arc<str>),
    /// An entry exists under a **proper prefix** of the current
    /// fingerprint (the snapshot before one or more ingests).  The caller
    /// must validate whether the suffix segments can change the answer;
    /// on success call [`ResultCache::promote`], otherwise recompute
    /// through the engine's group-by cache and record
    /// [`ResultCache::merged`] (or [`ResultCache::note_miss`] if the
    /// recompute was cut short by a deadline).
    Prefix {
        /// The fingerprint the cached entry was computed against — a
        /// proper prefix of the lookup fingerprint.  The suffix to
        /// validate is `current[prefix.len()..]`.
        prefix: Vec<SegmentRef>,
        /// Whether the store's global dictionary is unchanged since the
        /// entry was cached.  When `false` the entry can never be
        /// promoted (cardinality-dependent scores may differ).
        dict_unchanged: bool,
    },
    /// No usable entry: compute from scratch (already counted as a miss).
    Miss,
}

#[derive(Debug)]
struct Entry {
    value: Arc<str>,
    /// The store snapshot the value was computed against.
    fingerprint: Vec<SegmentRef>,
    /// Total global-dictionary categories at compute time.
    dict_len: usize,
    bytes: usize,
    tick: u64,
}

#[derive(Debug, Default)]
struct LruState {
    entries: HashMap<CacheKey, Entry>,
    /// `tick → key`, oldest first.  Ticks are unique (monotonic counter).
    order: BTreeMap<u64, CacheKey>,
    next_tick: u64,
    bytes: usize,
}

impl LruState {
    fn fresh_tick(&mut self) -> u64 {
        let tick = self.next_tick;
        self.next_tick += 1;
        tick
    }

    fn remove(&mut self, key: &CacheKey) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.order.remove(&entry.tick);
        self.bytes -= entry.bytes;
        Some(entry)
    }
}

/// A point-in-time snapshot of the result cache for `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups that reached a tier verdict.  Because every tier counter is
    /// incremented together with this one under the cache's state lock —
    /// and [`ResultCache::stats`] reads under the same lock — a snapshot
    /// always satisfies `hits + prefix_hits + merged + misses == lookups`
    /// exactly.  The one tolerance: a [`Lookup::Prefix`] candidate whose
    /// caller has not yet resolved it (via promote / merged / note_miss)
    /// is counted on *neither* side until resolution.
    pub lookups: u64,
    /// Lookups whose entry covered exactly the current segment set.
    pub hits: u64,
    /// Lookups served by promoting a proper-prefix entry whose suffix was
    /// proven unable to change the answer (cached bytes replayed).
    pub prefix_hits: u64,
    /// Lookups answered by the prefix-merge path: a proper-prefix entry
    /// existed, the suffix could change the answer, and the result was
    /// recomputed by merging the cached per-segment group-bys with freshly
    /// computed ones from only the new segments.
    pub merged: u64,
    /// Lookups with no usable entry (full compute).
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Values too large to ever admit under the budget.
    pub uncacheable: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Accounted bytes currently held.
    pub bytes: usize,
    /// The configured budget.
    pub byte_budget: usize,
}

/// Bounded, thread-safe, memory-accounted LRU cache of serialized
/// explanation results, scoped by segment-set fingerprints (see the
/// module docs for the design).
#[derive(Debug)]
pub struct ResultCache {
    state: Mutex<LruState>,
    byte_budget: usize,
    // Tier counters are atomics for lock-free *reads*, but every write
    // happens while holding `state`, paired with a `lookups` increment —
    // that is what makes the `/metrics` tier sum reconcile exactly (see
    // [`ResultCacheStats::lookups`]).
    lookups: AtomicU64,
    hits: AtomicU64,
    prefix_hits: AtomicU64,
    merged: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    uncacheable: AtomicU64,
}

fn is_proper_prefix(prefix: &[SegmentRef], full: &[SegmentRef]) -> bool {
    prefix.len() < full.len() && full[..prefix.len()] == *prefix
}

fn entry_bytes(key: &CacheKey, fingerprint: &[SegmentRef], value: &str) -> usize {
    key.model.len()
        + key.query.to_json().len()
        + key.options.len()
        + fingerprint.len() * SEGMENT_REF_BYTES
        + value.len()
        + ENTRY_OVERHEAD_BYTES
}

impl ResultCache {
    /// Creates a cache holding at most `byte_budget` accounted bytes.
    pub fn new(byte_budget: usize) -> Self {
        ResultCache {
            state: Mutex::new(LruState::default()),
            byte_budget,
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            prefix_hits: AtomicU64::new(0),
            merged: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            uncacheable: AtomicU64::new(0),
        }
    }

    /// Looks a result up against the current store fingerprint and
    /// dictionary size, refreshing recency on an exact hit.
    ///
    /// Counting: an exact [`Lookup::Hit`] and a [`Lookup::Miss`] are
    /// counted here; a [`Lookup::Prefix`] is counted by whichever of
    /// [`ResultCache::promote`], [`ResultCache::merged`] or
    /// [`ResultCache::note_miss`] resolves it.
    pub fn lookup(&self, key: &CacheKey, fingerprint: &[SegmentRef], dict_len: usize) -> Lookup {
        let mut state = self.state.lock();
        let state = &mut *state;
        match state.entries.get_mut(key) {
            Some(entry) if entry.fingerprint == fingerprint => {
                state.order.remove(&entry.tick);
                entry.tick = state.next_tick;
                state.next_tick += 1;
                state.order.insert(entry.tick, key.clone());
                self.lookups.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
                self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
                Lookup::Hit(Arc::clone(&entry.value))
            }
            Some(entry) if is_proper_prefix(&entry.fingerprint, fingerprint) => Lookup::Prefix {
                prefix: entry.fingerprint.clone(),
                dict_unchanged: entry.dict_len == dict_len,
            },
            Some(_) | None => {
                // An unrelated fingerprint is a pre-reload/pre-compaction
                // leftover: unreachable for serving, superseded on insert.
                self.lookups.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
                self.misses.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
                Lookup::Miss
            }
        }
    }

    /// Promotes a [`Lookup::Prefix`] candidate to the current fingerprint
    /// after the caller proved the suffix segments cannot change the
    /// answer: the entry is re-stamped (byte accounting adjusted for the
    /// longer fingerprint), its recency refreshed, and the cached bytes
    /// returned as a prefix hit.
    ///
    /// Returns `None` — counted as a miss — if the entry raced away or
    /// changed since the lookup (eviction, concurrent insert, another
    /// promotion); the caller then computes as usual.
    pub fn promote(
        &self,
        key: &CacheKey,
        fingerprint: &[SegmentRef],
        dict_len: usize,
    ) -> Option<Arc<str>> {
        let mut state = self.state.lock();
        let found = matches!(state.entries.get(key),
            Some(entry) if is_proper_prefix(&entry.fingerprint, fingerprint));
        if !found {
            self.lookups.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
            self.misses.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
            return None;
        }
        let mut entry = state.remove(key).expect("entry just found");
        let value = Arc::clone(&entry.value);
        entry.fingerprint = fingerprint.to_vec();
        entry.dict_len = dict_len;
        entry.bytes = entry_bytes(key, fingerprint, &entry.value);
        if entry.bytes > self.byte_budget {
            // Pathological budget: serve the bytes but do not re-admit.
            self.uncacheable.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
            self.lookups.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
            self.prefix_hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
            return Some(value);
        }
        entry.tick = state.fresh_tick();
        state.order.insert(entry.tick, key.clone());
        state.bytes += entry.bytes;
        state.entries.insert(key.clone(), entry);
        self.evict_over_budget(&mut state);
        self.lookups.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
        self.prefix_hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
        Some(value)
    }

    /// Records that a [`Lookup::Prefix`] candidate was resolved by the
    /// prefix-merge path: the answer was recomputed through the engine's
    /// per-segment group-by cache (pre-ingest group-bys replayed, only new
    /// segments computed) and the caller typically re-inserts it under the
    /// current fingerprint.
    pub fn merged(&self) {
        // Taken under the state lock (like every tier increment) so a
        // racing `/metrics` snapshot can never see the tier sum and
        // `lookups` disagree.
        let _state = self.state.lock();
        self.lookups.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
        self.merged.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
    }

    /// Records a plain miss for a [`Lookup::Prefix`] candidate whose
    /// recompute did not actually merge the cached group-bys (e.g. the
    /// request's deadline cut the search short).
    pub fn note_miss(&self) {
        let _state = self.state.lock();
        self.lookups.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
        self.misses.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
    }

    /// Inserts (or refreshes) a result computed against the given store
    /// fingerprint, evicting least-recently-used entries until the byte
    /// budget holds.  A value whose own accounted size exceeds the budget
    /// is not admitted (it would evict everything and then be evicted
    /// itself).  An insert carrying a proper prefix of the resident
    /// entry's fingerprint is dropped: it lost a race against a fresher
    /// computation (the slow-writer side of the ingest swap).
    pub fn insert(
        &self,
        key: CacheKey,
        fingerprint: Vec<SegmentRef>,
        dict_len: usize,
        value: Arc<str>,
    ) {
        let bytes = entry_bytes(&key, &fingerprint, &value);
        let mut state = self.state.lock();
        if bytes > self.byte_budget {
            // Counted under the lock like every other counter write, so a
            // concurrent snapshot sees a consistent picture.
            self.uncacheable.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
            return;
        }
        let state_ref = &mut *state;
        if let Some(resident) = state_ref.entries.get(&key) {
            if is_proper_prefix(&fingerprint, &resident.fingerprint) {
                return;
            }
        }
        state_ref.remove(&key);
        let tick = state_ref.fresh_tick();
        state_ref.bytes += bytes;
        state_ref.order.insert(tick, key.clone());
        state_ref.entries.insert(
            key,
            Entry {
                value,
                fingerprint,
                dict_len,
                bytes,
                tick,
            },
        );
        self.evict_over_budget(state_ref);
    }

    fn evict_over_budget(&self, state: &mut LruState) {
        while state.bytes > self.byte_budget {
            let Some((&oldest_tick, _)) = state.order.iter().next() else {
                break;
            };
            let oldest_key = state.order.remove(&oldest_tick).expect("tick just seen");
            let evicted = state
                .entries
                .remove(&oldest_key)
                .expect("order and entries stay in sync");
            state.bytes -= evicted.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
        }
    }

    /// Drops every entry cached for `model` — called on hot-reload so a
    /// swapped model file can change answers without stale replays.
    pub fn invalidate_model(&self, model: &str) {
        let mut state = self.state.lock();
        let state = &mut *state;
        let doomed: Vec<CacheKey> = state
            .entries
            .keys()
            .filter(|k| k.model == model)
            .cloned()
            .collect();
        for key in doomed {
            state.remove(&key).expect("key just listed");
        }
    }

    /// Applies a compaction swap to `model`'s entries: entries computed
    /// against exactly `old` (the snapshot that was compacted) are
    /// re-stamped to `new` — compaction is a pure rewrite, so their bytes
    /// stay exact — with byte accounting adjusted for the new fingerprint
    /// length; every *other* entry of the model is dropped (its
    /// fingerprint can no longer match or prefix the post-compaction
    /// store).  Entries of other models are untouched.
    pub fn remap_model(&self, model: &str, old: &[SegmentRef], new: &[SegmentRef]) {
        let mut state = self.state.lock();
        let state = &mut *state;
        let affected: Vec<CacheKey> = state
            .entries
            .keys()
            .filter(|k| k.model == model)
            .cloned()
            .collect();
        for key in affected {
            let mut entry = state.remove(&key).expect("key just listed");
            if entry.fingerprint != old {
                continue;
            }
            entry.fingerprint = new.to_vec();
            entry.bytes = entry_bytes(&key, new, &entry.value);
            if entry.bytes > self.byte_budget {
                self.uncacheable.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache-stats counter
                continue;
            }
            state.bytes += entry.bytes;
            state.order.insert(entry.tick, key.clone());
            state.entries.insert(key, entry);
        }
        self.evict_over_budget(state);
    }

    /// A consistent snapshot of the counters and occupancy: taken under
    /// the state lock, which every counter write also holds, so the tier
    /// sum reconciles with `lookups` exactly (see
    /// [`ResultCacheStats::lookups`] for the one in-flight tolerance).
    pub fn stats(&self) -> ResultCacheStats {
        let state = self.state.lock();
        ResultCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed), // relaxed: stats snapshot read
            hits: self.hits.load(Ordering::Relaxed),       // relaxed: stats snapshot read
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed), // relaxed: stats snapshot read
            merged: self.merged.load(Ordering::Relaxed),   // relaxed: stats snapshot read
            misses: self.misses.load(Ordering::Relaxed),   // relaxed: stats snapshot read
            evictions: self.evictions.load(Ordering::Relaxed), // relaxed: stats snapshot read
            uncacheable: self.uncacheable.load(Ordering::Relaxed), // relaxed: stats snapshot read
            entries: state.entries.len(),
            bytes: state.bytes,
            byte_budget: self.byte_budget,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xinsight_data::{Aggregate, Subspace};

    fn query(value: &str) -> WhyQuery {
        WhyQuery::new(
            "M",
            Aggregate::Avg,
            Subspace::of("X", value.to_owned()),
            Subspace::of("X", "base"),
        )
        .unwrap()
    }

    fn key(model: &str, value: &str) -> CacheKey {
        CacheKey {
            model: model.to_owned(),
            query: query(value),
            options: String::new(),
        }
    }

    /// The fingerprint of a store with segments `1..=n`, epochs `0..n`.
    fn fp(n: u64) -> Vec<SegmentRef> {
        (1..=n).map(|i| (i, i - 1)).collect()
    }

    fn bytes_of(key: &CacheKey, fingerprint: &[SegmentRef], value: &str) -> usize {
        entry_bytes(key, fingerprint, value)
    }

    /// `lookup` + unwrap the exact-hit value.
    fn get(cache: &ResultCache, key: &CacheKey, fingerprint: &[SegmentRef]) -> Option<Arc<str>> {
        match cache.lookup(key, fingerprint, 4) {
            Lookup::Hit(value) => Some(value),
            _ => None,
        }
    }

    #[test]
    fn lookup_after_insert_round_trips() {
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        assert!(get(&cache, &k, &fp(1)).is_none());
        cache.insert(k.clone(), fp(1), 4, Arc::from("answer"));
        assert_eq!(get(&cache, &k, &fp(1)).as_deref(), Some("answer"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.bytes, bytes_of(&k, &fp(1), "answer"));
    }

    #[test]
    fn tier_counters_reconcile_with_lookups_through_every_path() {
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        // Miss, then hit.
        assert!(get(&cache, &k, &fp(1)).is_none());
        cache.insert(k.clone(), fp(1), 4, Arc::from("answer"));
        assert!(get(&cache, &k, &fp(1)).is_some());
        // Prefix candidate resolved three ways: promote, merged, note_miss.
        assert!(matches!(cache.lookup(&k, &fp(2), 4), Lookup::Prefix { .. }));
        assert!(cache.promote(&k, &fp(2), 4).is_some());
        assert!(matches!(cache.lookup(&k, &fp(3), 4), Lookup::Prefix { .. }));
        cache.merged();
        assert!(matches!(cache.lookup(&k, &fp(4), 4), Lookup::Prefix { .. }));
        cache.note_miss();
        // A promote that raced away counts as a miss.
        assert!(cache.promote(&key("m", "zz"), &fp(2), 4).is_none());
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.prefix_hits, stats.merged, stats.misses),
            (1, 1, 1, 3)
        );
        assert_eq!(
            stats.lookups,
            stats.hits + stats.prefix_hits + stats.merged + stats.misses,
            "tier sum must reconcile with lookups"
        );
    }

    #[test]
    fn lru_eviction_respects_recency_and_budget() {
        let k1 = key("m", "a");
        let k2 = key("m", "b");
        let k3 = key("m", "c");
        let per_entry = bytes_of(&k1, &fp(1), "v");
        // Room for exactly two entries.
        let cache = ResultCache::new(2 * per_entry + per_entry / 2);
        cache.insert(k1.clone(), fp(1), 4, Arc::from("v"));
        cache.insert(k2.clone(), fp(1), 4, Arc::from("v"));
        // Touch k1 so k2 becomes the LRU victim.
        assert!(get(&cache, &k1, &fp(1)).is_some());
        cache.insert(k3.clone(), fp(1), 4, Arc::from("v"));
        assert!(get(&cache, &k1, &fp(1)).is_some(), "recent entry survives");
        assert!(get(&cache, &k2, &fp(1)).is_none(), "LRU entry was evicted");
        assert!(get(&cache, &k3, &fp(1)).is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= stats.byte_budget);
    }

    #[test]
    fn reinserting_a_key_replaces_without_leaking_bytes() {
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        cache.insert(k.clone(), fp(1), 4, Arc::from("short"));
        cache.insert(k.clone(), fp(1), 4, Arc::from("a longer value than before"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(
            stats.bytes,
            bytes_of(&k, &fp(1), "a longer value than before")
        );
        assert_eq!(
            get(&cache, &k, &fp(1)).as_deref(),
            Some("a longer value than before")
        );
    }

    #[test]
    fn oversized_values_are_never_admitted() {
        let cache = ResultCache::new(256);
        let k = key("m", "a");
        let big = "x".repeat(512);
        cache.insert(k.clone(), fp(1), 4, Arc::from(big.as_str()));
        assert!(get(&cache, &k, &fp(1)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.uncacheable, 1);
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
    }

    #[test]
    fn invalidate_model_is_selective() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(key("m1", "a"), fp(1), 4, Arc::from("1"));
        cache.insert(key("m1", "b"), fp(1), 4, Arc::from("2"));
        cache.insert(key("m2", "a"), fp(1), 4, Arc::from("3"));
        cache.invalidate_model("m1");
        assert!(get(&cache, &key("m1", "a"), &fp(1)).is_none());
        assert!(get(&cache, &key("m1", "b"), &fp(1)).is_none());
        assert_eq!(get(&cache, &key("m2", "a"), &fp(1)).as_deref(), Some("3"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, bytes_of(&key("m2", "a"), &fp(1), "3"));
    }

    #[test]
    fn distinct_models_do_not_collide() {
        let cache = ResultCache::new(1 << 20);
        cache.insert(key("m1", "a"), fp(1), 4, Arc::from("one"));
        cache.insert(key("m2", "a"), fp(1), 4, Arc::from("two"));
        assert_eq!(get(&cache, &key("m1", "a"), &fp(1)).as_deref(), Some("one"));
        assert_eq!(get(&cache, &key("m2", "a"), &fp(1)).as_deref(), Some("two"));
    }

    #[test]
    fn distinct_request_options_do_not_collide() {
        // Same model, same query — only the options suffix differs; the
        // entries must stay independent.  The cache knows nothing of the
        // wire, so any string (the empty one too) is a distinct suffix.
        let cache = ResultCache::new(1 << 20);
        let plain = key("m", "a");
        let v2_default = CacheKey {
            options: "v2{}".to_owned(),
            ..plain.clone()
        };
        let v2_top1 = CacheKey {
            options: "v2{\"top_k\":1.0}".to_owned(),
            ..plain.clone()
        };
        cache.insert(plain.clone(), fp(1), 4, Arc::from("plain array"));
        cache.insert(v2_default.clone(), fp(1), 4, Arc::from("scored object"));
        cache.insert(
            v2_top1.clone(),
            fp(1),
            4,
            Arc::from("scored object, one entry"),
        );
        assert_eq!(get(&cache, &plain, &fp(1)).as_deref(), Some("plain array"));
        assert_eq!(
            get(&cache, &v2_default, &fp(1)).as_deref(),
            Some("scored object")
        );
        assert_eq!(
            get(&cache, &v2_top1, &fp(1)).as_deref(),
            Some("scored object, one entry")
        );
        assert_eq!(cache.stats().entries, 3);
        // Model-level invalidation drops every options variant.
        cache.invalidate_model("m");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn differently_covered_segment_sets_never_alias() {
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        cache.insert(k.clone(), fp(2), 4, Arc::from("two segments"));
        // Exact match requires the same segment list.
        assert!(get(&cache, &k, &fp(3)).is_none());
        // A *different* two-element set (same length, other ids) neither
        // hits nor offers a prefix.
        let other: Vec<SegmentRef> = vec![(7, 0), (8, 1)];
        assert!(matches!(cache.lookup(&k, &other, 4), Lookup::Miss));
        // A shorter fingerprint (the entry is *newer* than the lookup —
        // a reader on an old snapshot) is not a hit either.
        assert!(matches!(cache.lookup(&k, &fp(1), 4), Lookup::Miss));
        // Same ids at different epochs do not alias.
        let reepoched: Vec<SegmentRef> = vec![(1, 0), (2, 5)];
        assert!(matches!(cache.lookup(&k, &reepoched, 4), Lookup::Miss));
    }

    #[test]
    fn prefix_candidates_surface_and_promote_byte_exactly() {
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        cache.insert(k.clone(), fp(1), 4, Arc::from("pre-ingest answer"));
        // After one ingest the old fingerprint is a proper prefix.
        match cache.lookup(&k, &fp(2), 4) {
            Lookup::Prefix {
                prefix,
                dict_unchanged,
            } => {
                assert_eq!(prefix, fp(1));
                assert!(dict_unchanged);
            }
            other => panic!("expected a prefix candidate, got {other:?}"),
        }
        // Caller validates the suffix, promotes, and the bytes replay.
        let value = cache.promote(&k, &fp(2), 4).unwrap();
        assert_eq!(&*value, "pre-ingest answer");
        // The entry now covers the current set: the next lookup is exact.
        assert_eq!(
            get(&cache, &k, &fp(2)).as_deref(),
            Some("pre-ingest answer")
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.prefix_hits, stats.misses), (1, 1, 0));
        // Byte accounting follows the longer fingerprint exactly.
        assert_eq!(stats.bytes, bytes_of(&k, &fp(2), "pre-ingest answer"));
    }

    #[test]
    fn dictionary_growth_blocks_promotion() {
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        cache.insert(k.clone(), fp(1), 4, Arc::from("answer"));
        match cache.lookup(&k, &fp(2), 5) {
            Lookup::Prefix { dict_unchanged, .. } => assert!(!dict_unchanged),
            other => panic!("expected a prefix candidate, got {other:?}"),
        }
    }

    #[test]
    fn promote_races_resolve_to_misses() {
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        // No entry at all (evicted between lookup and promote).
        assert!(cache.promote(&k, &fp(2), 4).is_none());
        // Entry already covers the current set (another thread promoted or
        // re-inserted): promote declines, the caller's next lookup hits.
        cache.insert(k.clone(), fp(2), 4, Arc::from("fresh"));
        assert!(cache.promote(&k, &fp(2), 4).is_none());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn stale_prefix_inserts_lose_to_fresher_entries() {
        // The ingest race: a slow request computed against the pre-ingest
        // snapshot inserts *after* a fresher post-ingest computation; the
        // shorter-fingerprint insert must not clobber the newer entry.
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        cache.insert(k.clone(), fp(2), 4, Arc::from("post-ingest"));
        cache.insert(k.clone(), fp(1), 4, Arc::from("stale pre-ingest"));
        assert_eq!(get(&cache, &k, &fp(2)).as_deref(), Some("post-ingest"));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn stale_fingerprint_inserts_cannot_poison_a_reloaded_model() {
        // The hot-reload race: a slow request computed against the
        // pre-reload store inserts *after* the reload invalidated.  The
        // reloaded store has freshly-identified segments, so the stale
        // entry can neither hit nor prefix-match — and the reload's
        // invalidate_model reclaims it.
        let cache = ResultCache::new(1 << 20);
        let k = key("m", "a");
        cache.invalidate_model("m"); // the reload's invalidation
        cache.insert(k.clone(), fp(2), 4, Arc::from("stale pre-reload answer"));
        let reloaded: Vec<SegmentRef> = vec![(9, 0)];
        assert!(
            matches!(cache.lookup(&k, &reloaded, 4), Lookup::Miss),
            "stale answer leaked across reload"
        );
        assert!(cache.promote(&k, &reloaded, 4).is_none());
        cache.invalidate_model("m");
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn remap_on_compaction_preserves_byte_budget_accounting() {
        let cache = ResultCache::new(1 << 20);
        let compacted_away = key("m", "a");
        let current = key("m", "b");
        let survivor = key("other", "a");
        // `current` was computed against the snapshot being compacted;
        // `compacted_away` against an older prefix (never promoted).
        cache.insert(compacted_away.clone(), fp(1), 4, Arc::from("old"));
        cache.insert(current.clone(), fp(3), 4, Arc::from("exact"));
        cache.insert(survivor.clone(), fp(3), 4, Arc::from("other model"));
        let new_fp: Vec<SegmentRef> = vec![(10, 3)];
        cache.remap_model("m", &fp(3), &new_fp);
        // The exact-snapshot entry was re-stamped and still replays.
        assert_eq!(get(&cache, &current, &new_fp).as_deref(), Some("exact"));
        // The stale-prefix entry is gone; other models untouched.
        assert!(matches!(
            cache.lookup(&compacted_away, &new_fp, 4),
            Lookup::Miss
        ));
        assert_eq!(
            get(&cache, &survivor, &fp(3)).as_deref(),
            Some("other model")
        );
        // Accounting is exact: the remapped entry is charged for the new
        // (shorter) fingerprint, the dropped entry's bytes are reclaimed.
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(
            stats.bytes,
            bytes_of(&current, &new_fp, "exact") + bytes_of(&survivor, &fp(3), "other model")
        );
    }
}
