//! The memory-accounted, segment-set-scoped result cache in front of the
//! explain engine, evicting by CLOCK (an LRU approximation).
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
//! bookkeeping overhead.  Values larger than the whole budget are served
//! but never admitted.
//!
//! Eviction is **CLOCK**, the LRU approximation the [`SelectionCache`]
//! uses too: each entry keeps one *referenced* bit, which an exact hit or a
//! promotion sets.  An insert or promotion that would overflow the budget
//! first sweeps the map — a referenced entry loses its bit and is spared
//! once, an unreferenced one is evicted — until the incoming bytes fit
//! under seven eighths of the budget, so sweeps are rare; a second pass
//! runs only when every entry visited was referenced.  The sweep runs
//! *before* the new entry is admitted, so it can never evict what it makes
//! room for.  One map and one mutex hold everything: a hit sets a bit and
//! bumps two counters without allocating, and the counters live under the
//! same lock, so a `/metrics` snapshot reconciles exactly.
//!
//! [`SelectionCache`]: xinsight_core::SelectionCache

// HashMap here never leaks iteration order into output: cache interior; the CLOCK sweep's visiting order only decides which entries are recomputed later, never an answer (see clippy.toml).
#![allow(clippy::disallowed_types)]

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use xinsight_core::WhyQuery;

/// Fixed per-entry byte charge covering the map's bookkeeping (hash entry,
/// `Arc` header) on top of the measured key/value lengths.
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
    /// The CLOCK bit: set by an exact hit or a promotion, cleared by the
    /// sweep that spares the entry once.
    referenced: bool,
}

#[derive(Debug)]
struct LruState {
    entries: HashMap<CacheKey, Entry>,
    /// Counters, accounted bytes and the budget; `entries` is filled in
    /// by [`ResultCache::stats`].
    stats: ResultCacheStats,
}

impl LruState {
    fn remove(&mut self, key: &CacheKey) -> Option<(CacheKey, Entry)> {
        let (key, entry) = self.entries.remove_entry(key)?;
        self.stats.bytes -= entry.bytes;
        Some((key, entry))
    }

    /// Admits `entry`, sweeping first: a sweep after admission could
    /// evict the very entry it made room for.
    fn admit(&mut self, key: CacheKey, entry: Entry) {
        self.make_room(entry.bytes);
        self.stats.bytes += entry.bytes;
        self.entries.insert(key, entry);
    }

    /// The CLOCK sweep: unless `charge` more bytes fit the budget as is,
    /// evicts unreferenced entries and clears the bit of referenced ones
    /// until they fit under seven eighths of it.  The second pass only runs
    /// when every entry visited was referenced, and finds all their bits
    /// cleared.
    fn make_room(&mut self, charge: usize) {
        let LruState { entries, stats } = self;
        if stats.bytes.saturating_add(charge) <= stats.byte_budget {
            return;
        }
        let target = (stats.byte_budget - stats.byte_budget / 8).saturating_sub(charge);
        for _ in 0..2 {
            if stats.bytes <= target {
                break;
            }
            entries.retain(|_, entry| {
                if stats.bytes <= target || std::mem::take(&mut entry.referenced) {
                    return true;
                }
                stats.bytes -= entry.bytes;
                stats.evictions += 1;
                false
            });
        }
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

impl ResultCacheStats {
    /// Counts one lookup resolved to the tier `tier` selects.
    fn tally(&mut self, tier: fn(&mut Self) -> &mut u64) {
        self.lookups += 1;
        *tier(self) += 1;
    }
}

/// Bounded, thread-safe, memory-accounted CLOCK cache of serialized
/// explanation results, scoped by segment-set fingerprints (see the
/// module docs for the design).
#[derive(Debug)]
pub struct ResultCache {
    state: Mutex<LruState>,
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
            state: Mutex::new(LruState {
                entries: HashMap::new(),
                stats: ResultCacheStats {
                    byte_budget,
                    ..ResultCacheStats::default()
                },
            }),
        }
    }

    /// Looks a result up against the current store fingerprint and
    /// dictionary size, setting the entry's referenced bit on an exact hit.
    ///
    /// Counting: an exact [`Lookup::Hit`] and a [`Lookup::Miss`] are
    /// counted here; a [`Lookup::Prefix`] is counted by whichever of
    /// [`ResultCache::promote`], [`ResultCache::merged`] or
    /// [`ResultCache::note_miss`] resolves it.
    pub fn lookup(&self, key: &CacheKey, fingerprint: &[SegmentRef], dict_len: usize) -> Lookup {
        let mut state = self.state.lock();
        let LruState { entries, stats } = &mut *state;
        match entries.get_mut(key) {
            Some(entry) if entry.fingerprint == fingerprint => {
                entry.referenced = true;
                stats.tally(|s| &mut s.hits);
                Lookup::Hit(Arc::clone(&entry.value))
            }
            Some(entry) if is_proper_prefix(&entry.fingerprint, fingerprint) => Lookup::Prefix {
                // xlint: allow(no-alloc-hot-path, the public variant owns its prefix; only a post-ingest candidate pays it)
                prefix: entry.fingerprint.clone(),
                dict_unchanged: entry.dict_len == dict_len,
            },
            Some(_) | None => {
                // An unrelated fingerprint is a pre-reload/pre-compaction
                // leftover: unreachable for serving, superseded on insert.
                stats.tally(|s| &mut s.misses);
                Lookup::Miss
            }
        }
    }

    /// Promotes a [`Lookup::Prefix`] candidate to the current fingerprint
    /// after the caller proved the suffix segments cannot change the
    /// answer: the entry is re-stamped (byte accounting adjusted for the
    /// longer fingerprint), its referenced bit set, and the cached bytes
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
            state.stats.tally(|s| &mut s.misses);
            return None;
        }
        state.stats.tally(|s| &mut s.prefix_hits);
        // Out of the map before the sweep, so the sweep cannot evict it.
        let (key, mut entry) = state.remove(key).expect("entry just found");
        let value = Arc::clone(&entry.value);
        entry.bytes = entry_bytes(&key, fingerprint, &value);
        if entry.bytes > state.stats.byte_budget {
            // Pathological budget: serve the bytes but do not re-admit.
            state.stats.uncacheable += 1;
            return Some(value);
        }
        entry.fingerprint = fingerprint.to_vec();
        entry.dict_len = dict_len;
        entry.referenced = true;
        state.admit(key, entry);
        Some(value)
    }

    /// Records that a [`Lookup::Prefix`] candidate was resolved by the
    /// prefix-merge path: the answer was recomputed through the engine's
    /// per-segment group-by cache (pre-ingest group-bys replayed, only new
    /// segments computed) and the caller typically re-inserts it under the
    /// current fingerprint.
    pub fn merged(&self) {
        self.state.lock().stats.tally(|s| &mut s.merged);
    }

    /// Records a plain miss for a [`Lookup::Prefix`] candidate whose
    /// recompute did not actually merge the cached group-bys (e.g. the
    /// request's deadline cut the search short).
    pub fn note_miss(&self) {
        self.state.lock().stats.tally(|s| &mut s.misses);
    }

    /// Inserts (or refreshes) a result computed against the given store
    /// fingerprint, first sweeping by CLOCK until it fits (see the module
    /// docs).  A value whose own accounted size exceeds the budget is not
    /// admitted (it would evict everything and still not fit).  An insert
    /// carrying a proper prefix of the resident entry's fingerprint is
    /// dropped: it lost a race against a fresher computation (the
    /// slow-writer side of the ingest swap).
    pub fn insert(
        &self,
        key: CacheKey,
        fingerprint: Vec<SegmentRef>,
        dict_len: usize,
        value: Arc<str>,
    ) {
        let bytes = entry_bytes(&key, &fingerprint, &value);
        let mut state = self.state.lock();
        if bytes > state.stats.byte_budget {
            state.stats.uncacheable += 1;
            return;
        }
        if let Some(resident) = state.entries.get(&key) {
            if is_proper_prefix(&fingerprint, &resident.fingerprint) {
                return;
            }
        }
        state.remove(&key);
        state.admit(
            key,
            Entry {
                value,
                fingerprint,
                dict_len,
                bytes,
                referenced: false,
            },
        );
    }

    /// Drops every entry cached for `model` — called on hot-reload so a
    /// swapped model file can change answers without stale replays.
    pub fn invalidate_model(&self, model: &str) {
        let mut state = self.state.lock();
        let LruState { entries, stats } = &mut *state;
        entries.retain(|key, entry| {
            let keep = key.model != model;
            if !keep {
                stats.bytes -= entry.bytes;
            }
            keep
        });
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
        let LruState { entries, stats } = &mut *state;
        entries.retain(|key, entry| {
            if key.model != model {
                return true;
            }
            stats.bytes -= entry.bytes;
            if entry.fingerprint != old {
                return false;
            }
            entry.bytes = entry_bytes(key, new, &entry.value);
            if entry.bytes > stats.byte_budget {
                stats.uncacheable += 1;
                return false;
            }
            entry.fingerprint = new.to_vec();
            stats.bytes += entry.bytes;
            true
        });
        // A longer fingerprint can outgrow the budget: sweep like an insert.
        state.make_room(0);
    }

    /// A consistent snapshot of the counters and occupancy: taken under
    /// the state lock, which every counter write also holds, so the tier
    /// sum reconciles with `lookups` exactly (see
    /// [`ResultCacheStats::lookups`] for the one in-flight tolerance).
    pub fn stats(&self) -> ResultCacheStats {
        let state = self.state.lock();
        ResultCacheStats {
            entries: state.entries.len(),
            ..state.stats
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

    /// The referenced bit of `key`'s resident entry (`None` when not
    /// resident), read without touching it.
    fn referenced(cache: &ResultCache, key: &CacheKey) -> Option<bool> {
        cache
            .state
            .lock()
            .entries
            .get(key)
            .map(|entry| entry.referenced)
    }

    /// Keys of equal accounted size, and that size at fingerprint `fp(1)`.
    fn same_size_keys(n: usize) -> (Vec<CacheKey>, usize) {
        let keys: Vec<CacheKey> = (0..n).map(|i| key("m", &format!("{i:02}"))).collect();
        let per_entry = bytes_of(&keys[0], &fp(1), "v");
        (keys, per_entry)
    }

    /// Runs a sweep scenario on many fresh caches: each map draws its own
    /// `RandomState`, so the sweep visits entries in many orders and an
    /// order-dependent assertion fails in some round.
    const ORDERS: usize = 64;

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
    fn a_sweep_never_evicts_the_entry_it_admits() {
        let (keys, per_entry) = same_size_keys(12);
        for _ in 0..ORDERS {
            // Inserts: every admission past the third sweeps first.
            let cache = ResultCache::new(3 * per_entry);
            for k in &keys {
                cache.insert(k.clone(), fp(1), 4, Arc::from("v"));
                assert_eq!(
                    referenced(&cache, k),
                    Some(false),
                    "insert evicted its own entry"
                );
                let stats = cache.stats();
                assert!(stats.bytes <= stats.byte_budget);
            }
            assert!(cache.stats().evictions > 0);
            // A promotion that outgrows the budget sweeps the others away,
            // never the promoted entry.
            let cache = ResultCache::new(3 * per_entry);
            for k in &keys[..3] {
                cache.insert(k.clone(), fp(1), 4, Arc::from("v"));
            }
            assert!(cache.promote(&keys[0], &fp(2), 4).is_some());
            assert_eq!(referenced(&cache, &keys[0]), Some(true));
            assert_eq!(get(&cache, &keys[0], &fp(2)).as_deref(), Some("v"));
            let stats = cache.stats();
            assert!(stats.bytes <= stats.byte_budget);
            assert_eq!((stats.evictions, stats.entries), (1, 2));
        }
    }

    #[test]
    fn a_referenced_entry_survives_a_sweep_and_loses_its_bit() {
        let (keys, per_entry) = same_size_keys(5);
        for _ in 0..ORDERS {
            // Admitting a fifth entry must free two: the three unreferenced
            // entries suffice, so the referenced one survives.
            let cache = ResultCache::new(4 * per_entry);
            for k in &keys[..4] {
                cache.insert(k.clone(), fp(1), 4, Arc::from("v"));
            }
            assert!(get(&cache, &keys[0], &fp(1)).is_some());
            cache.insert(keys[4].clone(), fp(1), 4, Arc::from("v"));
            assert!(
                referenced(&cache, &keys[0]).is_some(),
                "referenced entry evicted"
            );
            assert_eq!(cache.stats().evictions, 2);
            // Three referenced entries and one unreferenced: the first
            // pass evicts the unreferenced one and, still over its target,
            // clears every bit; the second evicts one more.  The survivors
            // have all spent their second chance.
            let cache = ResultCache::new(4 * per_entry);
            for k in &keys[..4] {
                cache.insert(k.clone(), fp(1), 4, Arc::from("v"));
            }
            for k in &keys[..3] {
                assert!(get(&cache, k, &fp(1)).is_some());
            }
            cache.insert(keys[4].clone(), fp(1), 4, Arc::from("v"));
            assert_eq!(
                referenced(&cache, &keys[3]),
                None,
                "unreferenced entry kept"
            );
            let survivors: Vec<bool> = keys[..3]
                .iter()
                .filter_map(|k| referenced(&cache, k))
                .collect();
            assert_eq!(survivors, [false, false], "survivors keep no bit");
        }
    }

    #[test]
    fn a_sweep_makes_room_when_every_entry_is_referenced() {
        let (keys, per_entry) = same_size_keys(5);
        for _ in 0..ORDERS {
            let cache = ResultCache::new(4 * per_entry);
            for k in &keys[..4] {
                cache.insert(k.clone(), fp(1), 4, Arc::from("v"));
                assert!(get(&cache, k, &fp(1)).is_some());
            }
            cache.insert(keys[4].clone(), fp(1), 4, Arc::from("v"));
            assert_eq!(referenced(&cache, &keys[4]), Some(false));
            let stats = cache.stats();
            assert!(stats.bytes <= stats.byte_budget);
            assert_eq!((stats.evictions, stats.entries), (2, 3));
            assert!(keys[..4]
                .iter()
                .all(|k| referenced(&cache, k) != Some(true)));
        }
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
