//! Memoisation of repeated CI queries.

// HashMap here never leaks iteration order into output: CI-test memo table keyed by interned ids
// through the sanctioned fxhash alias; key-looked-up only (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::ci_test::{CiOutcome, CiTest, IndexedCiTest};
use crate::small_vec::SmallVec;
use fxhash::FxHashMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use xinsight_data::{Dataset, Result};

/// Compact cache key: interned variable ids with `x ≤ y` and `z` sorted.
///
/// Conditioning sets are short, so the [`SmallVec`] keeps the whole key
/// inline — no per-entry heap allocation, and hashing touches a handful of
/// `u32`s instead of three strings.
type CiKey = (u32, u32, SmallVec<u32>);

/// Interner + memo table, guarded by one lock so the name-addressed path
/// interns *and* probes under a single acquisition (the compiled path skips
/// interning entirely and only probes).
#[derive(Debug, Default)]
struct CacheState {
    /// Stable name → id mapping.  Ids survive [`CachedCiTest::clear`] so
    /// compiled adapters created before a clear stay valid.  Interning runs
    /// once per variable; every subsequent probe hashes only integers.
    interner: FxHashMap<String, u32>,
    /// Memoised outcomes, keyed by interned ids under the Fx integer mixer.
    map: FxHashMap<CiKey, CiOutcome>,
}

impl CacheState {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.interner.get(name) {
            return id;
        }
        let id = self.interner.len() as u32;
        self.interner.insert(name.to_owned(), id);
        id
    }
}

/// A point-in-time snapshot of a cache's effectiveness counters.
///
/// Both caching layers of the engine — [`CachedCiTest`] offline and the
/// online selection cache in `xinsight-core` — expose their private atomic
/// hit/miss counters through this one struct, so the serving layer's
/// `/metrics` endpoint and the benches report them uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that had to compute (and store) their entry.
    pub misses: u64,
    /// Distinct entries currently held.
    pub entries: usize,
}

impl CacheStats {
    /// Total number of lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from memory (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Element-wise sum of two snapshots — for accumulating the stats of
    /// many short-lived caches (e.g. one per served request) into a running
    /// total.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            entries: self.entries + other.entries,
        }
    }
}

/// A wrapper that caches the outcome of CI queries keyed by interned
/// `(X, Y, sorted Z)` variable ids (with `X`/`Y` order normalised).
///
/// FCI's skeleton phase and its Possible-D-SEP phase re-ask many identical
/// queries; on the SYN-A workloads caching removes 30–60 % of the test
/// evaluations.  The cache assumes the wrapped test is deterministic and is
/// keyed per dataset by the caller (build one cache per dataset).
///
/// Internally one mutex guards the interner and the memo table together,
/// and the hit/miss counters are relaxed atomics, so reading statistics
/// never contends with lookups.  The name-addressed [`CiTest::test`] path
/// and the compiled [`CiTest::compile`] path share the same table: a query
/// answered through one is a cache hit through the other.
#[derive(Debug)]
pub struct CachedCiTest<T> {
    inner: T,
    state: Mutex<CacheState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T: CiTest> CachedCiTest<T> {
    /// Wraps a CI test with a cache.
    pub fn new(inner: T) -> Self {
        CachedCiTest {
            inner,
            state: Mutex::new(CacheState::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed) // relaxed: monotonic cache counter
    }

    /// Number of cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed) // relaxed: monotonic cache counter
    }

    /// A consistent-enough snapshot of the counters and the entry count
    /// (each value is read atomically; the trio is not sampled under one
    /// lock, which is fine for reporting).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            entries: self.state.lock().map.len(),
        }
    }

    /// Drops all cached entries (call when switching datasets).  Interned
    /// variable ids are retained so previously compiled adapters stay
    /// consistent.
    pub fn clear(&self) {
        self.state.lock().map.clear();
    }

    /// Normalises interned ids into a canonical key.
    fn key_from_ids(x: u32, y: u32, z: &[u32]) -> CiKey {
        let (a, b) = if x <= y { (x, y) } else { (y, x) };
        let mut zs = SmallVec::from_slice(z);
        zs.sort_unstable();
        (a, b, zs)
    }

    /// Probes the cache; on a miss, runs `run` and stores the outcome.
    fn lookup_or_run(
        &self,
        key: CiKey,
        run: impl FnOnce() -> Result<CiOutcome>,
    ) -> Result<CiOutcome> {
        if let Some(&hit) = self.state.lock().map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
        let outcome = run()?;
        self.state.lock().map.insert(key, outcome);
        Ok(outcome)
    }
}

impl<T: CiTest> CiTest for CachedCiTest<T> {
    fn test(&self, data: &Dataset, x: &str, y: &str, z: &[&str]) -> Result<CiOutcome> {
        // Intern and probe under one lock acquisition; hits never re-lock.
        let key = {
            let mut state = self.state.lock();
            let xi = state.intern(x);
            let yi = state.intern(y);
            let zi: Vec<u32> = z.iter().map(|n| state.intern(n)).collect();
            let key = Self::key_from_ids(xi, yi, &zi);
            if let Some(&hit) = state.map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
                return Ok(hit);
            }
            key
        };
        self.misses.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic cache counter
        let outcome = self.inner.test(data, x, y, z)?;
        self.state.lock().map.insert(key, outcome);
        Ok(outcome)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compile<'a>(
        &'a self,
        data: &'a Dataset,
        vars: &'a [&'a str],
    ) -> Result<Box<dyn IndexedCiTest + 'a>> {
        let compiled = self.inner.compile(data, vars)?;
        let interned: Vec<u32> = {
            let mut state = self.state.lock();
            vars.iter().map(|v| state.intern(v)).collect()
        };
        Ok(Box::new(CompiledCached {
            cache: self,
            compiled,
            interned,
        }))
    }
}

/// Compiled adapter: maps the search's dense variable ids to the cache's
/// interned ids (resolved once at compile time) and shares the memo table
/// with the name-addressed path.
struct CompiledCached<'a, T> {
    cache: &'a CachedCiTest<T>,
    compiled: Box<dyn IndexedCiTest + 'a>,
    /// `interned[i]` is the cache-interned id of `vars[i]`.
    interned: Vec<u32>,
}

impl<T: CiTest> IndexedCiTest for CompiledCached<'_, T> {
    fn test_ids(&self, x: u32, y: u32, z: &[u32]) -> Result<CiOutcome> {
        crate::ci_test::check_ids(self.interned.len(), x, y, z)?;
        let zi: SmallVec<u32> = z.iter().map(|&i| self.interned[i as usize]).collect();
        let key = CachedCiTest::<T>::key_from_ids(
            self.interned[x as usize],
            self.interned[y as usize],
            &zi,
        );
        self.cache
            .lookup_or_run(key, || self.compiled.test_ids(x, y, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChiSquareTest;
    use xinsight_data::DatasetBuilder;

    #[test]
    fn caches_symmetric_queries() {
        let d = DatasetBuilder::new()
            .dimension("X", ["a", "b", "a", "b"])
            .dimension("Y", ["p", "q", "p", "q"])
            .dimension("Z", ["u", "u", "v", "v"])
            .build()
            .unwrap();
        let cached = CachedCiTest::new(ChiSquareTest::default());
        let first = cached.test(&d, "X", "Y", &["Z"]).unwrap();
        let second = cached.test(&d, "Y", "X", &["Z"]).unwrap();
        assert_eq!(first, second);
        assert_eq!(cached.misses(), 1);
        assert_eq!(cached.hits(), 1);
        cached.clear();
        let _ = cached.test(&d, "X", "Y", &["Z"]).unwrap();
        assert_eq!(cached.misses(), 2);
    }

    #[test]
    fn conditioning_order_is_normalised() {
        let d = DatasetBuilder::new()
            .dimension("X", ["a", "b", "a", "b"])
            .dimension("Y", ["p", "q", "q", "p"])
            .dimension("A", ["u", "u", "v", "v"])
            .dimension("B", ["s", "t", "s", "t"])
            .build()
            .unwrap();
        let cached = CachedCiTest::new(ChiSquareTest::default());
        let _ = cached.test(&d, "X", "Y", &["A", "B"]).unwrap();
        let _ = cached.test(&d, "X", "Y", &["B", "A"]).unwrap();
        assert_eq!(cached.misses(), 1);
        assert_eq!(cached.hits(), 1);
        assert_eq!(cached.name(), "chi-square");
    }

    #[test]
    fn compiled_and_name_paths_share_one_table() {
        let d = DatasetBuilder::new()
            .dimension("X", ["a", "b", "a", "b"])
            .dimension("Y", ["p", "q", "p", "q"])
            .dimension("Z", ["u", "u", "v", "v"])
            .build()
            .unwrap();
        let cached = CachedCiTest::new(ChiSquareTest::default());
        let vars = ["X", "Y", "Z"];
        let compiled = cached.compile(&d, &vars).unwrap();
        let by_ids = compiled.test_ids(0, 1, &[2]).unwrap();
        assert_eq!(cached.misses(), 1);
        // Same logical query through the name path: a hit, same outcome.
        let by_name = cached.test(&d, "Y", "X", &["Z"]).unwrap();
        assert_eq!(by_ids, by_name);
        assert_eq!(cached.hits(), 1);
        assert_eq!(cached.misses(), 1);
        // And again through ids with z reversed order semantics.
        assert!(compiled.independent_ids(1, 0, &[2]).is_ok());
        assert_eq!(cached.hits(), 2);
        // Out-of-range ids are structured errors, not panics.
        assert!(compiled.test_ids(7, 0, &[]).is_err());
        assert!(compiled.test_ids(0, 1, &[9]).is_err());
    }
}
