//! Thread-pool configuration shared by the engine and the experiment
//! binaries.
//!
//! All of XInsight's online-phase parallelism (per-attribute and
//! per-filter fan-out) and the experiment harness's sweeps run on rayon's
//! global pool.  This module is the single place that pool gets sized, so an
//! engine embedded in a server and a benchmark binary behave identically:
//!
//! 1. the `XINSIGHT_THREADS` environment variable, when set to a positive
//!    integer, pins the worker count;
//! 2. otherwise rayon's own defaults apply (`RAYON_NUM_THREADS`, then the
//!    machine's available parallelism).
//!
//! Call [`configure_pool_from_env`] once at process start (before the first
//! parallel operation — the pool size latches on first use).  Calling it
//! again, or after the pool latched, is harmless: the existing size stays.

/// Environment variable naming the worker-thread count for the shared pool.
pub const THREADS_ENV: &str = "XINSIGHT_THREADS";

/// Applies `XINSIGHT_THREADS` to the global rayon pool (see the module docs
/// for the resolution order) and returns the number of threads parallel
/// operations will use.
pub fn configure_pool_from_env() -> usize {
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        // Ignore failure: the pool size already latched, which the return
        // value below reports faithfully.
        let _ = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global();
    }
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_a_positive_thread_count() {
        let n = configure_pool_from_env();
        assert!(n >= 1);
        // Idempotent: a second call reports the same latched size.
        assert_eq!(configure_pool_from_env(), n);
    }
}
