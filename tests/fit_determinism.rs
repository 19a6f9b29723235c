//! A parallel fit is deterministic down to its CI-cache statistics.
//!
//! The skeleton search evaluates each edge's two directions as one work
//! item on one thread, so the conditioning sets the directions share are
//! computed once and then answered from the CI cache, as in a serial fit.
//! A parallel fit therefore reports the serial fit's cache hits, misses
//! and entries, and two parallel fits of one dataset save byte-identical
//! bundles (the cache statistics are written to `meta.json`).

use std::path::{Path, PathBuf};
use xinsight::core::pipeline::{XInsight, XInsightOptions};
use xinsight::data::{Dataset, DatasetBuilder};
use xinsight::service::registry::bundle_paths;
use xinsight::service::save_bundle;
use xinsight::synth::syn_a;

/// A SYN-A instance plus one measure, the shape of a served fit.
fn dataset(seed: u64) -> Dataset {
    let instance = syn_a::generate(&syn_a::SynAOptions {
        n_core_variables: 16,
        n_rows: 3_000,
        seed,
        ..syn_a::SynAOptions::default()
    });
    let data = &instance.data;
    let mut builder = DatasetBuilder::new();
    for name in data.schema().dimension_names() {
        builder = builder.dimension_column(name, data.dimension(name).unwrap().clone());
    }
    let measure: Vec<f64> = (0..data.n_rows()).map(|i| (i % 17) as f64).collect();
    builder.measure("M", measure).build().unwrap()
}

fn fit(data: &Dataset, parallel: bool) -> XInsight {
    let options = XInsightOptions {
        parallel,
        ..XInsightOptions::default()
    };
    XInsight::fit(data, &options).unwrap()
}

/// A fresh directory for one saved bundle.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "xinsight-fit-determinism-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(model.json, meta.json)` bytes of a bundle saved from a parallel fit.
fn saved_bundle(data: &Dataset, dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let engine = fit(data, true);
    save_bundle(dir, "m", data, &engine, &[]).unwrap();
    let (meta, model, _) = bundle_paths(dir, "m");
    let bytes = (std::fs::read(model).unwrap(), std::fs::read(meta).unwrap());
    std::fs::remove_dir_all(dir).unwrap();
    bytes
}

#[test]
fn parallel_fit_has_the_serial_fits_cache_statistics() {
    for seed in [3, 11] {
        let data = dataset(seed);
        let serial = fit(&data, false);
        let serial_stats = serial.learner_result().ci_cache_stats;
        assert!(
            serial_stats.hits > 0,
            "seed {seed}: no cache hit to compare"
        );
        for run in 0..3 {
            let parallel = fit(&data, true);
            assert_eq!(
                parallel.learner_result().ci_cache_stats,
                serial_stats,
                "seed {seed}, parallel run {run}"
            );
            assert_eq!(
                parallel.learner_result().n_ci_tests,
                serial.learner_result().n_ci_tests
            );
        }
    }
}

#[test]
fn two_parallel_fits_save_byte_identical_bundles() {
    let data = dataset(5);
    let first = saved_bundle(&data, &scratch_dir("a"));
    let second = saved_bundle(&data, &scratch_dir("b"));
    assert!(
        first.0 == second.0,
        "model.json differs between parallel fits"
    );
    assert!(
        first.1 == second.1,
        "meta.json differs between parallel fits:\n{}\n{}",
        String::from_utf8_lossy(&first.1),
        String::from_utf8_lossy(&second.1)
    );
}
