//! Criterion microbenchmarks for the XInsight reproduction.
//!
//! These complement the table/figure experiment binaries with latency
//! measurements of the individual building blocks: FD detection, CI testing,
//! FCI, XLearner (with and without the harmonious-skeleton stage), XPlainer's
//! SUM/AVG optimizations against brute force, and the baseline engines
//! (`ARCHITECTURE.md`, "Experiment harness").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use xinsight_baselines::{BoExplain, ExplanationEngine, Scorpion};
use xinsight_core::{
    SearchStrategy, SelectionCache, WhyQuery, XLearner, XLearnerOptions, XPlainer, XPlainerOptions,
};
use xinsight_data::{detect_fds, Aggregate, FdDetectionOptions, Subspace};
use xinsight_discovery::{fci, FciOptions};
use xinsight_stats::{ChiSquareTest, CiTest};
use xinsight_synth::{flight, lung_cancer, syn_a, syn_b};

fn bench_data_layer(c: &mut Criterion) {
    let data = flight::generate(20_000, 1);
    c.bench_function("fd_detection/flight_20k", |b| {
        b.iter(|| detect_fds(&data, &FdDetectionOptions::default()).unwrap())
    });
    let test = ChiSquareTest::new(0.05);
    c.bench_function("chi_square_ci/flight_20k", |b| {
        b.iter(|| {
            test.independent(&data, "Rain", "DelayOver15", &["Month"])
                .unwrap()
        })
    });
    let query = flight::why_query();
    c.bench_function("why_query_delta/flight_20k", |b| {
        b.iter(|| query.delta(&data).unwrap())
    });
}

fn bench_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("causal_discovery");
    group.sample_size(10);
    let instance = syn_a::generate(&syn_a::SynAOptions {
        n_core_variables: 10,
        n_rows: 1000,
        seed: 1,
        ..syn_a::SynAOptions::default()
    });
    let vars: Vec<&str> = instance.observed.iter().map(String::as_str).collect();
    let fci_opts = FciOptions {
        max_cond_size: Some(3),
        ..FciOptions::default()
    };
    group.bench_function("fci/syn_a_10vars", |b| {
        b.iter(|| {
            let test = ChiSquareTest::new(0.05);
            fci(&instance.data, &vars, &test, &fci_opts).unwrap()
        })
    });
    group.bench_function("xlearner/syn_a_10vars", |b| {
        b.iter(|| {
            let learner = XLearner::new(XLearnerOptions {
                fci: fci_opts.clone(),
                ..XLearnerOptions::default()
            });
            let test = ChiSquareTest::new(0.05);
            learner
                .learn_with_fd_graph(&instance.data, &vars, &test, &instance.fd_graph)
                .unwrap()
        })
    });
    let cancer = lung_cancer::generate(2000, 1);
    group.bench_function("xlearner/lung_cancer_detect_fds", |b| {
        b.iter(|| {
            let learner = XLearner::default();
            let test = ChiSquareTest::new(0.05);
            let vars: Vec<&str> = cancer.schema().dimension_names();
            learner.learn(&cancer, &vars, &test).unwrap()
        })
    });
    group.finish();
}

fn bench_xplainer(c: &mut Criterion) {
    let mut group = c.benchmark_group("xplainer");
    for &cardinality in &[10usize, 30, 100] {
        let instance = syn_b::generate(&syn_b::SynBOptions {
            n_rows: 20_000,
            cardinality,
            seed: 1,
            ..syn_b::SynBOptions::default()
        });
        let store = instance.data.clone().into_segmented();
        let xplainer = XPlainer::new(XPlainerOptions::default());
        for aggregate in [Aggregate::Sum, Aggregate::Avg] {
            let query = instance.query(aggregate);
            group.bench_with_input(
                BenchmarkId::new(format!("optimized_{aggregate:?}"), cardinality),
                &cardinality,
                |b, _| {
                    b.iter(|| {
                        xplainer
                            .explain_attribute(&store, &query, "Y", SearchStrategy::Optimized, true)
                            .unwrap()
                    })
                },
            );
        }
    }
    // Ablation: homogeneity pruning on/off for AVG.
    let instance = syn_b::generate(&syn_b::SynBOptions {
        n_rows: 20_000,
        cardinality: 30,
        seed: 1,
        ..syn_b::SynBOptions::default()
    });
    let store = instance.data.clone().into_segmented();
    let xplainer = XPlainer::new(XPlainerOptions::default());
    let query = instance.query(Aggregate::Avg);
    group.bench_function("avg_homogeneous_pruning_on", |b| {
        b.iter(|| {
            xplainer
                .explain_attribute(&store, &query, "Y", SearchStrategy::Optimized, true)
                .unwrap()
        })
    });
    group.bench_function("avg_homogeneous_pruning_off", |b| {
        b.iter(|| {
            xplainer
                .explain_attribute(&store, &query, "Y", SearchStrategy::Optimized, false)
                .unwrap()
        })
    });
    // Brute force on a small instance (the approximation-tightness baseline).
    let small = syn_b::generate(&syn_b::SynBOptions {
        n_rows: 5000,
        cardinality: 8,
        seed: 1,
        ..syn_b::SynBOptions::default()
    });
    let small_store = small.data.clone().into_segmented();
    let small_query = small.query(Aggregate::Sum);
    group.sample_size(10);
    group.bench_function("brute_force_sum_card8", |b| {
        b.iter(|| {
            xplainer
                .explain_attribute(
                    &small_store,
                    &small_query,
                    "Y",
                    SearchStrategy::BruteForce,
                    true,
                )
                .unwrap()
        })
    });
    group.finish();
}

/// The tentpole comparison: the online search engine serial vs parallel vs
/// parallel+shared-cache, on ≥100k-row datasets.
///
/// * `sum_card*` / `avg_card*` isolate the per-filter probe fan-out of one
///   high-cardinality attribute search.
/// * `engine_4queries_*` replays the `execute_batch` data path: a batch of
///   four Why Queries over FLIGHT, each searching five candidate attributes —
///   `serial` answers them one by one with fresh state (the seed engine's
///   behaviour), `parallel` fans the probes out, and `parallel_cached`
///   additionally shares one `SelectionCache` across the whole batch.
fn bench_parallel_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_engine");
    group.sample_size(10);

    let serial_opts = XPlainerOptions {
        parallel: false,
        ..XPlainerOptions::default()
    };
    let parallel_opts = XPlainerOptions::default();

    // One high-cardinality attribute on 150k rows.
    let instance = syn_b::generate(&syn_b::SynBOptions {
        n_rows: 150_000,
        cardinality: 100,
        seed: 1,
        ..syn_b::SynBOptions::default()
    });
    let store = instance.data.clone().into_segmented();
    for aggregate in [Aggregate::Sum, Aggregate::Avg] {
        let query = instance.query(aggregate);
        for (label, opts) in [("serial", &serial_opts), ("parallel", &parallel_opts)] {
            group.bench_with_input(
                BenchmarkId::new(format!("{aggregate:?}_card100_150k"), label),
                &query,
                |b, query| {
                    let xplainer = XPlainer::new(opts.clone());
                    b.iter(|| {
                        xplainer
                            .explain_attribute(&store, query, "Y", SearchStrategy::Optimized, true)
                            .unwrap()
                    })
                },
            );
        }
    }

    // A batch of four Why Queries over FLIGHT (120k rows), five candidate
    // attributes each — the `execute_batch` workload.
    let data = flight::generate(120_000, 1).into_segmented();
    let attributes = ["Rain", "Carrier", "Hour", "DayOfWeek", "DelayOver15"];
    let queries: Vec<WhyQuery> = [
        ("May", "Nov"),
        ("Jun", "Nov"),
        ("May", "Jan"),
        ("Jul", "Feb"),
    ]
    .iter()
    .map(|&(a, b)| {
        WhyQuery::new(
            "DelayMinute",
            Aggregate::Avg,
            Subspace::of("Month", a),
            Subspace::of("Month", b),
        )
        .unwrap()
    })
    .collect();
    let run_batch = |opts: &XPlainerOptions, shared: Option<&Arc<SelectionCache>>| {
        let xplainer = XPlainer::new(opts.clone());
        let mut found = 0usize;
        for query in &queries {
            for attribute in attributes {
                let candidate = match shared {
                    Some(cache) => xplainer.explain_attribute_cached(
                        &data,
                        query,
                        attribute,
                        SearchStrategy::Optimized,
                        false,
                        Arc::clone(cache),
                    ),
                    None => xplainer.explain_attribute(
                        &data,
                        query,
                        attribute,
                        SearchStrategy::Optimized,
                        false,
                    ),
                };
                found += candidate.unwrap().is_some() as usize;
            }
        }
        found
    };
    group.bench_function("engine_4queries_flight120k/serial", |b| {
        b.iter(|| run_batch(&serial_opts, None))
    });
    group.bench_function("engine_4queries_flight120k/parallel", |b| {
        b.iter(|| run_batch(&parallel_opts, None))
    });
    group.bench_function("engine_4queries_flight120k/parallel_cached", |b| {
        b.iter(|| {
            let cache = Arc::new(SelectionCache::new());
            run_batch(&parallel_opts, Some(&cache))
        })
    });
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let instance = syn_b::generate(&syn_b::SynBOptions {
        n_rows: 20_000,
        cardinality: 10,
        seed: 1,
        ..syn_b::SynBOptions::default()
    });
    let query = instance.query(Aggregate::Avg);
    group.bench_function("scorpion_card10", |b| {
        b.iter(|| {
            Scorpion::default()
                .explain(&instance.data, &query, "Y")
                .unwrap()
        })
    });
    group.bench_function("boexplain_card10", |b| {
        b.iter(|| {
            BoExplain::default()
                .explain(&instance.data, &query, "Y")
                .unwrap()
        })
    });
    group.finish();
}

/// The serving layer's per-request building blocks: canonical query
/// serialization (the wire format *and* the result-cache key), result-cache hits,
/// and inserts under eviction pressure.  The end-to-end serving numbers
/// come from the xbench benchmark (`BENCHMARK.json`); these isolate the
/// cache path that turns a repeated query into a hash lookup.
fn bench_serving_layer(c: &mut Criterion) {
    use xinsight_service::lru::{CacheKey, ResultCache};

    let query = flight::why_query();
    c.bench_function("serve/why_query_canonical_json", |b| {
        b.iter(|| query.to_json())
    });
    c.bench_function("serve/why_query_wire_parse", |b| {
        let json = query.to_json();
        b.iter(|| WhyQuery::from_json(&json).unwrap())
    });

    let value: Arc<str> = Arc::from("x".repeat(2048).as_str());
    let fingerprint = vec![(1u64, 1u64)];
    let dict_len = 7usize;
    let hot = ResultCache::new(1 << 20);
    let key = CacheKey {
        model: "flight".to_owned(),
        query: query.clone(),
        options: String::new(),
    };
    hot.insert(
        key.clone(),
        fingerprint.clone(),
        dict_len,
        Arc::clone(&value),
    );
    c.bench_function("serve/result_cache_hit", |b| {
        b.iter(|| match hot.lookup(&key, &fingerprint, dict_len) {
            xinsight_service::lru::Lookup::Hit(hit) => hit,
            other => panic!("expected a hit, got {other:?}"),
        })
    });

    // Insert path with the budget sized to keep ~8 entries: every second
    // insert runs a CLOCK sweep back under seven eighths of the budget,
    // exercising the accounting and the eviction sweep.
    let keys: Vec<CacheKey> = (0..64)
        .map(|i| CacheKey {
            model: format!("m{i}"),
            query: query.clone(),
            options: String::new(),
        })
        .collect();
    let entry_bytes = keys[0].model.len()
        + query.to_json().len()
        + keys[0].options.len()
        + 16 * fingerprint.len()
        + value.len()
        + xinsight_service::lru::ENTRY_OVERHEAD_BYTES;
    let churning = ResultCache::new(8 * entry_bytes);
    let mut i = 0usize;
    c.bench_function("serve/result_cache_insert_evicting", |b| {
        b.iter(|| {
            churning.insert(
                keys[i % keys.len()].clone(),
                fingerprint.clone(),
                dict_len,
                Arc::clone(&value),
            );
            i += 1;
        })
    });
}

criterion_group!(
    benches,
    bench_data_layer,
    bench_discovery,
    bench_xplainer,
    bench_parallel_engine,
    bench_baselines,
    bench_serving_layer
);
criterion_main!(benches);
