//! Equivalence guarantees of the offline discovery engine:
//!
//! 1. the depth-parallel skeleton/FCI path produces **identical** graphs,
//!    sepsets and CI-test counts to the serial path (the frozen-batch +
//!    deterministic-merge construction), property-tested over SYN-A seeds
//!    and checked on a SYN-B-derived discovery workload, and
//! 2. a fitted model survives save → load → serve byte-identically:
//!    `from_fitted` answers exactly like the engine that produced it.

use proptest::prelude::*;
use xinsight::core::pipeline::{XInsight, XInsightOptions};
use xinsight::core::FittedModel;
use xinsight::core::{ExplainRequest, Explanation, WhyQuery};
use xinsight::data::Aggregate;
use xinsight::discovery::{fci, fci_skeleton, FciOptions};
use xinsight::stats::{CachedCiTest, ChiSquareTest};
use xinsight::synth::{lung_cancer, syn_a, syn_b};

/// The new-API equivalent of the old `explain` shape, for equivalence
/// assertions.
fn explain(engine: &XInsight, query: &WhyQuery) -> Vec<Explanation> {
    engine
        .execute(&ExplainRequest::new(query.clone()))
        .unwrap()
        .into_explanations()
}

fn explain_many(engine: &XInsight, queries: &[WhyQuery]) -> Vec<Vec<Explanation>> {
    let requests: Vec<ExplainRequest> = queries
        .iter()
        .map(|q| ExplainRequest::new(q.clone()))
        .collect();
    engine
        .execute_batch(&requests)
        .unwrap()
        .into_iter()
        .map(|response| response.into_explanations())
        .collect()
}

fn fci_options(parallel: bool) -> FciOptions {
    FciOptions {
        max_cond_size: Some(3),
        parallel,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Depth-parallel FCI equals serial FCI on SYN-A instances — edges,
    // endpoint marks, sepsets and the `n_ci_tests` accounting.
    #[test]
    fn parallel_fci_is_byte_identical_to_serial_on_syn_a(seed in 1u64..500) {
        let instance = syn_a::generate(&syn_a::SynAOptions {
            n_core_variables: 8,
            n_rows: 600,
            seed,
            ..syn_a::SynAOptions::default()
        });
        let vars: Vec<&str> = instance.observed.iter().map(String::as_str).collect();
        let serial_test = CachedCiTest::new(ChiSquareTest::new(0.05));
        let parallel_test = CachedCiTest::new(ChiSquareTest::new(0.05));
        let serial = fci(&instance.data, &vars, &serial_test, &fci_options(false)).unwrap();
        let parallel = fci(&instance.data, &vars, &parallel_test, &fci_options(true)).unwrap();
        prop_assert_eq!(&serial.pag, &parallel.pag);
        prop_assert_eq!(&serial.sepsets, &parallel.sepsets);
        prop_assert_eq!(serial.n_ci_tests, parallel.n_ci_tests);
    }

    // Same guarantee for the skeleton phase alone (the piece XLearner calls),
    // and independently of whether the CI cache is interposed.
    #[test]
    fn parallel_skeleton_is_identical_with_and_without_cache(seed in 1u64..500) {
        let instance = syn_a::generate(&syn_a::SynAOptions {
            n_core_variables: 7,
            n_rows: 500,
            seed,
            ..syn_a::SynAOptions::default()
        });
        let vars: Vec<&str> = instance.observed.iter().map(String::as_str).collect();
        let plain = ChiSquareTest::new(0.05);
        let cached = CachedCiTest::new(ChiSquareTest::new(0.05));
        let serial = fci_skeleton(&instance.data, &vars, &plain, &fci_options(false)).unwrap();
        let parallel = fci_skeleton(&instance.data, &vars, &cached, &fci_options(true)).unwrap();
        prop_assert_eq!(&serial.graph, &parallel.graph);
        prop_assert_eq!(&serial.sepsets, &parallel.sepsets);
        prop_assert_eq!(serial.n_ci_tests, parallel.n_ci_tests);
    }
}

/// SYN-B's X → Y → Z structure, discovered over the binned measure: the
/// parallel and serial fits agree end to end (graph and explanations).
#[test]
fn parallel_fit_equals_serial_fit_on_syn_b() {
    let instance = syn_b::generate(&syn_b::SynBOptions {
        n_rows: 4000,
        cardinality: 8,
        seed: 3,
        ..syn_b::SynBOptions::default()
    });
    let parallel = XInsight::fit(&instance.data, &XInsightOptions::default()).unwrap();
    let serial = XInsight::fit(
        &instance.data,
        &XInsightOptions {
            parallel: false,
            ..XInsightOptions::default()
        },
    )
    .unwrap();
    assert_eq!(parallel.graph(), serial.graph());
    assert_eq!(parallel.fitted_model(), serial.fitted_model());
    let query = instance.query(Aggregate::Avg);
    assert_eq!(explain(&parallel, &query), explain(&serial, &query));
}

/// fit → save → load → explain equals fit → explain, through an actual file.
#[test]
fn fitted_model_file_round_trip_serves_identically() {
    let data = lung_cancer::generate(1500, 7);
    let options = XInsightOptions::default();
    let engine = XInsight::fit(&data, &options).unwrap();
    let query = lung_cancer::why_query();
    let direct = explain(&engine, &query);

    let path = std::env::temp_dir().join("xinsight_offline_equivalence_model.json");
    engine.fitted_model().save(&path).unwrap();
    let loaded = FittedModel::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, engine.fitted_model());

    let restored = XInsight::from_fitted(&data, loaded, &options).unwrap();
    assert_eq!(restored.graph(), engine.graph());
    assert_eq!(explain(&restored, &query), direct);

    // Batch serving from the loaded artifact matches too.
    let queries = [query.clone(), query];
    assert_eq!(
        explain_many(&restored, &queries),
        explain_many(&engine, &queries)
    );
}
