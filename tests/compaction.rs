//! Ingest/compaction equivalence suite.
//!
//! The segment-scoped cache and the background compactor both claim to be
//! *invisible in the answers*.  This suite pins those claims down:
//!
//! * property test — over random segment boundaries on SYN-A (and fixed
//!   boundaries on FLIGHT), `with_compacted()` folds any segmentation into
//!   a store that is row-for-row, dictionary-for-dictionary identical to
//!   the never-segmented store, with byte-identical explanations;
//! * HTTP test — across an ingest epoch bump, the prefix-scoped cache
//!   (promotion when the new rows provably cannot move the answer, merge
//!   through the partial cache otherwise) answers byte-identically to a
//!   cold engine holding the same grown store;
//! * concurrency test — compaction running *under* live reads and ingests
//!   never serves a torn snapshot: every answer is byte-identical to the
//!   reference, and the served generation only moves forward;
//! * fault test — a compactor that dies mid-rewrite leaves the server
//!   state intact: the old snapshot keeps serving, the partial rewrite is
//!   discarded, no lock is poisoned, no LRU bytes leak, and the next
//!   compaction succeeds.

// thread::sleep allowed: tests poll the background compactor with real sleeps (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use xinsight::core::json::Json;
use xinsight::core::pipeline::{XInsight, XInsightOptions};
use xinsight::core::{ExplainRequest, FittedModel, WhyQuery};
use xinsight::data::{Aggregate, Dataset, DatasetBuilder, RowMask, Subspace, Value};
use xinsight::service::{
    demo::syn_a_serving_data, demo_queries, series_value, wire, CacheKey, HttpClient, Lookup,
    ModelRegistry, ResultCache, ServerConfig,
};
use xinsight::synth::flight;

fn explain_wire(engine: &XInsight, query: &WhyQuery) -> String {
    wire::v2_result_to_string(&engine.execute(&ExplainRequest::new(query.clone())).unwrap())
}

/// Rows `lo..hi` of a dataset as a standalone dataset.
fn rows_range(data: &Dataset, lo: usize, hi: usize) -> Dataset {
    data.filter_rows(&RowMask::from_bools(
        (0..data.n_rows()).map(|i| (lo..hi).contains(&i)),
    ))
    .unwrap()
}

/// An engine over `data` restored from `model`, segmented at `cuts`.
fn chunked_engine(
    data: &Dataset,
    model: FittedModel,
    options: &XInsightOptions,
    cuts: &[usize],
) -> XInsight {
    let mut bounds = vec![0usize];
    bounds.extend(cuts.iter().copied());
    bounds.push(data.n_rows());
    let mut engine =
        XInsight::from_fitted(&rows_range(data, bounds[0], bounds[1]), model, options).unwrap();
    for pair in bounds[1..].windows(2) {
        engine = engine
            .with_ingested(&rows_range(data, pair[0], pair[1]))
            .unwrap();
    }
    engine
}

/// Serializes the raw rows of a dataset as JSON row objects — used as a
/// row-for-row, value-for-value store comparison.
fn wire_rows(data: &Dataset) -> String {
    let rows: Vec<Json> = (0..data.n_rows())
        .map(|row| {
            Json::Obj(
                data.schema()
                    .iter()
                    .map(|meta| {
                        let value = match data.value(row, &meta.name).unwrap() {
                            Value::Category(s) => Json::Str(s),
                            Value::Number(x) => Json::Num(x),
                            Value::Null => Json::Null,
                        };
                        (meta.name.clone(), value)
                    })
                    .collect(),
            )
        })
        .collect();
    Json::Arr(rows).to_string()
}

/// One fitted dataset shared across property cases: raw rows, offline
/// artifact, the never-segmented reference engine and its wire answers.
struct Fixture {
    data: Dataset,
    model: FittedModel,
    options: XInsightOptions,
    single: XInsight,
    queries: Vec<WhyQuery>,
    reference: Vec<String>,
}

impl Fixture {
    fn build(data: Dataset, mut queries: Vec<WhyQuery>) -> Fixture {
        let options = XInsightOptions::default();
        let fitted = XInsight::fit(&data, &options).unwrap();
        let model = fitted.fitted_model();
        let single = XInsight::from_fitted(&data, model.clone(), &options).unwrap();
        queries.truncate(4);
        let reference = queries.iter().map(|q| explain_wire(&single, q)).collect();
        Fixture {
            data,
            model,
            options,
            single,
            queries,
            reference,
        }
    }

    /// `compact(segmented(cuts)) == never-segmented`: one segment, the
    /// same rows in the same order with the same dictionary, byte-equal
    /// answers — and compacting again is the identity.
    fn assert_compaction_identity(&self, cuts: &[usize]) {
        let chunked = chunked_engine(&self.data, self.model.clone(), &self.options, cuts);
        let compacted = chunked.with_compacted().unwrap();
        let store = compacted.data();
        assert_eq!(store.n_segments(), 1, "compaction must fold to one segment");
        assert_eq!(store.n_rows(), self.data.n_rows());
        assert_eq!(
            store.dictionary_len(),
            self.single.data().dictionary_len(),
            "compaction must not grow or shrink the dictionary"
        );
        assert_eq!(
            wire_rows(&store.to_dataset().unwrap()),
            wire_rows(&self.single.data().to_dataset().unwrap()),
            "segmentation {cuts:?} survived compaction with different rows"
        );
        for (query, expected) in self.queries.iter().zip(&self.reference) {
            assert_eq!(
                &explain_wire(&compacted, query),
                expected,
                "segmentation {cuts:?} changed the compacted answer to {query}"
            );
        }
        // Idempotence: a single-segment store compacts to itself.
        let again = compacted.with_compacted().unwrap();
        assert_eq!(again.data().n_segments(), 1);
        assert_eq!(again.data().epoch(), store.epoch());
    }
}

fn syn_a_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = syn_a_serving_data(360, 13).unwrap();
        let queries = demo_queries(&data, 4).unwrap();
        Fixture::build(data, queries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Random segment boundaries over SYN-A: compacting any segmentation
    // reproduces the never-segmented store byte-for-byte.
    #[test]
    fn compacting_any_segmentation_yields_the_single_segment_store_on_syn_a(
        cuts in prop::collection::vec(1usize..359, 1..5),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        cuts.dedup();
        syn_a_fixture().assert_compaction_identity(&cuts);
    }
}

#[test]
fn compacting_any_segmentation_yields_the_single_segment_store_on_flight() {
    let data = flight::generate(1200, 3);
    let mut queries = vec![flight::why_query()];
    queries.extend(demo_queries(&data, 3).unwrap());
    let fixture = Fixture::build(data, queries);
    fixture.assert_compaction_identity(&[90]);
    fixture.assert_compaction_identity(&[400, 800]);
    fixture.assert_compaction_identity(&[150, 300, 450, 600, 750, 900, 1050]);
}

/// A three-location dataset: the A-vs-B query never touches the `C` rows,
/// so ingesting `C` rows grows the store without being able to move the
/// answer — the promotion case — while ingesting `A` rows forces the
/// merge-and-recompute case.
fn tri_data(n: usize) -> Dataset {
    let mut location = Vec::new();
    let mut smoking = Vec::new();
    let mut severity = Vec::new();
    for i in 0..n {
        let loc = ["A", "B", "C"][i % 3];
        location.push(loc);
        let smokes = i % 7 < 3;
        smoking.push(if smokes { "Yes" } else { "No" });
        severity.push(match (loc, smokes) {
            ("A", true) => 3.0,
            ("A", false) => 2.0,
            ("B", _) => 1.0,
            _ => 1.5,
        });
    }
    DatasetBuilder::new()
        .dimension("Location", location)
        .dimension("Smoking", smoking)
        .measure("Severity", severity)
        .build()
        .unwrap()
}

/// Rows pinned to one location (categories already present in
/// [`tri_data`], so ingesting them never grows the dictionary).
fn located_rows(n: usize, loc: &str, salt: usize) -> Dataset {
    DatasetBuilder::new()
        .dimension("Location", vec![loc; n])
        .dimension(
            "Smoking",
            (0..n)
                .map(|i| {
                    if (i + salt).is_multiple_of(3) {
                        "Yes"
                    } else {
                        "No"
                    }
                })
                .collect::<Vec<_>>(),
        )
        .measure(
            "Severity",
            (0..n)
                .map(|i| ((i * 7 + salt) % 5) as f64 / 2.0)
                .collect::<Vec<_>>(),
        )
        .build()
        .unwrap()
}

fn ab_query() -> WhyQuery {
    WhyQuery::new(
        "Severity",
        Aggregate::Avg,
        Subspace::of("Location", "A"),
        Subspace::of("Location", "B"),
    )
    .unwrap()
}

// The prefix-scoped cache across an ingest epoch bump, over HTTP: a
// promoted answer (untouched suffix) and a merged answer (intersecting
// suffix) must both be byte-identical to a cold engine holding the same
// grown store — the cache is invisible in the answers, it only decides
// how much work the server re-did.
#[test]
fn prefix_scoped_cache_answers_equal_cold_recompute_across_ingest() {
    let dir = std::env::temp_dir().join(format!("xinsight_compaction_pm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let base = tri_data(150);
    let query = ab_query();
    let options = XInsightOptions::default();
    let registry = ModelRegistry::open_empty(&dir, options);
    registry
        .fit_and_save("pm", &base, vec![query.clone()])
        .unwrap();
    let loaded = registry.load("pm").unwrap();
    let base_engine = &loaded.engine;

    let handle = xinsight::service::start(Arc::new(registry), &ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let body = format!("{{\"model\":\"pm\",\"query\":{}}}", query.to_json());
    let explain = |client: &mut HttpClient| -> (bool, String) {
        let resp = client.post("/v2/explain", &body).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        (
            doc.get("cached").unwrap().as_bool().unwrap(),
            doc.get("result").unwrap().to_string(),
        )
    };

    // Warm: recompute then replay on the pristine store.
    let (cached, answer) = explain(&mut client);
    assert!(!cached);
    assert_eq!(answer, explain_wire(base_engine, &query));
    let (cached, _) = explain(&mut client);
    assert!(cached);

    // Non-intersecting ingest: the suffix segment holds only `C` rows, so
    // the cached entry is *promoted* — and its bytes must still equal a
    // cold engine over the grown store.
    let c_rows = located_rows(18, "C", 1);
    let resp = client.ingest_v2("pm", &wire_rows(&c_rows)).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let grown_c = base_engine.with_ingested(&c_rows).unwrap();
    let (cached, answer) = explain(&mut client);
    assert!(
        cached,
        "untouched-suffix ingest must promote, not recompute"
    );
    assert_eq!(
        answer,
        explain_wire(&grown_c, &query),
        "promoted answer diverged from a cold recompute over the grown store"
    );

    // Intersecting ingest: `A` rows can move the A-vs-B scores, so the
    // server must recompute (merging the replayed per-prefix partials with
    // fresh partials for the new segment) — byte-equal to the cold engine.
    let a_rows = located_rows(12, "A", 2);
    let resp = client.ingest_v2("pm", &wire_rows(&a_rows)).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let grown_ca = grown_c.with_ingested(&a_rows).unwrap();
    let (cached, answer) = explain(&mut client);
    assert!(!cached, "intersecting ingest must force a recompute");
    assert_eq!(
        answer,
        explain_wire(&grown_ca, &query),
        "merged answer diverged from a cold recompute over the grown store"
    );
    // And the recomputed entry replays on the next request.
    let (cached, answer) = explain(&mut client);
    assert!(cached);
    assert_eq!(answer, explain_wire(&grown_ca, &query));

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// Background compaction under live reads and ingests: every concurrently
// served answer stays byte-identical to the reference (the ingested rows
// provably cannot move it), the served generation only moves forward, and
// the store quiesces to a single compacted segment.
#[test]
fn concurrent_compaction_never_serves_a_torn_snapshot() {
    let dir = std::env::temp_dir().join(format!("xinsight_compaction_cc_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let base = tri_data(150);
    let query = ab_query();
    let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
    registry
        .fit_and_save("cc", &base, vec![query.clone()])
        .unwrap();
    let loaded = registry.load("cc").unwrap();
    let expected = explain_wire(&loaded.engine, &query);

    let handle = xinsight::service::start(
        Arc::new(registry),
        &ServerConfig {
            workers: 4,
            compact_after: 3,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let body = format!("{{\"model\":\"cc\",\"query\":{}}}", query.to_json());

    // Reader: every answer, whichever snapshot served it, must equal the
    // reference bytes — a torn snapshot could not.
    let reader = {
        let body = body.clone();
        let expected = expected.clone();
        std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            for i in 0..150 {
                let resp = client.post("/v2/explain", &body).unwrap();
                assert_eq!(resp.status, 200, "read {i}: {}", resp.body);
                let doc = Json::parse(&resp.body).unwrap();
                assert_eq!(
                    doc.get("result").unwrap().to_string(),
                    expected,
                    "read {i} served a divergent answer during compaction"
                );
            }
        })
    };
    // Ingester: keeps pushing the store past the compaction threshold.
    let ingester = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        for i in 0..10 {
            let rows = located_rows(6, "C", i);
            let resp = client.ingest_v2("cc", &wire_rows(&rows)).unwrap();
            assert_eq!(resp.status, 200, "ingest {i}: {}", resp.body);
            std::thread::sleep(Duration::from_millis(25));
        }
    });
    // Monitor: the served generation is monotone while ingests and
    // compactions race.
    let monitor = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        let mut last = 0u64;
        for _ in 0..40 {
            let resp = client.get("/models").unwrap();
            let doc = Json::parse(&resp.body).unwrap();
            let generation = doc
                .as_arr()
                .unwrap()
                .iter()
                .find(|m| m.get("id").unwrap().as_str().unwrap() == "cc")
                .unwrap()
                .get("generation")
                .unwrap()
                .as_u64()
                .unwrap();
            assert!(
                generation >= last,
                "generation went backwards: {last} -> {generation}"
            );
            last = generation;
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    reader.join().unwrap();
    ingester.join().unwrap();
    monitor.join().unwrap();

    // Quiesce: with ingests stopped the compactor folds the store to one
    // segment, and the answer is still byte-identical.
    let mut client = HttpClient::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let resp = client.get("/metrics").unwrap();
        let runs = series_value(&resp.body, "xinsight_compactions_total").unwrap();
        let segments = series_value(&resp.body, "xinsight_model_segments{model=\"cc\"}").unwrap();
        if runs >= 1.0 && segments == 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "compactor did not quiesce the store: runs={runs}, segments={segments}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let resp = client.post("/v2/explain", &body).unwrap();
    assert_eq!(resp.status, 200);
    let doc = Json::parse(&resp.body).unwrap();
    assert_eq!(doc.get("result").unwrap().to_string(), expected);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// Fault injection: a compactor that panics mid-rewrite (after the
// expensive off-lock rewrite, before the swap) must leave everything as
// it was — old snapshot served, partial rewrite discarded, no poisoned
// lock, no leaked LRU bytes — and the *next* compaction must succeed.
#[test]
fn killed_compactor_leaves_the_serving_state_intact() {
    let dir =
        std::env::temp_dir().join(format!("xinsight_compaction_fault_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let base = tri_data(120);
    let query = ab_query();
    let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
    registry
        .fit_and_save("fault", &base, vec![query.clone()])
        .unwrap();
    registry.load("fault").unwrap();
    registry.ingest("fault", &located_rows(9, "C", 1)).unwrap();
    registry.ingest("fault", &located_rows(9, "A", 2)).unwrap();
    let before = registry.get("fault").unwrap();
    assert_eq!(before.engine.data().n_segments(), 3);
    let answer = explain_wire(&before.engine, &query);

    // The LRU as the server would hold it: one warm entry under the
    // current fingerprint.
    let cache = ResultCache::new(64 * 1024);
    let key = CacheKey {
        model: "fault".to_owned(),
        query: query.clone(),
        options: String::new(),
    };
    cache.insert(
        key.clone(),
        before.fingerprint.clone(),
        before.dict_len,
        Arc::from(answer.as_str()),
    );
    let bytes_before = cache.stats().bytes;

    // Kill the compactor mid-rewrite.
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        registry.compact_with_fault("fault", || panic!("compactor killed mid-rewrite"))
    }));
    assert!(crashed.is_err(), "the injected panic must unwind out");

    // Old snapshot still served, partial rewrite discarded.
    let after = registry.get("fault").unwrap();
    assert!(
        Arc::ptr_eq(&before, &after),
        "a crashed compaction must not swap the model"
    );
    assert_eq!(after.engine.data().n_segments(), 3);
    assert_eq!(explain_wire(&after.engine, &query), answer);

    // No leaked or lost LRU bytes: the warm entry still hits under the
    // unchanged fingerprint with unchanged accounting.
    assert_eq!(cache.stats().bytes, bytes_before);
    match cache.lookup(&key, &after.fingerprint, after.dict_len) {
        Lookup::Hit(value) => assert_eq!(&*value, answer.as_str()),
        other => panic!("warm entry lost after crashed compaction: {other:?}"),
    }

    // No poisoned lock: the next compaction starts clean and succeeds.
    let report = registry
        .compact("fault")
        .unwrap()
        .expect("post-crash compaction must run");
    assert_eq!(report.segments_before, 3);
    assert_eq!(report.segments_after, 1);
    let compacted = registry.get("fault").unwrap();
    assert_eq!(compacted.engine.data().n_segments(), 1);
    assert_eq!(explain_wire(&compacted.engine, &query), answer);

    // Remap as the compactor loop does post-swap: the entry survives with
    // consistent byte accounting and serves under the new fingerprint.
    cache.remap_model("fault", &report.old_fingerprint, &report.new_fingerprint);
    let stats = cache.stats();
    assert_eq!(stats.entries, 1);
    match cache.lookup(&key, &compacted.fingerprint, compacted.dict_len) {
        Lookup::Hit(value) => assert_eq!(&*value, answer.as_str()),
        other => panic!("entry did not survive the compaction remap: {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}
