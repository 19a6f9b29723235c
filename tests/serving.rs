//! Serving-layer equivalence tests.
//!
//! The online subsystem's core correctness claim is that every caching and
//! concurrency layer it adds is *invisible* in the answers:
//!
//! * serving through the bounded LRU [`ResultCache`] — including after
//!   forced evictions and recomputation — returns explanation bytes
//!   identical to direct [`XInsight::execute_batch`] (property test);
//! * a `fit → save bundle → serve over HTTP → N concurrent clients`
//!   round trip answers every query byte-identically to a serial,
//!   freshly fitted engine (integration test).

// HashMap here never leaks iteration order into output: scratch counting map in an assertion (see clippy.toml).
#![allow(clippy::disallowed_types)]

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use xinsight::core::pipeline::{XInsight, XInsightOptions};
use xinsight::core::{ExplainRequest, WhyQuery};
use xinsight::data::{Aggregate, Dataset, DatasetBuilder, Subspace};
use xinsight::service::{
    demo_queries, lru::CacheKey, lru::ResultCache, wire, HttpClient, ModelRegistry, ServerConfig,
};

/// A small lung-cancer-style dataset: enough structure that explanations
/// are non-trivial, small enough that `fit` is test-speed.
fn serving_data() -> Dataset {
    let mut location = Vec::new();
    let mut stress = Vec::new();
    let mut smoking = Vec::new();
    let mut severity = Vec::new();
    for i in 0..240 {
        let loc_a = i % 2 == 0;
        location.push(if loc_a { "A" } else { "B" });
        let high = i % 3 == 0;
        stress.push(if high { "High" } else { "Low" });
        let smokes = match (loc_a, high) {
            (true, true) => i % 10 < 9,
            (true, false) => i % 10 < 7,
            (false, true) => i % 10 < 4,
            (false, false) => i % 10 < 1,
        };
        smoking.push(if smokes { "Yes" } else { "No" });
        severity.push(match (smokes, i % 5) {
            (true, 0..=3) => 3.0,
            (true, _) => 2.0,
            (false, 0) => 2.0,
            (false, _) => 1.0,
        });
    }
    DatasetBuilder::new()
        .dimension("Location", location)
        .dimension("Stress", stress)
        .dimension("Smoking", smoking)
        .measure("LungCancer", severity)
        .build()
        .unwrap()
}

/// One fitted engine + query pool + per-query direct wire answers, shared
/// across property cases (the fit is the expensive part).
struct Fixture {
    engine: XInsight,
    queries: Vec<WhyQuery>,
    direct: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = serving_data();
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let mut queries = demo_queries(&data, 6).unwrap();
        queries.push(
            WhyQuery::new(
                "LungCancer",
                Aggregate::Avg,
                Subspace::of("Location", "A"),
                Subspace::of("Location", "B"),
            )
            .unwrap(),
        );
        let direct = queries
            .iter()
            .map(|q| {
                let response = engine.execute(&ExplainRequest::new(q.clone())).unwrap();
                wire::v2_result_to_string(&response)
            })
            .collect();
        Fixture {
            engine,
            queries,
            direct,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Serving a random request stream through a (tiny, eviction-heavy)
    // LRU returns byte-identical answers to the direct engine path.
    #[test]
    fn lru_cached_serving_is_byte_identical_to_direct(
        stream in prop::collection::vec(0usize..7, 1..30),
        budget_entries in 1usize..4,
    ) {
        let fx = fixture();
        // Budget sized in "entries" so most streams force evictions: one
        // entry is roughly key + value + overhead.
        let per_entry = fx.queries[0].to_json().len()
            + fx.direct.iter().map(String::len).max().unwrap()
            + xinsight::service::lru::ENTRY_OVERHEAD_BYTES
            + 16 // one-segment fingerprint
            + 8;
        let cache = ResultCache::new(budget_entries * per_entry);
        // A fixed store snapshot for the whole stream: one sealed segment,
        // one dictionary size.  (The fingerprint-scoped paths — promotion,
        // merge, remap — are unit-tested in the lru module and exercised
        // over HTTP in tests/compaction.rs.)
        let fingerprint = vec![(1u64, 1u64)];
        let dict_len = 7usize;
        for &raw in &stream {
            let i = raw % fx.queries.len();
            let query = &fx.queries[i];
            let key = CacheKey {
                model: "m".to_owned(),
                query: query.clone(),
                options: wire::RequestOptions::default().cache_key(),
            };
            // The serving path: LRU hit, or engine + insert on miss.
            let served: Arc<str> = match cache.lookup(&key, &fingerprint, dict_len) {
                xinsight::service::lru::Lookup::Hit(hit) => hit,
                _ => {
                    let answers = fx.engine
                        .execute_batch(&[ExplainRequest::new(query.clone())])
                        .unwrap();
                    let response = answers.into_iter().next().unwrap();
                    let json: Arc<str> = Arc::from(wire::v2_result_to_string(&response).as_str());
                    cache.insert(key, fingerprint.clone(), dict_len, Arc::clone(&json));
                    json
                }
            };
            prop_assert_eq!(&*served, fx.direct[i].as_str(),
                            "query {} diverged through the LRU", i);
        }
        let stats = cache.stats();
        prop_assert!(stats.bytes <= stats.byte_budget);
        // When the distinct working set cannot co-reside under the budget,
        // evictions must actually have happened — the equivalence above
        // then covered the recompute-after-eviction path too.  Dedupe by
        // query *value*: two pool indices can carry equal queries and then
        // share one cache entry.
        let distinct: std::collections::HashMap<&WhyQuery, usize> = stream
            .iter()
            .map(|raw| raw % fx.queries.len())
            .map(|i| (&fx.queries[i], i))
            .collect();
        let working_set_bytes: usize = distinct
            .values()
            .map(|&i| {
                "m".len()
                    + fx.queries[i].to_json().len()
                    + fx.direct[i].len()
                    + 16 // one-segment fingerprint
                    + xinsight::service::lru::ENTRY_OVERHEAD_BYTES
            })
            .sum();
        // (An entry can also be refused outright when it alone exceeds the
        // budget — that is the other bounded-cache path, equally covered
        // by the byte-equivalence loop above.)
        if working_set_bytes > stats.byte_budget {
            prop_assert!(stats.evictions > 0 || stats.uncacheable > 0,
                         "working set of {working_set_bytes} bytes vs budget {} \
                          with neither evictions nor refusals",
                         stats.byte_budget);
        }
    }
}

/// `fit → save → serve → N concurrent clients == serial direct answers`,
/// over real HTTP with the bundle reloaded from disk.
#[test]
fn concurrent_http_serving_matches_serial_direct_answers() {
    let fx = fixture();
    let data = serving_data();
    let dir = std::env::temp_dir().join(format!("xinsight_serving_it_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // fit → save: persist the bundle, then serve it from disk only.
    let options = XInsightOptions::default();
    let registry = ModelRegistry::open_empty(&dir, options.clone());
    xinsight::service::save_bundle(&dir, "served", &data, &fx.engine, &fx.queries).unwrap();
    drop(registry);
    let registry = ModelRegistry::open(&dir, options).unwrap();
    let handle = xinsight::service::start(
        Arc::new(registry),
        &ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // N concurrent clients, each issuing every query (offset start) plus
    // one batch request; every answer must equal the serial direct bytes.
    let mut clients = Vec::new();
    for offset in 0..4usize {
        clients.push(std::thread::spawn(move || {
            let fx = fixture();
            let mut http = HttpClient::connect(addr).unwrap();
            for round in 0..fx.queries.len() {
                let i = (offset + round) % fx.queries.len();
                let body = format!(
                    "{{\"model\":\"served\",\"query\":{}}}",
                    fx.queries[i].to_json()
                );
                let resp = http.post("/v2/explain", &body).unwrap();
                assert_eq!(resp.status, 200, "client {offset}: {}", resp.body);
                let doc = xinsight::core::json::Json::parse(&resp.body).unwrap();
                assert_eq!(
                    doc.get("result").unwrap().to_string(),
                    fx.direct[i],
                    "client {offset} query {i} diverged over HTTP"
                );
            }
            // One batch covering the whole pool, order preserved.
            let batch: Vec<String> = fx.queries.iter().map(WhyQuery::to_json).collect();
            let body = format!("{{\"model\":\"served\",\"queries\":[{}]}}", batch.join(","));
            let resp = http.post("/v2/explain_batch", &body).unwrap();
            assert_eq!(resp.status, 200, "client {offset}: {}", resp.body);
            let doc = xinsight::core::json::Json::parse(&resp.body).unwrap();
            let results = doc.get("results").unwrap().as_arr().unwrap().to_vec();
            assert_eq!(results.len(), fx.queries.len());
            for (i, result) in results.iter().enumerate() {
                assert_eq!(
                    result.get("result").unwrap().to_string(),
                    fx.direct[i],
                    "client {offset} batch slot {i} diverged"
                );
            }
        }));
    }
    for client in clients {
        client.join().unwrap();
    }

    // Graceful shutdown over the wire; the handle drains cleanly.
    let mut http = HttpClient::connect(addr).unwrap();
    assert_eq!(http.post("/admin/shutdown", "{}").unwrap().status, 200);
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
