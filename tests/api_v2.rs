//! Equivalence tests for the unified execution API and the `/v2` wire
//! surface.
//!
//! The redesign's correctness bar has two halves:
//!
//! * **engine level** — `execute` with a default [`ExplainRequest`]
//!   serializes to the same result payload on every call, including when
//!   replayed through the bounded LRU (property test);
//! * **wire level** — on a served SYN-A bundle, `/v2/explain` with
//!   default options answers with the bytes of a direct `execute`, and the
//!   per-request controls (`top_k`, type allowlist, deadline) behave
//!   end-to-end, with differently-parameterized requests never aliasing in
//!   the result cache.

use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use xinsight::core::json::Json;
use xinsight::core::pipeline::{XInsight, XInsightOptions};
use xinsight::core::{ExplainRequest, WhyQuery};
use xinsight::service::{
    demo::syn_a_serving_data, demo_queries, demo_v2_options, lru::CacheKey, lru::ResultCache, wire,
    wire::RequestOptions, HttpClient, ModelRegistry, ServerConfig,
};

/// One fitted SYN-A serving engine + query pool + per-query reference
/// answers, shared across property cases (the fit is the expensive part).
struct Fixture {
    engine: XInsight,
    queries: Vec<WhyQuery>,
    /// Serialized result payloads of default requests — the bytes the
    /// LRU-served path must reproduce.
    reference: Vec<String>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = syn_a_serving_data(500, 7).unwrap();
        let engine = XInsight::fit(&data, &XInsightOptions::default()).unwrap();
        let queries = demo_queries(&data, 6).unwrap();
        let reference = queries
            .iter()
            .map(|q| {
                wire::v2_result_to_string(&engine.execute(&ExplainRequest::new(q.clone())).unwrap())
            })
            .collect();
        Fixture {
            engine,
            queries,
            reference,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // `execute` with default options — directly and served through a
    // tiny, eviction-heavy LRU — reproduces the reference payload's bytes
    // exactly.
    #[test]
    fn default_execute_is_byte_identical_to_legacy_explain(
        stream in prop::collection::vec(0usize..6, 1..20),
        budget_entries in 1usize..4,
    ) {
        let fx = fixture();
        let per_entry = fx.queries[0].to_json().len()
            + fx.reference.iter().map(String::len).max().unwrap()
            + xinsight::service::lru::ENTRY_OVERHEAD_BYTES
            + 16 // one-segment fingerprint
            + 8;
        let cache = ResultCache::new(budget_entries * per_entry);
        // One fixed store snapshot for the whole stream.
        let fingerprint = vec![(1u64, 1u64)];
        let dict_len = 7usize;
        for &raw in &stream {
            let i = raw % fx.queries.len();
            let query = &fx.queries[i];
            // Direct: the new unified core.
            let response = fx
                .engine
                .execute(&ExplainRequest::new(query.clone()))
                .unwrap();
            prop_assert!(!response.truncated);
            prop_assert!(!response.deadline_hit);
            for (rank0, scored) in response.explanations.iter().enumerate() {
                prop_assert_eq!(scored.rank, rank0 + 1);
                prop_assert_eq!(
                    scored.score.to_bits(),
                    scored.explanation.responsibility.to_bits()
                );
            }
            let direct = wire::v2_result_to_string(&response);
            prop_assert_eq!(&direct, &fx.reference[i], "query {} diverged from the reference", i);

            // Through the LRU, exactly as the serving adapter caches it.
            let key = CacheKey {
                model: "syn_a".to_owned(),
                query: query.clone(),
                options: RequestOptions::default().cache_key(),
            };
            let served: Arc<str> = match cache.lookup(&key, &fingerprint, dict_len) {
                xinsight::service::lru::Lookup::Hit(hit) => hit,
                _ => {
                    let json: Arc<str> = Arc::from(direct.as_str());
                    cache.insert(key, fingerprint.clone(), dict_len, Arc::clone(&json));
                    json
                }
            };
            prop_assert_eq!(&*served, fx.reference[i].as_str(),
                            "query {} diverged through the LRU", i);
        }
    }
}

/// Serves the fixture's SYN-A bundle over real HTTP, for wire-level tests.
fn serve_fixture(tag: &str) -> (xinsight::service::ServerHandle, std::path::PathBuf) {
    let fx = fixture();
    let data = syn_a_serving_data(500, 7).unwrap();
    let dir = std::env::temp_dir().join(format!("xinsight_api_v2_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let options = XInsightOptions::default();
    xinsight::service::save_bundle(&dir, "syn_a", &data, &fx.engine, &fx.queries).unwrap();
    let registry = ModelRegistry::open(&dir, options).unwrap();
    let handle = xinsight::service::start(Arc::new(registry), &ServerConfig::default()).unwrap();
    xinsight::service::wait_healthy(handle.addr(), std::time::Duration::from_secs(10)).unwrap();
    (handle, dir)
}

/// `/v2/explain` with default options answers every served SYN-A query
/// with the bytes of `v2_result_to_string` over a direct `execute`, and
/// the envelope is well-formed.
#[test]
fn v2_wire_with_defaults_equals_direct_execute_on_served_syn_a() {
    let fx = fixture();
    let (handle, dir) = serve_fixture("equiv");
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    for (i, query) in fx.queries.iter().enumerate() {
        let resp = client.explain_v2("syn_a", &query.to_json(), None).unwrap();
        assert_eq!(resp.status, 200, "query {i}: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("model").unwrap().as_str().unwrap(), "syn_a");
        assert!(!doc.get("deadline_hit").unwrap().as_bool().unwrap());
        assert!(matches!(doc.get("provenance").unwrap(), Json::Null));
        let result = doc.get("result").unwrap();
        assert_eq!(
            result.to_string(),
            fx.reference[i],
            "the wire diverged from a direct execute on query {i}"
        );
        assert!(!result.get("truncated").unwrap().as_bool().unwrap());
        let slots = result.get("explanations").unwrap().as_arr().unwrap();
        for (rank0, slot) in slots.iter().enumerate() {
            assert_eq!(
                slot.get("rank").unwrap().as_u64().unwrap(),
                (rank0 + 1) as u64
            );
        }
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The v2 controls work end-to-end over HTTP: `top_k` truncates (and is
/// its own cache key), the type allowlist filters, a zero deadline yields
/// a flagged partial answer that is never cached, and the demo option pool
/// parses against the live server.
#[test]
fn v2_controls_work_end_to_end_on_served_syn_a() {
    let fx = fixture();
    let (handle, dir) = serve_fixture("controls");
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    // Pick a query with a non-empty answer so top_k has something to trim.
    let (query, full_len) = fx
        .queries
        .iter()
        .zip(&fx.reference)
        .map(|(q, reference)| {
            let doc = Json::parse(reference).unwrap();
            (q, doc.get("explanations").unwrap().as_arr().unwrap().len())
        })
        .max_by_key(|&(_, n)| n)
        .unwrap();
    let query_json = query.to_json();
    assert!(full_len >= 1, "fixture has no explainable query");

    // Warm the default-options entry, then check top_k=1 misses (distinct
    // key) and truncates.
    let first = client.explain_v2("syn_a", &query_json, None).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    let top1 = client
        .explain_v2("syn_a", &query_json, Some("{\"top_k\":1}"))
        .unwrap();
    let doc = Json::parse(&top1.body).unwrap();
    assert!(
        !doc.get("cached").unwrap().as_bool().unwrap(),
        "top_k=1 aliased the default-options LRU entry"
    );
    let result = doc.get("result").unwrap();
    let slots = result.get("explanations").unwrap().as_arr().unwrap();
    assert!(slots.len() <= 1);
    assert_eq!(
        result.get("truncated").unwrap().as_bool().unwrap(),
        full_len > 1
    );
    // Its repeat is a hit on its own entry.
    let again = client
        .explain_v2("syn_a", &query_json, Some("{\"top_k\":1}"))
        .unwrap();
    assert!(Json::parse(&again.body)
        .unwrap()
        .get("cached")
        .unwrap()
        .as_bool()
        .unwrap());

    // Causal-only allowlist: every returned explanation is causal.
    let causal = client
        .explain_v2("syn_a", &query_json, Some("{\"types\":[\"causal\"]}"))
        .unwrap();
    let doc = Json::parse(&causal.body).unwrap();
    for slot in doc
        .get("result")
        .unwrap()
        .get("explanations")
        .unwrap()
        .as_arr()
        .unwrap()
    {
        assert_eq!(
            slot.get("explanation")
                .unwrap()
                .get("type")
                .unwrap()
                .as_str()
                .unwrap(),
            "causal"
        );
    }

    // A zero deadline: flagged partial answer, and *not* cached — the
    // repeat recomputes (cached:false again) instead of replaying the
    // partiality.
    for round in 0..2 {
        let rushed = client
            .explain_v2("syn_a", &query_json, Some("{\"deadline_ms\":0}"))
            .unwrap();
        let doc = Json::parse(&rushed.body).unwrap();
        assert!(
            !doc.get("cached").unwrap().as_bool().unwrap(),
            "round {round}"
        );
        assert!(
            doc.get("deadline_hit").unwrap().as_bool().unwrap(),
            "round {round}"
        );
    }

    // The demo option pool is servable as-is.
    for options in demo_v2_options(6) {
        let resp = client
            .explain_v2("syn_a", &query_json, Some(&options))
            .unwrap();
        assert_eq!(resp.status, 200, "options {options}: {}", resp.body);
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /v2/graph` serves the fitted graph of a loaded model in all three
/// formats, the renderings match the shared emitter applied to the
/// engine's own fitted model, and parameter errors are structured.
#[test]
fn graph_v2_serves_json_dot_and_mermaid() {
    let fx = fixture();
    let (handle, dir) = serve_fixture("graph");
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let fitted = fx.engine.fitted_model();

    // JSON: nodes in dense-id order, edges referencing them with marks from
    // the closed vocabulary, sepset ids resolved to names.
    let resp = client.get("/v2/graph?model=syn_a").unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let doc = Json::parse(&resp.body).unwrap();
    assert_eq!(doc.get("model").unwrap().as_str().unwrap(), "syn_a");
    let graph = doc.get("graph").unwrap();
    let nodes: Vec<String> = graph.get("nodes").unwrap().as_string_vec().unwrap();
    assert_eq!(&nodes, fitted.graph.names());
    let edges = graph.get("edges").unwrap().as_arr().unwrap();
    assert_eq!(edges.len(), fitted.graph.n_edges());
    for edge in edges {
        let a = edge.get("a").unwrap().as_u64().unwrap() as usize;
        let b = edge.get("b").unwrap().as_u64().unwrap() as usize;
        assert!(a < nodes.len() && b < nodes.len());
        for key in ["mark_a", "mark_b"] {
            let mark = edge.get(key).unwrap().as_str().unwrap().to_owned();
            assert!(matches!(mark.as_str(), "tail" | "arrow" | "circle"));
        }
    }
    let fci_variables: Vec<String> = doc.get("fci_variables").unwrap().as_string_vec().unwrap();
    assert_eq!(fci_variables, fitted.fci_variables);
    for entry in doc.get("sepsets").unwrap().as_arr().unwrap() {
        for key in ["x", "y"] {
            let name = entry.get(key).unwrap().as_str().unwrap().to_owned();
            assert!(fci_variables.contains(&name), "unknown sepset name {name}");
        }
    }
    assert_eq!(
        doc.get("n_ci_tests").unwrap().as_u64().unwrap() as usize,
        fitted.n_ci_tests
    );

    // DOT and Mermaid bytes come from the one shared emitter.
    let dot = client.get("/v2/graph?model=syn_a&format=dot").unwrap();
    assert_eq!(dot.status, 200);
    assert_eq!(dot.body, xinsight::graph::render::to_dot(&fitted.graph));
    let mermaid = client.get("/v2/graph?model=syn_a&format=mermaid").unwrap();
    assert_eq!(mermaid.status, 200);
    assert_eq!(
        mermaid.body,
        xinsight::graph::render::to_mermaid(&fitted.graph)
    );
    // Identical requests serve identical bytes (deterministic emission).
    let dot2 = client.get("/v2/graph?model=syn_a&format=dot").unwrap();
    assert_eq!(dot2.body, dot.body);

    // Parameter errors are structured JSON, not panics.
    let missing = client.get("/v2/graph").unwrap();
    assert_eq!(missing.status, 400, "body: {}", missing.body);
    assert!(missing.body.contains("model"));
    let unknown_model = client.get("/v2/graph?model=nope").unwrap();
    assert_eq!(unknown_model.status, 404);
    let bad_format = client.get("/v2/graph?model=syn_a&format=png").unwrap();
    assert_eq!(bad_format.status, 400);
    assert!(bad_format.body.contains("format"));
    let typo = client.get("/v2/graph?model=syn_a&fromat=dot").unwrap();
    assert_eq!(typo.status, 400, "body: {}", typo.body);
    // Method guard: POST on the endpoint is a 405, not a 404.
    let post = client.post("/v2/graph", "{}").unwrap();
    assert_eq!(post.status, 405);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
