//! Segmented-store equivalence tests.
//!
//! The storage refactor's core correctness claim: **segmentation is
//! invisible in the answers**.  However the same rows are split across
//! sealed segments — one monolithic base segment, or any number of
//! streaming-ingest batches — the engine returns byte-identical
//! explanations (ranks, scores, serialized wire bytes), because per-segment
//! partial aggregates merge with exact summation.
//!
//! * property test — random segment boundaries over SYN-A serving data:
//!   `from_fitted(prefix) + with_ingested(chunks…) == from_fitted(all)`;
//! * integration test — the same invariant on the FLIGHT simulator;
//! * HTTP test — the invariant holds end-to-end over the wire: serve a
//!   bundle, `POST /v2/ingest` the remaining rows, and the re-issued
//!   explains (through the LRU, across the ingest epoch bump) match a
//!   direct engine holding the same segmented store.

use proptest::prelude::*;
use std::sync::OnceLock;
use xinsight::core::json::Json;
use xinsight::core::pipeline::{XInsight, XInsightOptions};
use xinsight::core::{ExplainRequest, FittedModel, WhyQuery};
use xinsight::data::{Dataset, RowMask, Value};
use xinsight::service::{
    demo::syn_a_serving_data, demo_queries, wire, HttpClient, ModelRegistry, ServerConfig,
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

/// An engine over `data` restored from `model`, with the rows segmented at
/// the (sorted, in-range) `cuts`: the first chunk is the restore base, each
/// further chunk arrives as one streaming-ingest batch.
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

/// One fitted dataset: the raw rows, the offline artifact, a reference
/// engine over the whole data as a single segment, a query pool and the
/// reference wire answers.  Shared across property cases (the fit is the
/// expensive part).
struct Fixture {
    data: Dataset,
    model: FittedModel,
    options: XInsightOptions,
    queries: Vec<WhyQuery>,
    reference: Vec<String>,
}

impl Fixture {
    fn build(data: Dataset, mut queries: Vec<WhyQuery>) -> Fixture {
        let options = XInsightOptions::default();
        let fitted = XInsight::fit(&data, &options).unwrap();
        let model = fitted.fitted_model();
        let full = XInsight::from_fitted(&data, model.clone(), &options).unwrap();
        queries.truncate(4);
        let reference = queries.iter().map(|q| explain_wire(&full, q)).collect();
        Fixture {
            data,
            model,
            options,
            queries,
            reference,
        }
    }

    fn assert_equivalent(&self, cuts: &[usize]) {
        let chunked = chunked_engine(&self.data, self.model.clone(), &self.options, cuts);
        assert_eq!(chunked.data().n_segments(), cuts.len() + 1);
        assert_eq!(chunked.data().epoch(), cuts.len() as u64);
        for (query, expected) in self.queries.iter().zip(&self.reference) {
            assert_eq!(
                &explain_wire(&chunked, query),
                expected,
                "segmentation {cuts:?} changed the answer to {query}"
            );
        }
    }
}

fn syn_a_fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = syn_a_serving_data(420, 7).unwrap();
        let queries = demo_queries(&data, 4).unwrap();
        Fixture::build(data, queries)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random segment boundaries over SYN-A: the chunked engine (restore on
    // the first chunk, ingest the rest) answers byte-identically to the
    // single-segment engine over the same rows and model.
    #[test]
    fn segmented_explain_equals_single_segment_explain_on_syn_a(
        cuts in prop::collection::vec(1usize..419, 1..4),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        cuts.dedup();
        syn_a_fixture().assert_equivalent(&cuts);
    }
}

#[test]
fn segmented_explain_equals_single_segment_explain_on_flight() {
    let data = flight::generate(2500, 1);
    let mut queries = vec![flight::why_query()];
    queries.extend(demo_queries(&data, 3).unwrap());
    let fixture = Fixture::build(data, queries);
    // A lopsided and an even segmentation, plus a many-segment one.
    fixture.assert_equivalent(&[100]);
    fixture.assert_equivalent(&[833, 1666]);
    fixture.assert_equivalent(&[400, 800, 1200, 1600, 2000, 2400]);
}

/// Serializes the raw rows of a dataset as `/v2/ingest` wire row objects.
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

// End-to-end over HTTP: a served model ingests rows over the wire and then
// answers — through the LRU, across the epoch/generation bump — exactly
// like a direct engine holding the same segmented store.  This pins down
// the full path: wire row parsing, schema validation, f64 round-tripping,
// the atomic registry swap and the LRU generation keying.
#[test]
fn http_ingest_round_trip_matches_direct_segmented_engine() {
    let dir = std::env::temp_dir().join(format!("xinsight_segments_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let data = syn_a_serving_data(360, 11).unwrap();
    let base = rows_range(&data, 0, 280);
    let extra = rows_range(&data, 280, 360);
    let queries = demo_queries(&data, 3).unwrap();

    let options = XInsightOptions::default();
    let registry = ModelRegistry::open_empty(&dir, options.clone());
    registry
        .fit_and_save("seg", &base, queries.clone())
        .unwrap();
    let loaded = registry.load("seg").unwrap();
    // The reference: the served engine's store grown by the same batch.
    let direct = loaded.engine.with_ingested(&extra).unwrap();
    let expected: Vec<String> = queries.iter().map(|q| explain_wire(&direct, q)).collect();

    let handle =
        xinsight::service::start(std::sync::Arc::new(registry), &ServerConfig::default()).unwrap();
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // Warm the LRU pre-ingest.
    for query in &queries {
        let body = format!("{{\"model\":\"seg\",\"query\":{}}}", query.to_json());
        assert_eq!(client.post("/v2/explain", &body).unwrap().status, 200);
    }

    // Ingest the remaining rows over the wire: one sealed segment, no
    // model reload.
    let resp = client.ingest_v2("seg", &wire_rows(&extra)).unwrap();
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let doc = Json::parse(&resp.body).unwrap();
    assert_eq!(doc.get("ingested").unwrap().as_u64().unwrap(), 80);
    assert_eq!(doc.get("segments").unwrap().as_u64().unwrap(), 2);
    assert_eq!(doc.get("epoch").unwrap().as_u64().unwrap(), 1);

    // Every post-ingest answer matches the direct segmented engine — the
    // first request freshly computed (the epoch bump rolled the LRU keys),
    // the second a cache replay of identical bytes.
    for (query, expected) in queries.iter().zip(&expected) {
        let body = format!("{{\"model\":\"seg\",\"query\":{}}}", query.to_json());
        for (round, want_cached) in [(1, false), (2, true)] {
            let resp = client.post("/v2/explain", &body).unwrap();
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            let doc = Json::parse(&resp.body).unwrap();
            assert_eq!(
                doc.get("cached").unwrap().as_bool().unwrap(),
                want_cached,
                "round {round} of {query}"
            );
            assert_eq!(
                doc.get("result").unwrap().to_string(),
                *expected,
                "round {round} of {query}"
            );
        }
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
