//! Observability suite: `/metrics` exposition, counter reconciliation,
//! request-lifecycle traces and the `/debug/traces` surface.
//!
//! The bar, per stage of the pipeline:
//!
//! * **valid exposition** — `GET /metrics` parses under the exposition
//!   validator AND under independent structural checks in this file
//!   (`TYPE` precedes samples, histogram buckets are cumulative, `+Inf`
//!   closes every histogram), so the validator can't vouch for itself;
//! * **counters reconcile** — per-endpoint request counters equal the
//!   exact number of HTTP requests this test issued, endpoint by
//!   endpoint;
//! * **spans attribute honestly** — every trace's spans are monotonic on
//!   one clock, stay inside the request window, and for a known-duration
//!   request sum to ≥95% of the end-to-end total;
//! * **bounded retention** — the recent-trace ring stays at its capacity
//!   under a flood while slow traces survive in the reservoir;
//! * **gated surface** — `/debug/traces` 404s without `--debug-endpoints`
//!   while `/metrics` stays public;
//! * **cache accounting closes** — `/metrics` reports result-cache tiers
//!   with `hit + prefix_hit + merged + miss == lookups` exactly.

// HashMap here never leaks iteration order into output: scratch maps for exposition parsing (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;
use xinsight::core::json::Json;
use xinsight::core::pipeline::{XInsight, XInsightOptions};
use xinsight::core::WhyQuery;
use xinsight::data::{Aggregate, Dataset, DatasetBuilder, Subspace, Value};
use xinsight::service::{
    demo_queries, series_value, validate_exposition, HttpClient, ModelRegistry, ServerConfig,
    ServerHandle,
};

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

/// Serializes raw dataset rows as JSON row objects for `/v2/ingest`.
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

struct Fixture {
    base: Dataset,
    engine: XInsight,
    queries: Vec<WhyQuery>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = tri_data(150);
        let engine = XInsight::fit(&base, &XInsightOptions::default()).unwrap();
        let mut queries = demo_queries(&base, 4).unwrap();
        queries.push(
            WhyQuery::new(
                "Severity",
                Aggregate::Avg,
                Subspace::of("Location", "A"),
                Subspace::of("Location", "B"),
            )
            .unwrap(),
        );
        Fixture {
            base,
            engine,
            queries,
        }
    })
}

/// Saves the fixture bundle into a fresh dir and serves it.
fn serve_fixture(tag: &str, config: &ServerConfig) -> (ServerHandle, std::path::PathBuf) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!(
        "xinsight_observability_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    xinsight::service::save_bundle(&dir, "obs", &fx.base, &fx.engine, &fx.queries).unwrap();
    let registry = ModelRegistry::open(&dir, XInsightOptions::default()).unwrap();
    let handle = xinsight::service::start(Arc::new(registry), config).unwrap();
    xinsight::service::wait_healthy(handle.addr(), Duration::from_secs(10)).unwrap();
    (handle, dir)
}

/// The `le` ladder the README documents for both latency histogram
/// families: 1 µs to 10 s, in seconds, then `+Inf`.
const DOCUMENTED_LE: &str = "0.000001 0.000002 0.000005 0.00001 0.000025 0.00005 0.0001 0.00025 \
    0.0005 0.001 0.0025 0.005 0.01 0.025 0.05 0.1 0.25 0.5 1 2.5 5 10 +Inf";

/// Independent structural checks on the exposition — deliberately NOT the
/// library validator, so the two can disagree.
fn check_exposition_independently(text: &str) {
    use std::collections::HashMap;
    let mut types: HashMap<String, String> = HashMap::new();
    // Cumulative-bucket state per histogram label-set.
    let mut last_bucket: HashMap<String, (f64, f64)> = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line names a family");
            let kind = parts.next().expect("TYPE line carries a kind");
            types.insert(name.to_owned(), kind.to_owned());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        let value: f64 = value.parse().expect("sample value is a number");
        let name = series.split('{').next().unwrap();
        // Every sample's family must have been typed beforehand
        // (histogram children map onto their base family).
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                types.contains_key(base).then(|| base.to_owned())
            })
            .unwrap_or_else(|| name.to_owned());
        assert!(
            types.contains_key(&family),
            "sample `{series}` appears before its TYPE header"
        );
        if name.ends_with("_bucket") {
            let labels = series.split('{').nth(1).unwrap_or("");
            let (prefix, le) = labels
                .trim_end_matches('}')
                .rsplit_once("le=\"")
                .expect("bucket sample carries an le label");
            let le = le.trim_end_matches('"');
            assert!(
                DOCUMENTED_LE.split_whitespace().any(|bound| bound == le),
                "`{series}` publishes a bound off the documented ladder"
            );
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("finite le parses")
            };
            let key = format!("{name}{{{prefix}");
            if let Some((prev_le, prev_count)) = last_bucket.get(&key) {
                assert!(le > *prev_le, "bucket bounds not increasing in `{series}`");
                assert!(
                    value >= *prev_count,
                    "bucket counts not cumulative in `{series}`"
                );
            }
            last_bucket.insert(key, (le, value));
        }
    }
    // Every histogram's bucket chain must terminate at +Inf.
    for (key, (le, _)) in &last_bucket {
        assert!(
            le.is_infinite(),
            "histogram `{key}` does not close with a +Inf bucket"
        );
    }
    assert!(!types.is_empty(), "exposition carries no TYPE headers");
}

#[test]
fn metrics_exposition_is_valid_and_counters_reconcile_exactly() {
    let fx = fixture();
    let (handle, dir) = serve_fixture("reconcile", &ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // A known request mix, endpoint by endpoint.  wait_healthy already
    // issued /healthz probes, but /healthz has no per-endpoint counter —
    // everything counted below is issued here, exactly.
    let q = fx.queries[0].to_json();
    for _ in 0..3 {
        let resp = client
            .post(
                "/v2/explain",
                &format!("{{\"model\":\"obs\",\"query\":{q}}}"),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    for _ in 0..2 {
        let resp = client.explain_v2("obs", &q, None).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    let resp = client
        .post(
            "/v2/explain_batch",
            &format!("{{\"model\":\"obs\",\"queries\":[{q},{q}]}}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let chunk = tri_data(9);
    let resp = client.ingest_v2("obs", &wire_rows(&chunk)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = client.get("/models").unwrap();
    assert_eq!(resp.status, 200);

    let scrape = client.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    validate_exposition(&scrape.body).expect("/metrics must be valid text exposition");
    check_exposition_independently(&scrape.body);

    let counter = |series: &str| -> f64 { series_value(&scrape.body, series).unwrap_or(-1.0) };
    assert_eq!(
        counter("xinsight_requests_total{endpoint=\"explain_v2\"}"),
        5.0
    );
    assert_eq!(
        counter("xinsight_requests_total{endpoint=\"explain_batch_v2\"}"),
        1.0
    );
    assert_eq!(
        counter("xinsight_requests_total{endpoint=\"ingest_v2\"}"),
        1.0
    );
    assert_eq!(counter("xinsight_requests_total{endpoint=\"models\"}"), 1.0);
    // The metrics counter increments after its own render: the first
    // scrape reports 0 of itself, the next reports the first.
    assert_eq!(
        counter("xinsight_requests_total{endpoint=\"metrics\"}"),
        0.0
    );
    let rescrape = client.get("/metrics").unwrap();
    assert_eq!(
        series_value(
            &rescrape.body,
            "xinsight_requests_total{endpoint=\"metrics\"}"
        ),
        Some(1.0)
    );

    // The request-latency histogram must have seen at least the explains.
    let total = series_value(&scrape.body, "xinsight_request_latency_seconds_count")
        .expect("request latency histogram present");
    assert!(total >= 3.0, "latency histogram count {total} < 3");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// Pulls the trace document off `/debug/traces`.
fn traces_doc(client: &mut HttpClient) -> Json {
    let resp = client.get("/debug/traces").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    Json::parse(&resp.body).unwrap()
}

fn span_field(span: &Json, field: &str) -> u64 {
    span.get(field).and_then(Json::as_u64).unwrap()
}

#[test]
fn trace_spans_are_monotonic_and_account_for_the_request() {
    let fx = fixture();
    let config = ServerConfig {
        debug_endpoints: true,
        trace_slow_ms: 40,
        ..ServerConfig::default()
    };
    let (handle, dir) = serve_fixture("spans", &config);
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    let q = fx.queries[0].to_json();
    let resp = client
        .post(
            "/v2/explain",
            &format!("{{\"model\":\"obs\",\"query\":{q}}}"),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    // A known-duration request well past the slow threshold: its span sum
    // must attribute (almost) all of the wall clock.
    let resp = client.post("/debug/sleep", "{\"ms\":80}").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let doc = traces_doc(&mut client);
    let recent = doc.get("recent").and_then(Json::as_arr).unwrap();
    assert!(!recent.is_empty(), "no traces recorded");
    let vocabulary = [
        "parse",
        "queue_wait",
        "cache_lookup",
        "execute",
        "serialize",
        "write",
    ];
    for trace in recent {
        let total_us = span_field(trace, "total_us");
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(!spans.is_empty(), "trace carries no spans");
        let mut prev_start = 0u64;
        for span in spans {
            let stage = span.get("stage").and_then(Json::as_str).unwrap();
            assert!(vocabulary.contains(&stage), "unknown stage `{stage}`");
            let start = span_field(span, "start_us");
            let duration = span_field(span, "duration_us");
            // Spans share one epoch clock: starts are monotonic in
            // recording order and every span ends inside the request.
            assert!(start >= prev_start, "span starts went backwards");
            prev_start = start;
            assert!(
                start + duration <= total_us + 1_000,
                "span [{start}, {}] escapes the {total_us}us request window",
                start + duration
            );
        }
        // Sequential stages must not overlap: parse precedes queue_wait
        // precedes the handler stages precedes write.
        let end_of = |name: &str| -> Option<u64> {
            spans
                .iter()
                .filter(|s| s.get("stage").and_then(Json::as_str).unwrap() == name)
                .map(|s| span_field(s, "start_us") + span_field(s, "duration_us"))
                .max()
        };
        let start_of = |name: &str| -> Option<u64> {
            spans
                .iter()
                .filter(|s| s.get("stage").and_then(Json::as_str).unwrap() == name)
                .map(|s| span_field(s, "start_us"))
                .min()
        };
        for pair in [("parse", "queue_wait"), ("queue_wait", "execute")] {
            if let (Some(end), Some(start)) = (end_of(pair.0), start_of(pair.1)) {
                assert!(
                    end <= start,
                    "`{}` (ends {end}) overlaps `{}` (starts {start})",
                    pair.0,
                    pair.1
                );
            }
        }
        if let Some(write_start) = start_of("write") {
            for stage in ["parse", "queue_wait", "cache_lookup", "serialize"] {
                if let Some(end) = end_of(stage) {
                    assert!(end <= write_start, "`{stage}` overlaps the write stage");
                }
            }
        }
        // Durations of the sequential vocabulary sum within the total
        // (spans never invent time the request didn't spend).
        let sum: u64 = spans.iter().map(|s| span_field(s, "duration_us")).sum();
        assert!(
            sum <= total_us + 1_000,
            "spans sum to {sum}us, more than the {total_us}us total"
        );
    }

    // The slow reservoir holds the sleep request, and its spans attribute
    // at least 95% of the end-to-end time (the sleep dominates).
    let slow = doc.get("slow").and_then(Json::as_arr).unwrap();
    let sleep_trace = slow
        .iter()
        .find(|t| t.get("endpoint").and_then(Json::as_str).unwrap() == "POST /debug/sleep")
        .expect("the 80ms sleep must land in the slow reservoir");
    let total_us = span_field(sleep_trace, "total_us");
    assert!(total_us >= 80_000, "sleep trace total {total_us}us < 80ms");
    let spans = sleep_trace.get("spans").and_then(Json::as_arr).unwrap();
    let sum: u64 = spans.iter().map(|s| span_field(s, "duration_us")).sum();
    assert!(
        sum * 20 >= total_us * 19,
        "spans attribute only {sum}us of the {total_us}us request"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn trace_ring_is_bounded_and_slow_traces_survive_the_flood() {
    let config = ServerConfig {
        debug_endpoints: true,
        trace_slow_ms: 40,
        ..ServerConfig::default()
    };
    let (handle, dir) = serve_fixture("ring", &config);
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // One slow request first…
    let resp = client.post("/debug/sleep", "{\"ms\":80}").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let doc = traces_doc(&mut client);
    let ring_capacity = doc.get("ring_capacity").and_then(Json::as_u64).unwrap();
    let slow_id = doc
        .get("slow")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|t| t.get("endpoint").and_then(Json::as_str).unwrap() == "POST /debug/sleep")
        .map(|t| span_field(t, "id"))
        .expect("sleep trace in the reservoir");

    // …then a keep-alive flood larger than the ring.
    for _ in 0..ring_capacity + 16 {
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
    }

    let doc = traces_doc(&mut client);
    let recent = doc.get("recent").and_then(Json::as_arr).unwrap();
    assert!(
        recent.len() as u64 <= ring_capacity,
        "ring grew to {} past its capacity {ring_capacity}",
        recent.len()
    );
    // The flood evicted the slow trace from the ring…
    assert!(
        !recent.iter().any(|t| span_field(t, "id") == slow_id),
        "the flood should have evicted the slow trace from the ring"
    );
    // …but the reservoir still holds it.
    let survives = doc
        .get("slow")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .any(|t| span_field(t, "id") == slow_id);
    assert!(
        survives,
        "slow trace evicted from the always-keep reservoir"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn debug_traces_is_gated_while_metrics_stays_public() {
    let (handle, dir) = serve_fixture("gated", &ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).unwrap();
    let resp = client.get("/debug/traces").unwrap();
    assert_eq!(
        resp.status, 404,
        "/debug/traces must 404 without --debug-endpoints"
    );
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200, "/metrics must stay public");
    validate_exposition(&resp.body).expect("/metrics must be valid text exposition");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn metrics_result_cache_tiers_always_sum_to_lookups() {
    let fx = fixture();
    let (handle, dir) = serve_fixture("cache_sums", &ServerConfig::default());
    let mut client = HttpClient::connect(handle.addr()).unwrap();

    // Exercise every tier: cold misses, exact hits, then an ingest so
    // follow-up lookups promote or merge through the prefix path.
    for round in 0..2 {
        for q in &fx.queries {
            let q = q.to_json();
            let resp = client
                .post(
                    "/v2/explain",
                    &format!("{{\"model\":\"obs\",\"query\":{q}}}"),
                )
                .unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
        if round == 0 {
            let resp = client.ingest_v2("obs", &wire_rows(&tri_data(9))).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
        }
    }

    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let tier = |tier: &str| {
        series_value(
            &resp.body,
            &format!("xinsight_result_cache_total{{tier=\"{tier}\"}}"),
        )
        .unwrap()
    };
    let lookups = series_value(&resp.body, "xinsight_result_cache_lookups_total").unwrap();
    let (hits, prefix_hits, merged, misses) = (
        tier("hit"),
        tier("prefix_hit"),
        tier("merged"),
        tier("miss"),
    );
    assert!(lookups > 0.0, "no result-cache lookups recorded");
    assert_eq!(
        hits + prefix_hits + merged + misses,
        lookups,
        "result-cache tiers do not sum to lookups \
         (hits {hits} + prefix {prefix_hits} + merged {merged} + misses {misses} != {lookups})"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
