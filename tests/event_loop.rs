//! Event-loop serving suite.
//!
//! PR 7 replaced the thread-per-connection server with a readiness-driven
//! event loop (vendored epoll/poll shim, non-blocking sockets,
//! per-connection state machines) feeding the same bounded worker pool.
//! The loop's correctness bar:
//!
//! * **invisible in the answers** — explain and ingest wire bytes served
//!   through the event loop (and the segment-scoped LRU, across ingest
//!   epoch bumps) are byte-identical to direct `execute_batch` on an
//!   engine holding the same store (property test);
//! * **scales past the pool** — far more concurrent idle keep-alive
//!   connections than workers all stay parked and all answer correctly;
//! * **sheds, never hangs** — at 2× capacity every request gets a real
//!   response (`200` or a clean `503`), and the server still drains to a
//!   graceful exit;
//! * **isolates slow peers** — a slow-loris partial request times out
//!   with `408` without stalling other connections.

// thread::sleep allowed: tests pace real sockets with real sleeps deliberately (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use proptest::prelude::*;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use xinsight::core::json::Json;
use xinsight::core::pipeline::{XInsight, XInsightOptions};
use xinsight::core::{ExplainRequest, WhyQuery};
use xinsight::data::{Aggregate, Dataset, DatasetBuilder, Subspace, Value};
use xinsight::service::{
    demo_queries, series_value, wire, HttpClient, ModelRegistry, ServerConfig, ServerHandle,
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

/// Rows pinned to one location (categories already present in
/// [`tri_data`], so ingesting them is always schema-valid).
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

/// Serializes the raw rows of a dataset as JSON row objects for
/// `/v2/ingest`.
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

/// Direct reference path: `execute_batch` on an engine holding the same
/// store the server holds, serialized with the same wire encoder.
fn direct_wire(engine: &XInsight, query: &WhyQuery) -> String {
    let response = engine
        .execute_batch(&[ExplainRequest::new(query.clone())])
        .unwrap()
        .into_iter()
        .next()
        .unwrap();
    wire::v2_result_to_string(&response)
}

/// One fitted tri-location engine + query pool, shared across tests and
/// property cases (the fit is the expensive part).
struct Fixture {
    base: Dataset,
    engine: XInsight,
    queries: Vec<WhyQuery>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = tri_data(180);
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
        "xinsight_event_loop_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    xinsight::service::save_bundle(&dir, "ev", &fx.base, &fx.engine, &fx.queries).unwrap();
    let registry = ModelRegistry::open(&dir, XInsightOptions::default()).unwrap();
    let handle = xinsight::service::start(Arc::new(registry), config).unwrap();
    xinsight::service::wait_healthy(handle.addr(), Duration::from_secs(10)).unwrap();
    (handle, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // A random interleaving of default explains, top_k explains
    // and ingest epoch bumps, served through the event loop and the
    // segment-scoped LRU, answers byte-identically to direct
    // `execute_batch` on an engine grown by the same ingests.  Repeats in
    // the stream replay cached entries, so the equivalence covers cold,
    // cached and post-ingest (promoted/merged) answers alike.
    #[test]
    fn served_bytes_equal_direct_execution_across_v1_v2_and_ingest(
        // Each op packs (kind, pick): kind = op % 5, pick = op / 5.
        raw_ops in prop::collection::vec(0usize..60, 1..12),
    ) {
        let fx = fixture();
        let (handle, dir) = serve_fixture("prop", &ServerConfig::default());
        let registry = ModelRegistry::open(&dir, XInsightOptions::default()).unwrap();
        let loaded = registry.load("ev").unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        // The reference store: starts as the loaded bundle, grows with
        // every ingest the server applies.
        let mut grown: Option<XInsight> = None;
        for (step, &raw) in raw_ops.iter().enumerate() {
            let (kind, pick) = (raw % 5, raw / 5);
            let engine: &XInsight = grown.as_ref().unwrap_or(&loaded.engine);
            let query = &fx.queries[pick % fx.queries.len()];
            match kind {
                // Ingest epoch bump: the server and the reference engine
                // grow by the same rows.
                4 => {
                    let loc = ["A", "B", "C"][pick % 3];
                    let chunk = located_rows(5 + pick % 4, loc, step);
                    let resp = client.ingest_v2("ev", &wire_rows(&chunk)).unwrap();
                    prop_assert_eq!(resp.status, 200, "step {}: {}", step, resp.body);
                    grown = Some(engine.with_ingested(&chunk).unwrap());
                }
                // A per-request top_k.
                2 | 3 => {
                    let expected = direct_wire(engine, query);
                    let direct_doc = Json::parse(&expected).unwrap();
                    let direct_arr = direct_doc.get("explanations").unwrap().as_arr().unwrap();
                    let top_k = 1 + pick % 4;
                    let options = format!("{{\"top_k\":{top_k}}}");
                    let resp = client
                        .explain_v2("ev", &query.to_json(), Some(&options))
                        .unwrap();
                    prop_assert_eq!(resp.status, 200, "step {}: {}", step, resp.body);
                    let doc = Json::parse(&resp.body).unwrap();
                    let result = doc.get("result").unwrap();
                    let slots_json = result.get("explanations").unwrap();
                    let slots = slots_json.as_arr().unwrap();
                    prop_assert_eq!(slots.len(), direct_arr.len().min(top_k), "step {}", step);
                    prop_assert_eq!(
                        result.get("truncated").unwrap().as_bool().unwrap(),
                        direct_arr.len() > top_k,
                        "step {}", step
                    );
                    for (rank0, (slot, direct)) in slots.iter().zip(direct_arr).enumerate() {
                        prop_assert_eq!(
                            slot.get("rank").unwrap().as_u64().unwrap(),
                            (rank0 + 1) as u64
                        );
                        prop_assert_eq!(
                            slot.get("explanation").unwrap().to_string(),
                            direct.get("explanation").unwrap().to_string(),
                            "step {} rank {} diverged from direct execute_batch",
                            step, rank0 + 1
                        );
                    }
                }
                // Default options.
                _ => {
                    let expected = direct_wire(engine, query);
                    let body = format!("{{\"model\":\"ev\",\"query\":{}}}", query.to_json());
                    let resp = client.post("/v2/explain", &body).unwrap();
                    prop_assert_eq!(resp.status, 200, "step {}: {}", step, resp.body);
                    let doc = Json::parse(&resp.body).unwrap();
                    prop_assert_eq!(
                        doc.get("result").unwrap().to_string(),
                        expected,
                        "step {} diverged from direct execute_batch", step
                    );
                }
            }
        }
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// Far more idle keep-alive connections than workers: 1100 clients against
// a 2-worker pool all connect, answer, park idle through sweep ticks (the
// readiness loop holds them without a thread each — the thread-per-
// connection design this PR replaced could not), and all answer again —
// from 8 threads at once, with no 503s.
#[test]
fn a_thousand_idle_keep_alives_park_and_all_answer() {
    const CLIENTS: usize = 1100;
    let fx = fixture();
    let (handle, dir) = serve_fixture(
        "park",
        &ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let query = &fx.queries[0];
    let expected = direct_wire(&fx.engine, query);
    let body = format!("{{\"model\":\"ev\",\"query\":{}}}", query.to_json());

    let mut clients = Vec::with_capacity(CLIENTS);
    for i in 0..CLIENTS {
        let mut client = HttpClient::connect(addr).unwrap();
        let resp = client.post("/v2/explain", &body).unwrap();
        assert_eq!(resp.status, 200, "client {i}: {}", resp.body);
        assert!(!resp.closing, "client {i} was not kept alive");
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(
            doc.get("result").unwrap().to_string(),
            expected,
            "client {i} answer diverged"
        );
        clients.push(client);
    }

    // Let several sweep ticks pass, then read the connection gauges: every
    // client is still connected, and (but for scheduling slop) parked.
    std::thread::sleep(Duration::from_millis(250));
    let mut probe = HttpClient::connect(addr).unwrap();
    let resp = probe.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let gauge = |state: &str| {
        series_value(
            &resp.body,
            &format!("xinsight_connections{{state=\"{state}\"}}"),
        )
        .unwrap()
    };
    let (active, parked) = (gauge("active"), gauge("parked_idle"));
    assert!(active >= CLIENTS as f64, "only {active} active connections");
    assert!(parked >= 1024.0, "only {parked} parked idle connections");

    // Every parked connection answers again, correctly, on the same socket
    // — driven from 8 threads at once, a modest concurrent load that must
    // come back clean (no 503s).
    const THREADS: usize = 8;
    let per_thread = CLIENTS.div_ceil(THREADS);
    std::thread::scope(|scope| {
        for (t, group) in clients.chunks_mut(per_thread).enumerate() {
            let (body, expected) = (&body, &expected);
            scope.spawn(move || {
                for (j, client) in group.iter_mut().enumerate() {
                    let i = t * per_thread + j;
                    let resp = client.post("/v2/explain", body).unwrap();
                    assert_eq!(resp.status, 200, "parked client {i}: {}", resp.body);
                    let doc = Json::parse(&resp.body).unwrap();
                    assert_eq!(
                        &doc.get("result").unwrap().to_string(),
                        expected,
                        "parked client {i} answer diverged"
                    );
                }
            });
        }
    });
    drop(clients);
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// Overload at well past capacity: a 1-worker, 2-slot admission queue under
// 12 concurrent clients must answer *every* request — 200 or a clean 503,
// never a hang or a dropped connection — and still drain to a graceful
// shutdown afterwards.
#[test]
fn overload_sheds_503s_and_drains_cleanly() {
    let dir = std::env::temp_dir().join(format!("xinsight_event_loop_ov_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
    let handle = xinsight::service::start(
        Arc::new(registry),
        &ServerConfig {
            workers: 1,
            queue_capacity: 2,
            debug_endpoints: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    xinsight::service::wait_healthy(addr, Duration::from_secs(10)).unwrap();

    let mut threads = Vec::new();
    for _ in 0..12 {
        threads.push(std::thread::spawn(move || {
            let mut http = HttpClient::connect(addr).unwrap();
            let (mut ok, mut shed) = (0usize, 0usize);
            for _ in 0..5 {
                let resp = http.post("/debug/sleep", "{\"ms\":40}").unwrap();
                match resp.status {
                    200 => ok += 1,
                    503 => shed += 1,
                    other => panic!("unexpected status {other}: {}", resp.body),
                }
                if resp.closing {
                    http = HttpClient::connect(addr).unwrap();
                }
            }
            (ok, shed)
        }));
    }
    let (mut ok, mut shed) = (0usize, 0usize);
    for thread in threads {
        let (o, s) = thread.join().unwrap();
        ok += o;
        shed += s;
    }
    assert_eq!(ok + shed, 60, "some requests got no response");
    assert!(shed >= 1, "2x+ overload never shed");
    assert!(ok >= 1, "overload starved every request");

    // The queue empties once the load stops; shutdown may briefly shed,
    // then must be admitted and drain the server to a clean exit.
    let mut accepted = false;
    for _ in 0..100 {
        let mut client = HttpClient::connect(addr).unwrap();
        let resp = client.post("/admin/shutdown", "{}").unwrap();
        if resp.status == 200 {
            accepted = true;
            break;
        }
        assert_eq!(resp.status, 503, "body: {}", resp.body);
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(accepted, "shutdown was never admitted");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

// A slow-loris peer — a request that arrives a few bytes and then stalls —
// is timed out with `408` at the request deadline, while other connections
// keep answering the whole time.  The loop never donates a worker (or
// itself) to a peer that hasn't produced a full request.
#[test]
fn slow_loris_partial_request_times_out_without_stalling_others() {
    let dir = std::env::temp_dir().join(format!("xinsight_event_loop_sl_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
    let handle = xinsight::service::start(
        Arc::new(registry),
        &ServerConfig {
            workers: 2,
            request_deadline: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    xinsight::service::wait_healthy(addr, Duration::from_secs(10)).unwrap();

    // Complete headers, stalled body: the parser holds a partial request.
    let mut loris = std::net::TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris
        .write_all(b"POST /v2/explain HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"mod")
        .unwrap();
    let stalled_at = Instant::now();

    // Meanwhile the server keeps answering everyone else, spanning the
    // loris deadline.
    let mut other = HttpClient::connect(addr).unwrap();
    for round in 0..10 {
        let resp = other.get("/healthz").unwrap();
        assert_eq!(resp.status, 200, "round {round} stalled behind the loris");
        std::thread::sleep(Duration::from_millis(40));
    }

    // The loris gets a 408 and a close — not silence, not a hang.
    let mut buf = Vec::new();
    loris.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "expected a 408 timeout, got: {text}"
    );
    assert!(
        stalled_at.elapsed() < Duration::from_secs(8),
        "read timeout took {:?}",
        stalled_at.elapsed()
    );

    let resp = other.get("/metrics").unwrap();
    let timeouts = series_value(&resp.body, "xinsight_read_timeouts_total").unwrap();
    assert!(timeouts >= 1.0, "read_timeouts counter never moved");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
