//! `loadgen` — closed-loop load generation against `xinsight-serve`.
//!
//! Drives the HTTP server with `N` concurrent closed-loop clients (each
//! waits for its response before sending the next request — the classic
//! closed-loop model, so offered load adapts to service capacity) and
//! reports throughput and exact latency percentiles.  Also the smoke
//! client behind `scripts/verify.sh`.
//!
//! ```text
//! loadgen --addr HOST:PORT [--v2] [--ingest-mix PCT] [--clients 1,4] [--requests N] [--model ID]
//! loadgen --spawn [--v2] [--ingest-mix PCT] [--compact-after N] [--models DIR]
//!         [--demo syn_a,flight] [--demo-rows N]
//! loadgen --open-loop [--rate R1,R2] [--arrival poisson|uniform|both] [--duration SECS]
//! loadgen --smoke --addr HOST:PORT
//! loadgen --spawn --open-loop-smoke
//! ```
//!
//! * `--addr` targets a running server; `--spawn` instead fits demo
//!   bundles, starts an in-process server and benches it — the
//!   self-contained path that emits `BENCH_serve.json` at the workspace
//!   root (throughput, p50/p99 per model × client count).
//! * `--v2` drives `POST /v2/explain` instead of the v1 endpoint, with a
//!   deterministic pseudo-random `top_k` per request (the per-request
//!   options are part of the LRU key, so this also exercises the larger
//!   v2 key space).
//! * `--ingest-mix PCT` turns the closed loop into a mixed read/write
//!   workload: each iteration issues a `POST /v2/ingest` (pseudo-randomly
//!   varied rows derived from the model's advertised ingest templates)
//!   with probability `PCT`%, an explain otherwise.  Ingest latencies are
//!   reported separately (p50/p99), `read_throughput_rps` isolates the
//!   explain side from the blended rate, and the per-run cache delta
//!   (hits + prefix promotions + merges over lookups) shows how well the
//!   segment-scoped LRU rides out the ingests.  With `--spawn`, a second
//!   in-process server with background compaction enabled is benched on
//!   the same mixed workload (runs suffixed `/compact`), so
//!   `BENCH_serve.json` carries pure-read vs mixed vs mixed+compaction.
//! * `--compact-after N` enables background compaction on the spawned
//!   server itself (the separate `/compact` pass is then skipped — the
//!   primary numbers already include it).
//! * `--smoke` checks what only a real server process shows: it gates on
//!   `GET /healthz`, issues one `/explain` and one `/v2/explain` with
//!   `top_k=1`, pushes a `/metrics` scrape through the exposition
//!   validator, sends a deliberately slow request (`POST /debug/sleep`
//!   past the server's slow threshold) that must land in the
//!   `/debug/traces` slow reservoir, and ends with a graceful
//!   `/admin/shutdown` — used by the CI smoke test.  When `/metrics`
//!   reports a compaction threshold, the smoke also ingests up to it,
//!   waits for the background compactor, and asserts the post-compaction
//!   answer is byte-identical to the pre-compaction one.
//! * `--open-loop` switches to **open-loop** load generation: request
//!   arrival times are drawn up front from an arrival process (Poisson or
//!   uniform) at an *offered* rate that does not adapt to how fast the
//!   server answers, and every latency is measured from the request's
//!   **intended** start — a response that waited behind a backlog is
//!   charged that wait, so the numbers are free of coordinated omission.
//!   Without `--rate` the sweep derives offered rates from a measured
//!   closed-loop capacity estimate (¼×, ½×, ¾×), finds the **max
//!   sustainable rate** by geometric ramp (no errors, no shed `503`s,
//!   ≥95% of offered achieved, bounded p99), and — when the server has
//!   debug endpoints — runs a deterministic **overload** cell at 2×
//!   capacity built from `POST /debug/sleep`, asserting bounded `503`
//!   shedding rather than collapse.  The default (closed-loop) bench also
//!   appends this open-loop sweep so `BENCH_serve.json` carries both.
//! * `--open-loop-smoke` (with `--spawn`) is the CI slice of the above: a
//!   modest-rate open-loop run that must finish with zero errors and zero
//!   sheds, then an overload burst that must shed at least one `503`
//!   without a single hard failure, then a graceful shutdown.
//! * Closed-loop cells first run an untimed per-client **warmup**, and
//!   keep looping past `--requests` until the timed window reaches a
//!   ≥2s floor (skipped when `--requests` is given explicitly), so
//!   throughput is not dominated by cold caches or sub-second windows.
//!   Each cell also scrapes `/metrics` before and after its timed window
//!   (every scrape runs the full exposition-grammar validator),
//!   **reconciles** the server's per-endpoint counter deltas against the
//!   client-observed response counts — an exact match is required, a
//!   mismatch fails the bench — and embeds the cell's per-stage latency
//!   attribution (count/mean/p50/p99 per lifecycle stage, from histogram
//!   deltas) into `BENCH_serve.json` under `"stages"`.
//! * `XINSIGHT_BENCH_FAST=1` caps the request counts and durations for
//!   quick runs.
//!
//! Queries come from each model's bundled example pool (served by
//! `GET /models`), round-robined with a per-client offset so concurrent
//! clients overlap on some keys (exercising the LRU) without all hammering
//! one.

// thread::sleep allowed: readiness polling and open-loop pacing sleep by design (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xinsight_core::json::Json;
use xinsight_core::pipeline::XInsightOptions;
use xinsight_core::WhyQuery;
use xinsight_service::{
    build_demo_bundles, explain_v2_body, ingest_v2_body, series_value, validate_exposition,
    wait_healthy, DemoModel, HttpClient, ModelRegistry, ServerConfig,
};

/// A tiny deterministic LCG for the `--v2` option sampler — the workspace
/// convention for reproducible pseudo-randomness without a rand dependency
/// in binaries.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    }
}

/// How request arrival instants are drawn in open-loop mode.
#[derive(Clone, Copy, PartialEq)]
enum Arrival {
    /// Exponential inter-arrivals (a Poisson process) — bursty, the
    /// classic model of many independent users.
    Poisson,
    /// Fixed `1/rate` spacing — a perfectly paced comparison point.
    Uniform,
}

impl Arrival {
    fn name(self) -> &'static str {
        match self {
            Arrival::Poisson => "poisson",
            Arrival::Uniform => "uniform",
        }
    }
}

struct Args {
    addr: Option<String>,
    spawn: bool,
    smoke: bool,
    open_loop_smoke: bool,
    v2: bool,
    models_dir: Option<String>,
    demo: Vec<DemoModel>,
    demo_rows: usize,
    clients: Vec<usize>,
    requests: Option<usize>,
    model: Option<String>,
    ingest_mix: u64,
    /// Background-compaction threshold for the spawned server (0 = off).
    compact_after: usize,
    /// Skip the closed-loop matrix and run only the open-loop sweep.
    open_loop: bool,
    /// Explicit offered rates (req/s); empty = derive from capacity.
    rates: Vec<f64>,
    /// Arrival processes to sweep (default: both).
    arrivals: Vec<Arrival>,
    /// Open-loop cell length in seconds (default 2, fast mode 0.5).
    duration: Option<f64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen (--addr HOST:PORT | --spawn) [--smoke | --open-loop-smoke] [--v2] \
         [--ingest-mix PCT] [--compact-after N] [--clients 1,4] [--requests N] [--model ID] \
         [--models DIR] [--demo syn_a,flight] [--demo-rows N] [--open-loop] [--rate R1,R2] \
         [--arrival poisson|uniform|both] [--duration SECS]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        spawn: false,
        smoke: false,
        open_loop_smoke: false,
        v2: false,
        models_dir: None,
        demo: vec![DemoModel::SynA, DemoModel::Flight],
        demo_rows: 0,
        clients: vec![1, 4],
        requests: None,
        model: None,
        ingest_mix: 0,
        compact_after: 0,
        open_loop: false,
        rates: Vec::new(),
        arrivals: vec![Arrival::Poisson, Arrival::Uniform],
        duration: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--spawn" => args.spawn = true,
            "--smoke" => args.smoke = true,
            "--v2" => args.v2 = true,
            "--models" => args.models_dir = Some(value("--models")),
            "--demo" => {
                args.demo = value("--demo")
                    .split(',')
                    .map(|name| DemoModel::parse(name.trim()).unwrap_or_else(|| usage()))
                    .collect();
            }
            "--demo-rows" => {
                args.demo_rows = value("--demo-rows").parse().unwrap_or_else(|_| usage())
            }
            "--clients" => {
                args.clients = value("--clients")
                    .split(',')
                    .map(|c| c.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--requests" => args.requests = value("--requests").parse().ok(),
            "--ingest-mix" => {
                args.ingest_mix = value("--ingest-mix").parse().unwrap_or_else(|_| usage());
                if args.ingest_mix > 100 {
                    eprintln!("--ingest-mix must be 0..=100");
                    usage()
                }
            }
            "--compact-after" => {
                args.compact_after = value("--compact-after").parse().unwrap_or_else(|_| usage())
            }
            "--model" => args.model = Some(value("--model")),
            "--open-loop" => args.open_loop = true,
            "--open-loop-smoke" => args.open_loop_smoke = true,
            "--rate" => {
                args.rates = value("--rate")
                    .split(',')
                    .map(|r| r.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--arrival" => {
                args.arrivals = match value("--arrival").as_str() {
                    "poisson" => vec![Arrival::Poisson],
                    "uniform" => vec![Arrival::Uniform],
                    "both" => vec![Arrival::Poisson, Arrival::Uniform],
                    other => {
                        eprintln!("unknown arrival process `{other}`");
                        usage()
                    }
                };
            }
            "--duration" => args.duration = value("--duration").parse().ok(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    if args.addr.is_none() && !args.spawn {
        eprintln!("need --addr or --spawn");
        usage()
    }
    args
}

/// One model's serving inventory as reported by `GET /models`.
struct ModelInfo {
    id: String,
    queries: Vec<String>,
    /// Ingest template rows (serialized JSON objects) for write workloads.
    ingest_rows: Vec<String>,
}

fn fetch_models(addr: SocketAddr) -> Result<Vec<ModelInfo>, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let resp = client.get("/models").map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("GET /models -> {}: {}", resp.status, resp.body));
    }
    let doc = Json::parse(&resp.body).map_err(|e| e.to_string())?;
    let mut models = Vec::new();
    for entry in doc.as_arr().map_err(|e| e.to_string())? {
        let id = entry
            .get("id")
            .and_then(|v| v.as_str().map(str::to_owned))
            .map_err(|e| e.to_string())?;
        let queries = entry
            .get("example_queries")
            .and_then(|qs| {
                qs.as_arr()?
                    .iter()
                    // Validate each query locally, then keep its wire text.
                    .map(|q| WhyQuery::from_json_value(q).map(|_| q.to_string()))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        let ingest_rows = entry
            .get("ingest_template")
            .and_then(Json::as_arr)
            .map(|rows| rows.iter().map(|r| r.to_string()).collect())
            .unwrap_or_default();
        models.push(ModelInfo {
            id,
            queries,
            ingest_rows,
        });
    }
    Ok(models)
}

fn smoke(addr: SocketAddr) -> Result<(), String> {
    // Readiness gate: poll the cheap liveness endpoint instead of sleeping
    // and hoping the server is up.
    wait_healthy(addr, Duration::from_secs(30)).map_err(|e| e.to_string())?;
    println!("smoke: /healthz ok");

    let models = fetch_models(addr)?;
    let model = models.first().ok_or("no models loaded")?;
    let query = model
        .queries
        .first()
        .ok_or("model has no example queries")?;
    let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;

    let body = format!("{{\"model\":\"{}\",\"query\":{}}}", model.id, query);
    let resp = client.post("/explain", &body).map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("POST /explain -> {}: {}", resp.status, resp.body));
    }
    let doc = Json::parse(&resp.body).map_err(|e| e.to_string())?;
    doc.get("explanations")
        .and_then(Json::as_arr)
        .map_err(|e| format!("explain body missing explanations: {e}"))?;
    println!("smoke: /explain on `{}` ok", model.id);

    // The versioned surface, with a non-default top_k (api_v2 checks the
    // envelope itself; here it only has to reach the real binary).
    let resp = client
        .explain_v2(&model.id, query, Some("{\"top_k\":1}"))
        .map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!(
            "POST /v2/explain -> {}: {}",
            resp.status, resp.body
        ));
    }
    let doc = Json::parse(&resp.body).map_err(|e| e.to_string())?;
    let slots = doc
        .get("result")
        .and_then(|r| r.get("explanations"))
        .and_then(Json::as_arr)
        .map_err(|e| format!("v2 body missing result.explanations: {e}"))?;
    if slots.len() > 1 {
        return Err(format!("top_k=1 returned {} explanations", slots.len()));
    }
    println!("smoke: /v2/explain (top_k=1) on `{}` ok", model.id);

    // /metrics must come back as valid Prometheus text exposition (the
    // same validator the unit tests use) counting the explain above.
    let text = fetch_metrics(&mut client)?;
    if metric(&text, "xinsight_requests_total{endpoint=\"explain\"}")? < 1.0 {
        return Err("/metrics does not count the smoke's /explain".into());
    }
    println!("smoke: /metrics ok (valid Prometheus text exposition)");

    // Background compaction (when `--compact-after` reached the server):
    // grow the store to the threshold, capture an answer, wait for the
    // compactor to fold the segments to one, and assert the
    // post-compaction answer is byte-identical.
    let compact_after = metric(&text, "xinsight_compact_after")? as u64;
    if compact_after >= 2 {
        let segments_series = format!("xinsight_model_segments{{model=\"{}\"}}", model.id);
        let template = model
            .ingest_rows
            .first()
            .ok_or("model advertises no ingest template")?;
        let mut segments = metric(&text, &segments_series)? as u64;
        while segments < compact_after {
            let resp = client
                .post(
                    "/v2/ingest",
                    &ingest_v2_body(&model.id, &format!("[{template}]")),
                )
                .map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!("POST /v2/ingest -> {}: {}", resp.status, resp.body));
            }
            let doc = Json::parse(&resp.body).map_err(|e| e.to_string())?;
            segments = doc
                .get("segments")
                .and_then(Json::as_u64)
                .map_err(|e| format!("ingest body missing segments: {e}"))?;
        }
        let v2_result = |client: &mut HttpClient| -> Result<String, String> {
            let resp = client
                .explain_v2(&model.id, query, None)
                .map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!(
                    "POST /v2/explain -> {}: {}",
                    resp.status, resp.body
                ));
            }
            let doc = Json::parse(&resp.body).map_err(|e| e.to_string())?;
            doc.get("result")
                .map(Json::to_string)
                .map_err(|e| format!("v2 body missing result: {e}"))
        };
        let before = v2_result(&mut client)?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = fetch_metrics(&mut client)?;
            if metric(&text, "xinsight_compactions_total")? >= 1.0
                && metric(&text, &segments_series)? == 1.0
            {
                break;
            }
            if Instant::now() >= deadline {
                return Err("background compactor did not fold the segments within 10s".into());
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if v2_result(&mut client)? != before {
            return Err("post-compaction answer diverged from the pre-compaction answer".into());
        }
        println!("smoke: background compaction folded the store and preserved the answer");
    }

    // Slow-trace path: force a request past the server's slow threshold
    // via the debug sleep endpoint and assert it lands in the always-kept
    // slow reservoir.  Needs --debug-endpoints.
    let resp = client.get("/debug/traces").map_err(|e| e.to_string())?;
    if resp.status == 200 {
        let doc = Json::parse(&resp.body).map_err(|e| e.to_string())?;
        let threshold_ms = doc
            .get("slow_threshold_ms")
            .and_then(Json::as_u64)
            .map_err(|e| format!("/debug/traces missing slow_threshold_ms: {e}"))?;
        let ms = (threshold_ms + 50).min(2_000);
        let resp = client
            .post("/debug/sleep", &format!("{{\"ms\":{ms}}}"))
            .map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!(
                "POST /debug/sleep -> {}: {}",
                resp.status, resp.body
            ));
        }
        let resp = client.get("/debug/traces").map_err(|e| e.to_string())?;
        if resp.status != 200 {
            return Err(format!(
                "GET /debug/traces -> {}: {}",
                resp.status, resp.body
            ));
        }
        let doc = Json::parse(&resp.body).map_err(|e| e.to_string())?;
        let slow = doc
            .get("slow")
            .and_then(Json::as_arr)
            .map_err(|e| format!("/debug/traces missing slow reservoir: {e}"))?;
        if !slow.iter().any(|t| {
            t.get("endpoint")
                .and_then(Json::as_str)
                .is_ok_and(|e| e == "POST /debug/sleep")
        }) {
            return Err("slow sleep request did not land in the slow-trace reservoir".into());
        }
        println!("smoke: slow request ({ms}ms) landed in the slow-trace reservoir");
    } else {
        println!(
            "smoke: /debug/traces disabled (no --debug-endpoints) — skipping slow-trace check"
        );
    }

    let resp = client
        .post("/admin/shutdown", "{}")
        .map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("shutdown -> {}: {}", resp.status, resp.body));
    }
    println!("smoke: graceful shutdown requested");
    Ok(())
}

struct RunResult {
    name: String,
    model: String,
    clients: usize,
    requests: usize,
    errors: usize,
    seconds: f64,
    /// Blended rate: reads *and* ingests completed per second.
    throughput_rps: f64,
    /// Explain-only rate — the number the mixed-workload acceptance gate
    /// compares against the pure-read baseline.
    read_throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    cache_hit_rate: f64,
    /// `/v2/ingest` requests issued by the mixed workload (0 on pure-read
    /// runs) and their exact latency percentiles.
    ingest_requests: usize,
    ingest_p50_us: u64,
    ingest_p99_us: u64,
    /// Server-side per-stage latency attribution across this cell, from
    /// `/metrics` histogram deltas (bucket-upper-bound percentiles).
    stages: Vec<StageDelta>,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64) * p).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1]
}

/// `GET /metrics`, checked for a 200 and pushed through the full
/// exposition-grammar validator, so every scrape doubles as a format check.
fn fetch_metrics(client: &mut HttpClient) -> Result<String, String> {
    let resp = client.get("/metrics").map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("GET /metrics -> {}: {}", resp.status, resp.body));
    }
    validate_exposition(&resp.body)
        .map_err(|e| format!("/metrics failed exposition validation: {e}"))?;
    Ok(resp.body)
}

/// One series off a `/metrics` scrape; a missing series is an error.
fn metric(text: &str, series: &str) -> Result<f64, String> {
    series_value(text, series).ok_or_else(|| format!("/metrics has no `{series}`"))
}

/// One per-stage latency histogram pulled off `GET /metrics`:
/// `(upper bound in seconds, cumulative count)` pairs with `+Inf` last.
struct StageScrape {
    stage: String,
    buckets: Vec<(f64, u64)>,
    sum_seconds: f64,
    count: u64,
}

/// One scrape of `GET /metrics`, pushed through the exposition validator
/// and decomposed into the series the bench reconciles: the per-endpoint
/// request counters, the per-stage latency histograms, and the
/// result-cache `(served, misses)` — "served" sums all three tiers of the
/// segment-scoped cache: exact fingerprint hits, prefix promotions, and
/// prefix merges (cached per-prefix partials replayed, only the new
/// segments computed fresh).
struct MetricsScrape {
    endpoints: Vec<(String, u64)>,
    stages: Vec<StageScrape>,
    cache_served: u64,
    cache_misses: u64,
}

impl MetricsScrape {
    fn endpoint(&self, name: &str) -> u64 {
        self.endpoints
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    }
}

fn scrape_metrics(addr: SocketAddr) -> Result<MetricsScrape, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let body = fetch_metrics(&mut client)?;
    let tier = |tier: &str| -> Result<u64, String> {
        metric(
            &body,
            &format!("xinsight_result_cache_total{{tier=\"{tier}\"}}"),
        )
        .map(|v| v as u64)
    };
    let mut scrape = MetricsScrape {
        endpoints: Vec::new(),
        stages: Vec::new(),
        cache_served: tier("hit")? + tier("prefix_hit")? + tier("merged")?,
        cache_misses: tier("miss")?,
    };
    fn stage_slot<'a>(stages: &'a mut Vec<StageScrape>, name: &str) -> &'a mut StageScrape {
        if let Some(i) = stages.iter().position(|s| s.stage == name) {
            return &mut stages[i];
        }
        stages.push(StageScrape {
            stage: name.to_owned(),
            buckets: Vec::new(),
            sum_seconds: 0.0,
            count: 0,
        });
        stages.last_mut().expect("just pushed")
    }
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Some(rest) = series.strip_prefix("xinsight_requests_total{endpoint=\"") {
            if let Some(name) = rest.strip_suffix("\"}") {
                scrape
                    .endpoints
                    .push((name.to_owned(), value.parse().unwrap_or(0)));
            }
        } else if let Some(rest) =
            series.strip_prefix("xinsight_stage_latency_seconds_bucket{stage=\"")
        {
            let Some((stage, rest)) = rest.split_once("\",le=\"") else {
                continue;
            };
            let Some(le) = rest.strip_suffix("\"}") else {
                continue;
            };
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            stage_slot(&mut scrape.stages, stage)
                .buckets
                .push((le, value.parse().unwrap_or(0)));
        } else if let Some(rest) =
            series.strip_prefix("xinsight_stage_latency_seconds_sum{stage=\"")
        {
            if let Some(stage) = rest.strip_suffix("\"}") {
                stage_slot(&mut scrape.stages, stage).sum_seconds = value.parse().unwrap_or(0.0);
            }
        } else if let Some(rest) =
            series.strip_prefix("xinsight_stage_latency_seconds_count{stage=\"")
        {
            if let Some(stage) = rest.strip_suffix("\"}") {
                stage_slot(&mut scrape.stages, stage).count = value.parse().unwrap_or(0.0) as u64;
            }
        }
    }
    Ok(scrape)
}

/// One stage's latency attribution across a single bench cell, computed
/// from `/metrics` histogram deltas.  The percentiles are bucket upper
/// bounds (the exposition's `le` ladder), not exact order statistics.
struct StageDelta {
    stage: String,
    count: u64,
    mean_us: u64,
    p50_us: u64,
    p99_us: u64,
}

/// Diffs two `/metrics` scrapes into per-stage cell attribution.  Stages
/// that recorded nothing during the cell are dropped.
fn stage_deltas(before: &MetricsScrape, after: &MetricsScrape) -> Vec<StageDelta> {
    let mut out = Vec::new();
    for s in &after.stages {
        let b = before.stages.iter().find(|x| x.stage == s.stage);
        let count = s.count.saturating_sub(b.map(|b| b.count).unwrap_or(0));
        if count == 0 {
            continue;
        }
        let sum = (s.sum_seconds - b.map(|b| b.sum_seconds).unwrap_or(0.0)).max(0.0);
        let deltas: Vec<(f64, u64)> = s
            .buckets
            .iter()
            .map(|(le, c)| {
                let prev = b
                    .and_then(|b| b.buckets.iter().find(|(ble, _)| ble == le))
                    .map(|(_, c)| *c)
                    .unwrap_or(0);
                (*le, c.saturating_sub(prev))
            })
            .collect();
        let pct = |p: f64| -> u64 {
            let rank = ((count as f64) * p).ceil().max(1.0) as u64;
            let mut last_finite = 0u64;
            for (le, cum) in &deltas {
                if le.is_finite() {
                    last_finite = (*le * 1e6) as u64;
                }
                if *cum >= rank {
                    return if le.is_finite() {
                        (*le * 1e6) as u64
                    } else {
                        last_finite
                    };
                }
            }
            last_finite
        };
        out.push(StageDelta {
            stage: s.stage.clone(),
            count,
            mean_us: (sum * 1e6 / count as f64) as u64,
            p50_us: pct(0.50),
            p99_us: pct(0.99),
        });
    }
    out
}

/// Runs one closed loop: `clients` threads × `requests_per_client`
/// requests against `model`, round-robining its query pool.  In `v2` mode
/// each request goes to `POST /v2/explain` with a deterministic
/// pseudo-random `top_k` in `1..=4` — distinct options are distinct LRU
/// keys, so this sweeps a 4× larger key space than the v1 loop.  With
/// `ingest_mix > 0`, each iteration instead issues a `POST /v2/ingest`
/// with that percent probability (pseudo-random rows derived from the
/// model's ingest templates by perturbing the measures), making the loop a
/// mixed read/write workload; ingest latencies are tallied separately and
/// the cache-hit delta exposes the post-ingest LRU cost.
///
/// Each client first runs `warmup_per_client` untimed read-only requests
/// (caches and code paths go hot before the clock starts), then the timed
/// window runs to `requests_per_client` **and** keeps looping until it has
/// lasted at least `min_duration` — sub-second cells are too noisy to
/// compare across runs.
#[allow(clippy::too_many_arguments)]
fn run_closed_loop(
    addr: SocketAddr,
    model: &ModelInfo,
    clients: usize,
    requests_per_client: usize,
    v2: bool,
    ingest_mix: u64,
    tag: &str,
    warmup_per_client: usize,
    min_duration: Duration,
) -> Result<RunResult, String> {
    let queries = Arc::new(model.queries.clone());
    if queries.is_empty() {
        return Err(format!("model `{}` has no example queries", model.id));
    }
    if ingest_mix > 0 && model.ingest_rows.is_empty() {
        return Err(format!(
            "model `{}` advertises no ingest templates for --ingest-mix",
            model.id
        ));
    }
    let templates = Arc::new(model.ingest_rows.clone());
    // Two barriers bracket the warmup: every client finishes warming before
    // the main thread samples the cache counters and opens the timed
    // window, so the reported hit rate and throughput cover exactly the
    // timed requests.
    let warm = Arc::new(std::sync::Barrier::new(clients + 1));
    let go = Arc::new(std::sync::Barrier::new(clients + 1));
    let mut handles = Vec::new();
    for client_id in 0..clients {
        let queries = Arc::clone(&queries);
        let templates = Arc::clone(&templates);
        let model_id = model.id.clone();
        let warm = Arc::clone(&warm);
        let go = Arc::clone(&go);
        handles.push(std::thread::spawn(
            move || -> Result<(Vec<u64>, Vec<u64>, usize), String> {
                let mut http = HttpClient::connect(addr).map_err(|e| e.to_string());
                let mut sample = lcg(client_id as u64 + 1);
                // Untimed warmup — read-only (warmup must not grow the
                // store), errors deferred until the barriers have passed so
                // a failing client cannot deadlock the others.
                if let Ok(http) = http.as_mut() {
                    for w in 0..warmup_per_client {
                        let query = &queries[(client_id * 3 + w) % queries.len()];
                        let (path, body) = if v2 {
                            let top_k = 1 + sample() % 4;
                            let options = format!("{{\"top_k\":{top_k}}}");
                            (
                                "/v2/explain",
                                explain_v2_body(&model_id, query, Some(&options)),
                            )
                        } else {
                            (
                                "/explain",
                                format!("{{\"model\":\"{model_id}\",\"query\":{query}}}"),
                            )
                        };
                        if http.post(path, &body).is_err() {
                            break;
                        }
                    }
                }
                warm.wait();
                go.wait();
                let mut http = http?;
                let timed = Instant::now();
                let mut latencies = Vec::with_capacity(requests_per_client);
                let mut ingest_latencies = Vec::new();
                let mut errors = 0usize;
                let mut i = 0usize;
                while i < requests_per_client || timed.elapsed() < min_duration {
                    let (path, body) = if ingest_mix > 0 && sample() % 100 < ingest_mix {
                        let template = &templates[sample() as usize % templates.len()];
                        let row = perturb_measures(template, sample());
                        ("/v2/ingest", ingest_v2_body(&model_id, &format!("[{row}]")))
                    } else if v2 {
                        let query = &queries[(client_id * 3 + i) % queries.len()];
                        let top_k = 1 + sample() % 4;
                        let options = format!("{{\"top_k\":{top_k}}}");
                        (
                            "/v2/explain",
                            explain_v2_body(&model_id, query, Some(&options)),
                        )
                    } else {
                        // Per-client offset: clients overlap on keys without
                        // moving in lockstep.
                        let query = &queries[(client_id * 3 + i) % queries.len()];
                        (
                            "/explain",
                            format!("{{\"model\":\"{model_id}\",\"query\":{query}}}"),
                        )
                    };
                    let t0 = Instant::now();
                    match http.post(path, &body) {
                        Ok(resp) if resp.status == 200 => {
                            let us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
                            if path == "/v2/ingest" {
                                ingest_latencies.push(us);
                            } else {
                                latencies.push(us);
                            }
                        }
                        Ok(_) => errors += 1,
                        Err(e) => return Err(format!("client {client_id}: {e}")),
                    }
                    i += 1;
                }
                Ok((latencies, ingest_latencies, errors))
            },
        ));
    }
    warm.wait();
    let metrics_before = scrape_metrics(addr)?;
    let started = Instant::now();
    go.wait();
    let mut latencies = Vec::new();
    let mut ingest_latencies = Vec::new();
    let mut errors = 0usize;
    for handle in handles {
        let (mut l, mut il, e) = handle
            .join()
            .map_err(|_| "client thread panicked".to_owned())??;
        latencies.append(&mut l);
        ingest_latencies.append(&mut il);
        errors += e;
    }
    let seconds = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    ingest_latencies.sort_unstable();

    // Server-vs-client reconciliation: every per-endpoint counter on
    // /metrics increments exactly once per 200 its handler produced, so
    // the counter deltas across the timed window must equal what the
    // clients observed back.  A mismatch means the server's accounting
    // (or the trace plumbing sharing its code path) dropped or double
    // counted a request — fail the bench loudly rather than publish
    // numbers the server disagrees with.  Non-200 answers don't bump the
    // endpoint counters, so with errors the delta is only a lower bound.
    let metrics_after = scrape_metrics(addr)?;
    let reconcile = |name: &str, observed: usize| -> Result<(), String> {
        let server = metrics_after
            .endpoint(name)
            .saturating_sub(metrics_before.endpoint(name));
        let ok = if errors == 0 {
            server == observed as u64
        } else {
            server >= observed as u64
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "metrics reconciliation failed: server counted {server} \
                 `{name}` requests across the cell, clients observed {observed} \
                 ({errors} errors)"
            ))
        }
    };
    reconcile(if v2 { "explain_v2" } else { "explain" }, latencies.len())?;
    reconcile("ingest_v2", ingest_latencies.len())?;

    // This run's own cache effectiveness: the counter deltas across it.
    let delta_served = metrics_after
        .cache_served
        .saturating_sub(metrics_before.cache_served);
    let delta_lookups = delta_served
        + metrics_after
            .cache_misses
            .saturating_sub(metrics_before.cache_misses);
    let cache_hit_rate = if delta_lookups == 0 {
        0.0
    } else {
        delta_served as f64 / delta_lookups as f64
    };

    let total = latencies.len() + ingest_latencies.len();
    Ok(RunResult {
        name: format!(
            "{}/clients{}{}{}{}",
            model.id,
            clients,
            if v2 { "/v2" } else { "" },
            if ingest_mix > 0 {
                format!("/ingest{ingest_mix}")
            } else {
                String::new()
            },
            tag
        ),
        model: model.id.clone(),
        clients,
        requests: total,
        errors,
        seconds,
        throughput_rps: total as f64 / seconds.max(1e-9),
        read_throughput_rps: latencies.len() as f64 / seconds.max(1e-9),
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        cache_hit_rate,
        ingest_requests: ingest_latencies.len(),
        ingest_p50_us: percentile(&ingest_latencies, 0.50),
        ingest_p99_us: percentile(&ingest_latencies, 0.99),
        stages: stage_deltas(&metrics_before, &metrics_after),
    })
}

/// Derives a pseudo-random ingest row from a template row object by
/// perturbing every numeric (measure) field with a small deterministic
/// jitter — realistic "new" rows without shipping the generators over the
/// wire.  Dimension values are kept, so the row stays schema-valid.
fn perturb_measures(template: &str, salt: u64) -> String {
    let Ok(Json::Obj(fields)) = Json::parse(template) else {
        return template.to_owned();
    };
    let jitter = (salt % 1000) as f64 / 1000.0;
    Json::Obj(
        fields
            .into_iter()
            .map(|(name, value)| match value {
                Json::Num(x) => (name, Json::Num(x + jitter)),
                other => (name, other),
            })
            .collect(),
    )
    .to_string()
}

/// One open-loop cell's outcome.  `requests` is the full arrival schedule
/// (every arrival is issued — nothing is silently dropped), `shed_503` the
/// admission-control rejections, `errors` hard failures (non-200/503 or a
/// broken connection).
struct OpenLoopResult {
    name: String,
    model: String,
    arrival: &'static str,
    offered_rps: f64,
    /// Successful responses per second of wall clock — under overload this
    /// saturates at service capacity while `offered_rps` keeps climbing.
    achieved_rps: f64,
    requests: usize,
    shed_503: usize,
    errors: usize,
    seconds: f64,
    p50_us: u64,
    p99_us: u64,
    overload: bool,
}

/// The maximum offered rate a server sustained cleanly (no sheds, no
/// errors, ≥95% of offered achieved, bounded p99) in the geometric ramp.
struct SustainableRate {
    model: String,
    arrival: &'static str,
    rps: f64,
}

/// What each open-loop arrival sends.
#[derive(Clone)]
enum OpenRequest {
    /// Round-robin explains from a model's example pool (v1 or v2 wire).
    Explain {
        model_id: String,
        queries: Arc<Vec<String>>,
        v2: bool,
    },
    /// `POST /debug/sleep` — a fixed service time, so the overload cell's
    /// capacity is known exactly (`workers × 1000/ms` req/s).
    Sleep { ms: u64 },
}

impl OpenRequest {
    fn build(&self, i: usize) -> (&'static str, String) {
        match self {
            OpenRequest::Explain {
                model_id,
                queries,
                v2,
            } => {
                let query = &queries[i % queries.len()];
                if *v2 {
                    let top_k = 1 + (i % 4);
                    let options = format!("{{\"top_k\":{top_k}}}");
                    (
                        "/v2/explain",
                        explain_v2_body(model_id, query, Some(&options)),
                    )
                } else {
                    (
                        "/explain",
                        format!("{{\"model\":\"{model_id}\",\"query\":{query}}}"),
                    )
                }
            }
            OpenRequest::Sleep { ms } => ("/debug/sleep", format!("{{\"ms\":{ms}}}")),
        }
    }
}

/// Draws the full arrival schedule up front: offsets from the epoch at
/// which each request is *supposed* to start.  Poisson uses inverse-CDF
/// exponential spacing from the deterministic LCG; uniform is fixed
/// `1/rate` spacing.
fn arrival_schedule(arrival: Arrival, rate: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    let mut sample = lcg(seed);
    let horizon = duration.as_secs_f64();
    let mut offsets = Vec::with_capacity((rate * horizon) as usize + 1);
    let mut t = 0.0f64;
    while t < horizon {
        offsets.push(Duration::from_secs_f64(t));
        t += match arrival {
            Arrival::Poisson => {
                // u ∈ (0, 1] so the log is finite; 53 bits of the LCG.
                let u = ((sample() & ((1u64 << 53) - 1)) + 1) as f64 / (1u64 << 53) as f64;
                -u.ln() / rate
            }
            Arrival::Uniform => 1.0 / rate,
        };
    }
    offsets
}

fn reconnect(addr: SocketAddr) -> Result<HttpClient, String> {
    let mut last = String::new();
    for _ in 0..20 {
        match HttpClient::connect(addr) {
            Ok(h) => return Ok(h),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    Err(format!("reconnect to {addr} failed: {last}"))
}

/// Drives one open-loop cell: a pre-drawn arrival schedule is serviced by
/// a pool of `conns` connections, any free connection claiming the next
/// arrival from a shared index.  Every latency is measured from the
/// arrival's **intended** instant — if all connections are busy when an
/// arrival comes due, the wait shows up in the recorded latency instead of
/// silently stretching the schedule, so the percentiles are free of
/// coordinated omission.  `503` sheds and hard errors are tallied
/// separately; both reconnect (the server closes a connection it sheds).
#[allow(clippy::too_many_arguments)]
fn run_open_loop(
    addr: SocketAddr,
    name: String,
    model: &str,
    request: OpenRequest,
    arrival: Arrival,
    rate: f64,
    duration: Duration,
    conns: usize,
    overload: bool,
) -> Result<OpenLoopResult, String> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let offsets = Arc::new(arrival_schedule(
        arrival,
        rate,
        duration,
        rate.to_bits() ^ 0x5EED,
    ));
    let next = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new(std::sync::Barrier::new(conns + 1));
    // Every thread (and the main thread, for the wall clock) shares one
    // epoch: whoever exits the barrier first pins it.
    let epoch = Arc::new(std::sync::OnceLock::<Instant>::new());
    let mut handles = Vec::new();
    for _ in 0..conns {
        let offsets = Arc::clone(&offsets);
        let next = Arc::clone(&next);
        let gate = Arc::clone(&gate);
        let epoch = Arc::clone(&epoch);
        let request = request.clone();
        handles.push(std::thread::spawn(
            move || -> Result<(Vec<u64>, usize, usize), String> {
                let http = HttpClient::connect(addr).map_err(|e| e.to_string());
                gate.wait();
                let epoch = *epoch.get_or_init(Instant::now);
                let mut http = http?;
                let mut latencies = Vec::new();
                let (mut shed, mut errors) = (0usize, 0usize);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed); // relaxed: work cursor; atomicity alone partitions indices
                    if i >= offsets.len() {
                        break;
                    }
                    let intended = epoch + offsets[i];
                    if let Some(wait) = intended.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let (path, body) = request.build(i);
                    match http.post(path, &body) {
                        Ok(resp) => {
                            let us = Instant::now()
                                .saturating_duration_since(intended)
                                .as_micros()
                                .min(u64::MAX as u128) as u64;
                            match resp.status {
                                200 => latencies.push(us),
                                503 => shed += 1,
                                _ => errors += 1,
                            }
                            if resp.closing {
                                http = reconnect(addr)?;
                            }
                        }
                        Err(_) => {
                            errors += 1;
                            http = reconnect(addr)?;
                        }
                    }
                }
                Ok((latencies, shed, errors))
            },
        ));
    }
    gate.wait();
    let epoch = *epoch.get_or_init(Instant::now);
    let mut latencies = Vec::new();
    let (mut shed, mut errors) = (0usize, 0usize);
    for handle in handles {
        let (mut l, s, e) = handle
            .join()
            .map_err(|_| "open-loop connection thread panicked".to_owned())??;
        latencies.append(&mut l);
        shed += s;
        errors += e;
    }
    let seconds = epoch.elapsed().as_secs_f64();
    latencies.sort_unstable();
    Ok(OpenLoopResult {
        name,
        model: model.to_owned(),
        arrival: arrival.name(),
        offered_rps: rate,
        achieved_rps: latencies.len() as f64 / seconds.max(1e-9),
        requests: offsets.len(),
        shed_503: shed,
        errors,
        seconds,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        overload,
    })
}

fn print_open(run: &OpenLoopResult) {
    println!(
        "{:<34} offered {:>8.1} req/s   achieved {:>8.1}   p50 {:>8.3} ms   \
         p99 {:>8.3} ms   {} ok / {} shed / {} err",
        run.name,
        run.offered_rps,
        run.achieved_rps,
        run.p50_us as f64 / 1e3,
        run.p99_us as f64 / 1e3,
        run.requests - run.shed_503 - run.errors,
        run.shed_503,
        run.errors,
    );
}

/// `(workers, queue capacity)` as reported by `/metrics` — sizes the
/// deterministic overload cell.
fn queue_info(addr: SocketAddr) -> Result<(u64, u64), String> {
    let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let text = fetch_metrics(&mut client)?;
    let workers = metric(&text, "xinsight_workers")? as u64;
    let capacity = metric(&text, "xinsight_queue_capacity")? as u64;
    Ok((workers, capacity))
}

fn has_debug_endpoints(addr: SocketAddr) -> Result<bool, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let resp = client
        .post("/debug/sleep", "{\"ms\":0}")
        .map_err(|e| e.to_string())?;
    Ok(resp.status == 200)
}

/// The deterministic overload cell: `POST /debug/sleep` gives every
/// request a fixed service time, so capacity is exactly
/// `workers × 1000/SLEEP_MS` req/s and offering 2× that *must* fill the
/// admission queue and shed.  Returns `None` when the target can't run it
/// (no debug endpoints, or a queue too large to fill in a bounded cell).
fn run_overload(addr: SocketAddr, fast: bool) -> Result<Option<OpenLoopResult>, String> {
    if !has_debug_endpoints(addr)? {
        return Ok(None);
    }
    let (workers, qcap) = queue_info(addr)?;
    if qcap > 512 {
        return Ok(None);
    }
    const SLEEP_MS: u64 = 20;
    let capacity = workers as f64 * (1000.0 / SLEEP_MS as f64);
    let rate = 2.0 * capacity;
    // At 2× capacity the backlog grows at `capacity` req/s, so the queue
    // fills after qcap/capacity seconds — size the cell to spend most of
    // its time actually shedding.
    let fill = qcap as f64 / capacity;
    let base: f64 = if fast { 0.8 } else { 2.0 };
    let duration = Duration::from_secs_f64(base.max(fill * 1.5 + 0.5));
    // One connection can park in each queue slot and each worker; the rest
    // of the pool keeps offering (and eating fast 503s).
    let conns = (qcap as usize + workers as usize + 32).min(512);
    let run = run_open_loop(
        addr,
        format!("overload/2x/{rate:.0}rps"),
        "debug_sleep",
        OpenRequest::Sleep { ms: SLEEP_MS },
        Arrival::Poisson,
        rate,
        duration,
        conns,
        true,
    )?;
    Ok(Some(run))
}

/// The open-loop sweep: per model, offered rates at ¼/½/¾ of a measured
/// closed-loop capacity estimate (or the explicit `--rate` list) under
/// each arrival process, then a geometric ramp to the max sustainable
/// rate, and finally the 2× overload cell.
fn run_open_loop_suite(
    addr: SocketAddr,
    args: &Args,
    fast: bool,
    closed: &[RunResult],
    spawned_dir: Option<&str>,
) -> Result<(Vec<OpenLoopResult>, Vec<SustainableRate>), String> {
    let models = fetch_models(addr)?;
    let models: Vec<&ModelInfo> = match &args.model {
        Some(id) => {
            let found: Vec<&ModelInfo> = models.iter().filter(|m| &m.id == id).collect();
            if found.is_empty() {
                return Err(format!("model `{id}` is not loaded on the server"));
            }
            found
        }
        None => models.iter().collect(),
    };
    let cell = Duration::from_secs_f64(args.duration.unwrap_or(if fast { 0.5 } else { 2.0 }));
    const OPEN_CONNS: usize = 64;
    println!(
        "\n## open-loop sweep (latency from intended start, {:.1}s cells, {OPEN_CONNS} conns)\n",
        cell.as_secs_f64()
    );
    let mut open = Vec::new();
    let mut sustainable = Vec::new();
    for model in &models {
        if model.queries.is_empty() {
            return Err(format!("model `{}` has no example queries", model.id));
        }
        // Capacity estimate: the best pure-read closed-loop rate this
        // bench already measured, else a quick probe.
        let mut capacity = closed
            .iter()
            .filter(|r| r.model == model.id && r.ingest_requests == 0)
            .map(|r| r.read_throughput_rps)
            .fold(0.0f64, f64::max);
        if capacity <= 0.0 {
            let probe = run_closed_loop(
                addr,
                model,
                4,
                if fast { 50 } else { 200 },
                args.v2,
                0,
                "/probe",
                if fast { 5 } else { 25 },
                Duration::from_secs(1),
            )?;
            println!(
                "{:<34} capacity probe {:.1} req/s",
                probe.name, probe.read_throughput_rps
            );
            capacity = probe.read_throughput_rps;
        }
        let rates: Vec<f64> = if args.rates.is_empty() {
            [0.25, 0.5, 0.75]
                .iter()
                .map(|f| (f * capacity).max(5.0))
                .collect()
        } else {
            args.rates.clone()
        };
        let request = OpenRequest::Explain {
            model_id: model.id.clone(),
            queries: Arc::new(model.queries.clone()),
            v2: args.v2,
        };
        for &arrival in &args.arrivals {
            for &rate in &rates {
                let name = format!(
                    "{}/open/{}/{rate:.0}rps{}",
                    model.id,
                    arrival.name(),
                    if args.v2 { "/v2" } else { "" }
                );
                let run = run_open_loop(
                    addr,
                    name,
                    &model.id,
                    request.clone(),
                    arrival,
                    rate,
                    cell,
                    OPEN_CONNS,
                    false,
                )?;
                print_open(&run);
                open.push(run);
            }
        }
        // Max sustainable rate: ramp geometrically until a cell sheds,
        // errs, falls short of its offered rate, or blows the p99 bound.
        if args.rates.is_empty() {
            let ramp_cell = Duration::from_secs_f64(if fast { 0.4 } else { 1.0 });
            let mut rate = (capacity * 0.5).max(10.0);
            let mut best = 0.0f64;
            for _ in 0..16 {
                let run = run_open_loop(
                    addr,
                    format!("{}/ramp/{rate:.0}rps", model.id),
                    &model.id,
                    request.clone(),
                    Arrival::Poisson,
                    rate,
                    ramp_cell,
                    OPEN_CONNS,
                    false,
                )?;
                let clean = run.shed_503 == 0
                    && run.errors == 0
                    && run.achieved_rps >= 0.95 * run.offered_rps
                    && run.p99_us < 250_000;
                if !clean {
                    break;
                }
                best = rate;
                rate *= 1.25;
            }
            println!(
                "{:<34} max sustainable ≈ {best:.1} req/s (poisson)",
                model.id
            );
            sustainable.push(SustainableRate {
                model: model.id.clone(),
                arrival: "poisson",
                rps: best,
            });
        }
    }
    // Overload cell.  A spawned bench gets a dedicated small-queue server
    // (known, short fill time); an external target runs it only if its own
    // queue is small enough to fill deterministically.
    if args.rates.is_empty() {
        let cell_result = if let Some(dir) = spawned_dir {
            let registry =
                ModelRegistry::open(dir, XInsightOptions::default()).map_err(|e| e.to_string())?;
            let config = ServerConfig {
                workers: 2,
                queue_capacity: 16,
                debug_endpoints: true,
                ..ServerConfig::default()
            };
            let handle =
                xinsight_service::start(Arc::new(registry), &config).map_err(|e| e.to_string())?;
            let run = run_overload(handle.addr(), fast);
            handle.shutdown();
            run?
        } else {
            run_overload(addr, fast)?
        };
        match cell_result {
            Some(run) => {
                print_open(&run);
                if run.errors > 0 {
                    return Err(format!(
                        "overload cell hit {} hard errors — shedding must be clean 503s",
                        run.errors
                    ));
                }
                open.push(run);
            }
            None => println!("overload cell skipped (no debug endpoints, or queue too large)"),
        }
    }
    Ok((open, sustainable))
}

/// The CI slice of the open-loop story: a modest-rate run that must come
/// back perfectly clean, then an overload burst that must shed — proving
/// both that the event loop keeps up and that admission control degrades
/// by rejecting rather than collapsing.
fn open_loop_smoke(addr: SocketAddr) -> Result<(), String> {
    wait_healthy(addr, Duration::from_secs(30)).map_err(|e| e.to_string())?;
    println!("open-loop smoke: /healthz ok");
    let models = fetch_models(addr)?;
    let model = models.first().ok_or("no models loaded")?;
    if model.queries.is_empty() {
        return Err(format!("model `{}` has no example queries", model.id));
    }
    let request = OpenRequest::Explain {
        model_id: model.id.clone(),
        queries: Arc::new(model.queries.clone()),
        v2: false,
    };
    let run = run_open_loop(
        addr,
        format!("{}/open/poisson/50rps", model.id),
        &model.id,
        request,
        Arrival::Poisson,
        50.0,
        Duration::from_secs(1),
        8,
        false,
    )?;
    if run.requests == 0 {
        return Err("open-loop run issued no requests".into());
    }
    if run.errors > 0 || run.shed_503 > 0 {
        return Err(format!(
            "modest-rate open-loop run was not clean: {} shed, {} errors",
            run.shed_503, run.errors
        ));
    }
    println!(
        "open-loop smoke: {} requests at 50 req/s poisson, zero shed, zero errors (p99 {:.3} ms)",
        run.requests,
        run.p99_us as f64 / 1e3
    );
    let overload = run_overload(addr, true)?
        .ok_or("server has no debug endpoints (run with --spawn or --debug-endpoints)")?;
    if overload.shed_503 == 0 {
        return Err("overload burst at 2x capacity shed no 503s".into());
    }
    if overload.errors > 0 {
        return Err(format!(
            "overload burst hit {} hard errors — shedding must be clean 503s",
            overload.errors
        ));
    }
    println!(
        "open-loop smoke: overload at 2x capacity shed {} of {} requests with zero hard errors",
        overload.shed_503, overload.requests
    );
    let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
    let resp = client
        .post("/admin/shutdown", "{}")
        .map_err(|e| e.to_string())?;
    if resp.status != 200 {
        return Err(format!("shutdown -> {}: {}", resp.status, resp.body));
    }
    println!("open-loop smoke: graceful shutdown requested");
    Ok(())
}

fn write_bench_json(
    threads: usize,
    results: &[RunResult],
    open: &[OpenLoopResult],
    sustainable: &[SustainableRate],
) {
    let mut out = String::from("{\"bench\":\"serve\",\"threads\":");
    out.push_str(&threads.to_string());
    out.push_str(",\"results\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"model\":\"{}\",\"clients\":{},\"requests\":{},\
             \"errors\":{},\"seconds\":{:.6},\"throughput_rps\":{:.3},\
             \"read_throughput_rps\":{:.3},\
             \"p50_us\":{},\"p99_us\":{},\"cache_hit_rate\":{:.4},\
             \"ingest_requests\":{},\"ingest_p50_us\":{},\"ingest_p99_us\":{}",
            r.name,
            r.model,
            r.clients,
            r.requests,
            r.errors,
            r.seconds,
            r.throughput_rps,
            r.read_throughput_rps,
            r.p50_us,
            r.p99_us,
            r.cache_hit_rate,
            r.ingest_requests,
            r.ingest_p50_us,
            r.ingest_p99_us
        ));
        out.push_str(",\"stages\":[");
        for (j, s) in r.stages.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"count\":{},\"mean_us\":{},\
                 \"p50_us\":{},\"p99_us\":{}}}",
                s.stage, s.count, s.mean_us, s.p50_us, s.p99_us
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\"open_loop\":[");
    for (i, r) in open.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"model\":\"{}\",\"arrival\":\"{}\",\
             \"offered_rps\":{:.3},\"achieved_rps\":{:.3},\"requests\":{},\
             \"shed_503\":{},\"errors\":{},\"seconds\":{:.6},\
             \"p50_us\":{},\"p99_us\":{},\"overload\":{}}}",
            r.name,
            r.model,
            r.arrival,
            r.offered_rps,
            r.achieved_rps,
            r.requests,
            r.shed_503,
            r.errors,
            r.seconds,
            r.p50_us,
            r.p99_us,
            r.overload
        ));
    }
    out.push_str("],\"max_sustainable\":[");
    for (i, s) in sustainable.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"model\":\"{}\",\"arrival\":\"{}\",\"rps\":{:.3}}}",
            s.model, s.arrival, s.rps
        ));
    }
    out.push_str("]}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote summary to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let threads = xinsight_core::parallel::configure_pool_from_env();
    let args = parse_args();
    let fast = std::env::var("XINSIGHT_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false);
    eprintln!("# worker threads (rayon): {threads}");

    // --spawn: fit demo bundles and run an in-process server to target.
    let mut spawned = None;
    let mut spawned_dir = None;
    let addr: SocketAddr = if args.spawn {
        let dir = args.models_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir()
                .join(format!("xinsight_loadgen_models_{}", std::process::id()))
                .to_string_lossy()
                .into_owned()
        });
        let options = XInsightOptions::default();
        let registry = ModelRegistry::open_empty(&dir, options.clone());
        eprintln!("fitting {} demo bundle(s) into {dir} …", args.demo.len());
        if let Err(e) = build_demo_bundles(&registry, &args.demo, args.demo_rows) {
            eprintln!("building demo bundles failed: {e}");
            return ExitCode::FAILURE;
        }
        let registry = match ModelRegistry::open(&dir, options) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("opening registry failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut config = ServerConfig {
            compact_after: args.compact_after,
            // In-process bench servers always expose /debug/sleep — the
            // open-loop overload cell needs a known service time.
            debug_endpoints: true,
            ..ServerConfig::default()
        };
        if args.open_loop_smoke {
            // A small, known admission queue makes the overload burst
            // deterministic and quick for CI.
            config.workers = 2;
            config.queue_capacity = 16;
        }
        let handle = match xinsight_service::start(Arc::new(registry), &config) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("starting in-process server failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let addr = handle.addr();
        eprintln!("in-process server listening on http://{addr}");
        spawned = Some(handle);
        spawned_dir = Some(dir);
        addr
    } else {
        let addr = args.addr.clone().expect("checked in parse_args");
        match addr.parse() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("bad --addr `{addr}`: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let outcome = if args.smoke {
        let result = smoke(addr);
        if result.is_ok() {
            println!("SMOKE OK");
        }
        result
    } else if args.open_loop_smoke {
        let result = open_loop_smoke(addr);
        if result.is_ok() {
            println!("OPEN-LOOP SMOKE OK");
        }
        result
    } else {
        bench(addr, &args, fast, threads, spawned_dir.as_deref())
    };

    if let Some(handle) = spawned {
        // The smokes already requested shutdown over the wire; the bench
        // shuts down here.
        if args.smoke || args.open_loop_smoke {
            handle.wait();
        } else {
            handle.shutdown();
        }
    }

    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The non-smoke path: closed-loop matrix (unless `--open-loop`), the
/// optional compaction comparison pass, then the open-loop sweep —
/// everything lands in one `BENCH_serve.json`.
fn bench(
    addr: SocketAddr,
    args: &Args,
    fast: bool,
    threads: usize,
    spawned_dir: Option<&str>,
) -> Result<(), String> {
    let mut results = Vec::new();
    if !args.open_loop {
        results = run_bench(addr, args, fast)?;
        // The mixed/compaction-on comparison point: bench the same mixed
        // workload against a second in-process server with the background
        // compactor enabled, so BENCH_serve.json carries pure-read vs
        // mixed vs mixed+compaction side by side.  Skipped when the
        // primary server already compacts (--compact-after) — its numbers
        // ARE the compaction-on runs.
        if args.ingest_mix > 0 && args.compact_after == 0 {
            if let Some(dir) = spawned_dir {
                results.extend(run_compaction_pass(dir, args, fast)?);
            }
        }
    }
    let (open, sustainable) = run_open_loop_suite(addr, args, fast, &results, spawned_dir)?;
    write_bench_json(threads, &results, &open, &sustainable);
    Ok(())
}

/// Warmup length and minimum timed-window floor for closed-loop cells.
/// Explicit `--requests` pins the exact request count (no warmup, no
/// floor); otherwise cells warm untimed first and keep looping until the
/// timed window is long enough to trust.
fn closed_cell_shape(args: &Args, fast: bool) -> (usize, Duration) {
    if args.requests.is_some() {
        (0, Duration::ZERO)
    } else if fast {
        (5, Duration::from_millis(300))
    } else {
        (25, Duration::from_secs(2))
    }
}

fn run_bench(addr: SocketAddr, args: &Args, fast: bool) -> Result<Vec<RunResult>, String> {
    let requests_per_client = args.requests.unwrap_or(if fast { 25 } else { 150 });
    println!(
        "\n## serve loadgen ({requests_per_client} requests/client, closed loop{}{})\n",
        if args.v2 { ", /v2/explain" } else { "" },
        if args.ingest_mix > 0 {
            format!(", {}% ingest mix", args.ingest_mix)
        } else {
            String::new()
        }
    );
    // With an ingest mix, also run the pure-read baseline at each point so
    // the emitted BENCH_serve.json carries both sides of the comparison.
    // The mix is the OUTER loop: every baseline runs before the first
    // ingest, so baselines measure the pristine single-segment stores and
    // warm LRU rather than whatever segments an earlier mixed run left
    // behind on the shared server.
    let mixes: Vec<u64> = if args.ingest_mix > 0 {
        vec![0, args.ingest_mix]
    } else {
        vec![0]
    };
    run_matrix(addr, args, requests_per_client, &mixes, "", fast)
}

/// The inner bench grid: `mixes × models × client counts` closed loops
/// against one server, with `tag` appended to every run name (the
/// compaction-on pass uses `"/compact"`).
fn run_matrix(
    addr: SocketAddr,
    args: &Args,
    requests_per_client: usize,
    mixes: &[u64],
    tag: &str,
    fast: bool,
) -> Result<Vec<RunResult>, String> {
    let (warmup, floor) = closed_cell_shape(args, fast);
    let models = fetch_models(addr)?;
    let models: Vec<&ModelInfo> = match &args.model {
        Some(id) => {
            let found: Vec<&ModelInfo> = models.iter().filter(|m| &m.id == id).collect();
            if found.is_empty() {
                return Err(format!("model `{id}` is not loaded on the server"));
            }
            found
        }
        None => models.iter().collect(),
    };
    let mut results = Vec::new();
    for &mix in mixes {
        for model in &models {
            for &clients in &args.clients {
                let run = run_closed_loop(
                    addr,
                    model,
                    clients.max(1),
                    requests_per_client,
                    args.v2,
                    mix,
                    tag,
                    warmup,
                    floor,
                )?;
                print!(
                    "{:<30} {:>8.1} req/s   p50 {:>8.3} ms   p99 {:>8.3} ms   \
                 {} ok / {} err   cache hit rate {:.2}",
                    run.name,
                    run.throughput_rps,
                    run.p50_us as f64 / 1e3,
                    run.p99_us as f64 / 1e3,
                    run.requests,
                    run.errors,
                    run.cache_hit_rate,
                );
                if run.ingest_requests > 0 {
                    print!(
                        "   reads {:.1} req/s   ingest ×{} p50 {:.3} ms p99 {:.3} ms",
                        run.read_throughput_rps,
                        run.ingest_requests,
                        run.ingest_p50_us as f64 / 1e3,
                        run.ingest_p99_us as f64 / 1e3,
                    );
                }
                println!();
                if run.errors > 0 && run.requests == 0 {
                    return Err(format!("{}: every request failed", run.name));
                }
                results.push(run);
            }
        }
    }
    Ok(results)
}

/// Re-opens the already-fitted demo bundles in a second in-process server
/// with the background compactor enabled and reruns only the mixed
/// workload against it.  A fresh server (rather than flipping a flag on
/// the shared one) keeps the comparison clean: it starts from the same
/// pristine single-segment stores as the primary's baseline did.
fn run_compaction_pass(dir: &str, args: &Args, fast: bool) -> Result<Vec<RunResult>, String> {
    // Folding at 4 sealed segments keeps prefix merges shallow without
    // compacting so eagerly that freshly warmed entries are remapped (and
    // their siblings dropped) before they earn a single hit — threshold 2
    // measurably lowers the hit rate without improving throughput.
    const COMPACT_AFTER: usize = 4;
    let requests_per_client = args.requests.unwrap_or(if fast { 25 } else { 150 });
    let registry =
        ModelRegistry::open(dir, XInsightOptions::default()).map_err(|e| e.to_string())?;
    let config = ServerConfig {
        compact_after: COMPACT_AFTER,
        ..ServerConfig::default()
    };
    let handle = xinsight_service::start(Arc::new(registry), &config).map_err(|e| e.to_string())?;
    let addr = handle.addr();
    println!("\n## mixed workload with background compaction (--compact-after {COMPACT_AFTER})\n");
    let results = run_matrix(
        addr,
        args,
        requests_per_client,
        &[args.ingest_mix],
        "/compact",
        fast,
    );
    handle.shutdown();
    results
}
