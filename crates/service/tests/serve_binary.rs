//! The serving smoke, run against the real `xinsight-serve` binary.
//!
//! The in-process suites under the workspace `tests/` cover the server's
//! behaviour; this one checks what only a separate server process shows:
//! the command-line flags reaching the server (`--compact-after`,
//! `--debug-endpoints`, `--trace-slow-ms`), the `listening on` banner with
//! the bound port, a clean exit 0 after `POST /admin/shutdown`, and exit 2
//! with usage, before any banner, on a bad command line.

// thread::sleep allowed: the compaction and exit polls sleep between
// checks by design (see clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};
use xinsight_core::json::Json;
use xinsight_service::{series_value, validate_exposition, wait_healthy, HttpClient};

const COMPACT_AFTER: u64 = 3;
const TRACE_SLOW_MS: u64 = 100;

/// A running `xinsight-serve` child.  Dropping it kills the child, so a
/// failed assertion cannot leak a listening server.
struct Server {
    child: Child,
    dir: PathBuf,
    /// The child's stdout, one line per message, read on a helper thread.
    stdout: Receiver<String>,
}

impl Server {
    fn spawn() -> (Server, SocketAddr) {
        let dir =
            std::env::temp_dir().join(format!("xinsight_serve_binary_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stderr = std::fs::File::create(dir.join("serve.err")).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_xinsight-serve"))
            .arg("--demo")
            .arg("syn_a")
            .arg("--models")
            .arg(dir.join("models"))
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .args(["--compact-after", &COMPACT_AFTER.to_string()])
            .arg("--debug-endpoints")
            .args(["--trace-slow-ms", &TRACE_SLOW_MS.to_string()])
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn xinsight-serve");
        let stdout = BufReader::new(child.stdout.take().unwrap());
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let server = Server {
            child,
            dir,
            stdout: rx,
        };
        let banner = server.expect_line("listening on http://");
        let addr = banner
            .split("listening on http://")
            .nth(1)
            .and_then(|a| a.trim().parse().ok())
            .unwrap_or_else(|| panic!("no address in banner `{banner}`"));
        (server, addr)
    }

    /// Waits for the next stdout line containing `needle`.
    fn expect_line(&self, needle: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.stdout.recv_timeout(left) {
                Ok(line) if line.contains(needle) => return line,
                Ok(_) => {}
                Err(e) => panic!(
                    "no `{needle}` on xinsight-serve stdout ({e}); stderr:\n{}",
                    std::fs::read_to_string(self.dir.join("serve.err")).unwrap_or_default()
                ),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A `/metrics` scrape, pushed through the exposition validator.
fn scrape(client: &mut HttpClient) -> String {
    let resp = client.get("/metrics").unwrap();
    assert_eq!(resp.status, 200, "GET /metrics: {}", resp.body);
    validate_exposition(&resp.body).expect("/metrics is valid Prometheus text exposition");
    resp.body
}

/// One series off a scrape; a missing series fails the test.
fn metric(text: &str, series: &str) -> f64 {
    series_value(text, series).unwrap_or_else(|| panic!("/metrics has no `{series}`"))
}

/// The `result` of a default `POST /v2/explain`, as its wire text.
fn v2_result(client: &mut HttpClient, model: &str, query: &str) -> String {
    let resp = client.explain_v2(model, query, None).unwrap();
    assert_eq!(resp.status, 200, "POST /v2/explain: {}", resp.body);
    Json::parse(&resp.body)
        .unwrap()
        .get("result")
        .unwrap()
        .to_string()
}

#[test]
fn real_binary_serves_compacts_traces_and_shuts_down_cleanly() {
    let (mut server, addr) = Server::spawn();
    wait_healthy(addr, Duration::from_secs(30)).unwrap();

    // The first demo model, its first example query and ingest template.
    let mut client = HttpClient::connect(addr).unwrap();
    let resp = client.get("/models").unwrap();
    assert_eq!(resp.status, 200, "GET /models: {}", resp.body);
    let models = Json::parse(&resp.body).unwrap();
    let entry = &models.as_arr().unwrap()[0];
    let model = entry.get("id").unwrap().as_str().unwrap().to_owned();
    let query = entry.get("example_queries").unwrap().as_arr().unwrap()[0].to_string();
    let template = entry.get("ingest_template").unwrap().as_arr().unwrap()[0].to_string();

    let body = format!("{{\"model\":\"{model}\",\"query\":{query}}}");
    let resp = client.post("/v2/explain", &body).unwrap();
    assert_eq!(resp.status, 200, "POST /v2/explain: {}", resp.body);
    let doc = Json::parse(&resp.body).unwrap();
    doc.get("result")
        .unwrap()
        .get("explanations")
        .unwrap()
        .as_arr()
        .unwrap();

    let resp = client
        .explain_v2(&model, &query, Some("{\"top_k\":1}"))
        .unwrap();
    assert_eq!(resp.status, 200, "POST /v2/explain: {}", resp.body);
    let doc = Json::parse(&resp.body).unwrap();
    let slots = doc.get("result").unwrap().get("explanations").unwrap();
    assert!(
        slots.as_arr().unwrap().len() <= 1,
        "top_k=1 returned {slots}"
    );

    let text = scrape(&mut client);
    assert!(metric(&text, "xinsight_requests_total{endpoint=\"explain_v2\"}") >= 2.0);
    assert_eq!(
        metric(&text, "xinsight_compact_after"),
        COMPACT_AFTER as f64
    );

    // Grow the store to the compaction threshold, then wait for the
    // background compactor to fold it to one segment: the answer must not
    // move by a byte.
    let segments_series = format!("xinsight_model_segments{{model=\"{model}\"}}");
    let mut segments = metric(&text, &segments_series) as u64;
    while segments < COMPACT_AFTER {
        let resp = client.ingest_v2(&model, &format!("[{template}]")).unwrap();
        assert_eq!(resp.status, 200, "POST /v2/ingest: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        segments = doc.get("segments").unwrap().as_u64().unwrap();
    }
    let before = v2_result(&mut client, &model, &query);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = scrape(&mut client);
        if metric(&text, "xinsight_compactions_total") >= 1.0
            && metric(&text, &segments_series) == 1.0
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background compactor did not fold the segments within 30s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(
        v2_result(&mut client, &model, &query),
        before,
        "post-compaction answer diverged"
    );

    // A request past the slow threshold lands in the slow-trace reservoir.
    let resp = client.get("/debug/traces").unwrap();
    assert_eq!(resp.status, 200, "GET /debug/traces: {}", resp.body);
    let doc = Json::parse(&resp.body).unwrap();
    let threshold = doc.get("slow_threshold_ms").unwrap().as_u64().unwrap();
    assert_eq!(threshold, TRACE_SLOW_MS);
    let resp = client.post("/debug/sleep", "{\"ms\":150}").unwrap();
    assert_eq!(resp.status, 200, "POST /debug/sleep: {}", resp.body);
    let resp = client.get("/debug/traces").unwrap();
    assert_eq!(resp.status, 200, "GET /debug/traces: {}", resp.body);
    let doc = Json::parse(&resp.body).unwrap();
    let slow = doc.get("slow").unwrap().as_arr().unwrap();
    assert!(
        slow.iter().any(|t| t
            .get("endpoint")
            .and_then(Json::as_str)
            .is_ok_and(|e| e == "POST /debug/sleep")),
        "slow sleep request missing from the slow-trace reservoir: {}",
        resp.body
    );

    let resp = client.post("/admin/shutdown", "{}").unwrap();
    assert_eq!(resp.status, 200, "POST /admin/shutdown: {}", resp.body);
    server.expect_line("shut down cleanly");
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.child.try_wait().unwrap() {
            break status;
        }
        assert!(Instant::now() < deadline, "xinsight-serve did not exit");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "xinsight-serve exited with {status}");
}

#[test]
fn bad_command_lines_exit_2_with_usage_and_no_banner() {
    let dir = std::env::temp_dir().join(format!("xinsight_serve_badargs_{}", std::process::id()));
    let models = dir.join("models");
    let models = models.to_str().unwrap();
    let cases: [&[&str]; 4] = [
        &["--workers", "nope"],
        &["--queue", "nope"],
        &["--workers", "-1"],
        // No such flag: served engines always answer serially.
        &["--serial"],
    ];
    for extra in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_xinsight-serve"))
            .args(["--models", models, "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn xinsight-serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().unwrap().is_none() {
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("xinsight-serve {extra:?} kept running");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let output = child.wait_with_output().unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(!stdout.contains("listening on"), "{extra:?}: {stdout}");
        assert!(
            stderr.contains("usage: xinsight-serve"),
            "{extra:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
