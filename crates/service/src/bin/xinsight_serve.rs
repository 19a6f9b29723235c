//! `xinsight-serve` — the XInsight online serving process.
//!
//! Loads model bundles from a directory (optionally fitting and saving
//! demo bundles first), binds the HTTP server and runs until a graceful
//! shutdown (`POST /admin/shutdown`).  Exits 0 on a clean shutdown, which
//! the serving smoke test (`tests/serve_binary.rs`) asserts, and 2 with
//! usage on a bad command line (an unknown flag or an unparsable value).
//!
//! ```text
//! xinsight-serve --models DIR [--addr 127.0.0.1:7878] [--workers N]
//!                [--queue N] [--cache-mb N] [--compact-after N]
//!                [--demo syn_a,flight] [--demo-rows N]
//!                [--debug-endpoints] [--trace-slow-ms N]
//! ```
//!
//! `--debug-endpoints` enables `POST /debug/sleep` (a worker-occupying
//! test endpoint for deterministic overload experiments) and
//! `GET /debug/traces` (recent + slow request traces) — never enable it
//! on a reachable deployment.  `--trace-slow-ms` sets the threshold at
//! which a request's trace is retained in the always-kept slow reservoir
//! (default 250).
//!
//! `--demo` fits the named demo models (`syn_a`, `flight`) and saves them
//! as bundles into the models directory before serving — the zero-to-
//! serving path used by the smoke test and the xbench benchmark.
//! Thread pinning follows the engine convention: `XINSIGHT_THREADS` sizes
//! both the rayon pool and (by default) the worker pool.  Served engines
//! always answer each request serially (the worker pool is the one level
//! of serving parallelism); the `--demo` fits run on the rayon pool.
//!
//! The server speaks the `/v2` wire (`/v2/explain`, `/v2/explain_batch`:
//! per-request options in, the full response envelope out), plus
//! `GET /healthz` for cheap liveness probing (see
//! `xinsight_service::server`).

use std::process::ExitCode;
use std::sync::Arc;
use xinsight_core::pipeline::XInsightOptions;
use xinsight_service::{build_demo_bundles, DemoModel, ModelRegistry, ServerConfig};

struct Args {
    models_dir: String,
    addr: String,
    workers: Option<usize>,
    queue: Option<usize>,
    cache_mb: usize,
    compact_after: usize,
    demo: Vec<DemoModel>,
    demo_rows: usize,
    debug_endpoints: bool,
    trace_slow_ms: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: xinsight-serve --models DIR [--addr HOST:PORT] [--workers N] \
         [--queue N] [--cache-mb N] [--compact-after N] [--demo syn_a,flight] \
         [--demo-rows N] [--debug-endpoints] [--trace-slow-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        models_dir: "models".to_owned(),
        addr: "127.0.0.1:7878".to_owned(),
        workers: None,
        queue: None,
        cache_mb: 64,
        compact_after: 0,
        demo: Vec::new(),
        demo_rows: 0,
        debug_endpoints: false,
        trace_slow_ms: None,
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
            "--models" => args.models_dir = value("--models"),
            "--addr" => args.addr = value("--addr"),
            "--workers" => {
                args.workers = Some(value("--workers").parse().unwrap_or_else(|_| usage()))
            }
            "--queue" => args.queue = Some(value("--queue").parse().unwrap_or_else(|_| usage())),
            "--cache-mb" => args.cache_mb = value("--cache-mb").parse().unwrap_or_else(|_| usage()),
            "--compact-after" => {
                args.compact_after = value("--compact-after").parse().unwrap_or_else(|_| usage())
            }
            "--demo" => {
                for name in value("--demo").split(',') {
                    match DemoModel::parse(name.trim()) {
                        Some(model) => args.demo.push(model),
                        None => {
                            eprintln!("unknown demo model `{name}` (try syn_a, flight)");
                            usage()
                        }
                    }
                }
            }
            "--demo-rows" => {
                args.demo_rows = value("--demo-rows").parse().unwrap_or_else(|_| usage())
            }
            "--debug-endpoints" => args.debug_endpoints = true,
            "--trace-slow-ms" => {
                args.trace_slow_ms =
                    Some(value("--trace-slow-ms").parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage()
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let threads = xinsight_core::parallel::configure_pool_from_env();
    let args = parse_args();
    eprintln!("# worker threads (rayon): {threads}");

    let options = XInsightOptions::default();

    if !args.demo.is_empty() {
        let registry = ModelRegistry::open_empty(&args.models_dir, options.clone());
        eprintln!(
            "fitting {} demo bundle(s) into {} …",
            args.demo.len(),
            args.models_dir
        );
        match build_demo_bundles(&registry, &args.demo, args.demo_rows) {
            Ok(ids) => eprintln!("saved demo bundles: {}", ids.join(", ")),
            Err(e) => {
                eprintln!("building demo bundles failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let registry = match ModelRegistry::open(&args.models_dir, options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("opening model registry failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for model in registry.models() {
        eprintln!(
            "loaded model `{}`: {} rows, {} graph nodes, {} example queries",
            model.id,
            model.n_rows,
            model.engine.graph().n_nodes(),
            model.example_queries.len()
        );
    }

    let mut config = ServerConfig {
        addr: args.addr,
        cache_bytes: args.cache_mb << 20,
        compact_after: args.compact_after,
        debug_endpoints: args.debug_endpoints,
        ..ServerConfig::default()
    };
    if let Some(workers) = args.workers {
        config.workers = workers.max(1);
    }
    if let Some(queue) = args.queue {
        config.queue_capacity = queue.max(1);
    }
    if let Some(slow_ms) = args.trace_slow_ms {
        config.trace_slow_ms = slow_ms;
    }

    let handle = match xinsight_service::start(Arc::new(registry), &config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("starting server failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The banner the smoke script greps for; stdout, flushed.
    println!("xinsight-serve listening on http://{}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    handle.wait();
    println!("xinsight-serve shut down cleanly");
    ExitCode::SUCCESS
}
