//! The serving core: event loop, admission queue, worker pool, routing
//! and shutdown.
//!
//! ## Architecture
//!
//! ```text
//!                 ┌────────────── Server ──────────────────────────────┐
//!   TCP clients → │ event loop ──needs a──▶ admission ──▶ worker pool  │
//!                 │ (epoll/poll,  worker     queue          (N workers)│
//!                 │  all sockets,           (bounded,           │      │
//!                 │  per-conn state          503 when full)     │      │
//!                 │  machines,  ◀──completions + notify─────────┤      │
//!                 │  exact hits)                                ▼      │
//!                 │   │   ResultCache  ──miss──▶  ModelRegistry        │
//!                 │   └─▶ (LRU, byte budget)     (warm XInsight per    │
//!                 │                               model, hot-reload)   │
//!                 └────────────────────────────────────────────────────┘
//! ```
//!
//! One **event-loop thread** (`crate::event`) owns every socket: it
//! accepts, reads and frames requests over non-blocking I/O, so idle
//! keep-alive connections cost a poller registration instead of a thread
//! — a million parked clients is a kernel problem, not a thread-count
//! problem.  A single-query explain (`POST /v2/explain`) is decoded, keyed and looked up in the result cache **on the loop**
//! (`serve_on_loop`): an exact hit — the common case while an analyst
//! re-asks the same Why Queries — is rendered and written without leaving
//! the loop thread, and so is a body that fails to decode or names an
//! unknown model.  Work that needs a worker — misses, prefix candidates
//! (promotion runs engine work), batches, ingest, admin and debug routes —
//! goes onto a **bounded admission queue**; when the queue is full the
//! *request* is answered `503` immediately — backpressure surfaces to
//! clients instead of building an invisible backlog.  The rule: **hits
//! never leave the loop, and queue-full `503`s apply only to work that
//! needs a worker.**  A miss carries its decoded call and lookup verdict
//! to the worker, so no request is decoded or looked up twice.
//!
//! A fixed pool of **workers** pops requests and executes them, each one
//! serially: the registry builds served engines with `parallel: false`,
//! so the worker count alone sets CPU parallelism across requests (the
//! rayon pool serves the offline fit).  Each finished
//! response is handed back as a `Completion` and the event loop is woken
//! ([`polling::Poller::notify`]) to write it to the socket.  A panicking
//! handler costs only its request: it is answered `500`, its trace names
//! the panic, and `xinsight_worker_panics_total` counts it — the worker
//! (or the event loop, for the loop-side path) keeps serving.
//!
//! The two explain routes (`/v2/explain`, `/v2/explain_batch`) are thin
//! wire adapters over **one explain core**: each parses its body into a
//! model id, a list of queries and the request options, one function
//! (`look_up`) keys and looks up every query once — on the event loop for
//! the single-query route — and the core runs every verdict through the
//! same promotion, engine batch, accounting and trace spans, returning one
//! slot per query for the adapter's envelope.  Concurrent misses on one key
//! each compute it (at most one per worker) and insert the same bytes.
//!
//! **Graceful shutdown** (`POST /admin/shutdown` or
//! [`ServerHandle::shutdown`]): the flag flips, the event loop
//! closes the listener and idle connections, workers drain the
//! already-admitted queue, every in-flight response is flushed with
//! `Connection: close`, and all threads exit.  [`ServerHandle::wait`]
//! joins everything.

use crate::http::{Request, Response};
use crate::lru::{CacheKey, Lookup, ResultCache};
use crate::metrics;
use crate::registry::{LoadedModel, ModelRegistry};
use crate::stats::ServerStats;
use crate::trace::{Stage, TraceBuilder, TraceStore};
use crate::wire;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use xinsight_core::{ExplainRequest, WhyQuery};
use xinsight_data::{DataError, Result};
use xinsight_stats::CacheStats;

/// How the server is sized and bound.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (the handle reports it).
    pub addr: String,
    /// Worker threads executing admitted requests — misses, batches,
    /// ingest, admin and debug routes.  Exact result-cache hits never
    /// reach a worker (the event loop answers them), and each request runs
    /// serially on its worker, so this count alone sets how many requests
    /// compute at once.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are answered `503`.
    pub queue_capacity: usize,
    /// Byte budget of the LRU result cache.
    pub cache_bytes: usize,
    /// Background compaction threshold: once a model's store holds at
    /// least this many sealed segments, the compactor rewrites them into
    /// one.  `0` (and `1`, which could never terminate) disables the
    /// compactor thread entirely.
    pub compact_after: usize,
    /// Idle keep-alive connections are closed after this long without a
    /// request.  Parked idle connections are nearly free under the event
    /// loop, so this is generous by default — it exists to reclaim
    /// abandoned sockets, not to shed load.
    pub idle_timeout: Duration,
    /// A connection that has sent *part* of a request must complete it
    /// within this long or be answered `408` and closed (slow-loris
    /// defence: a trickling peer holds buffer bytes, never a thread).
    pub request_deadline: Duration,
    /// Hard cap on concurrently open connections; accepts beyond it are
    /// answered `503` and closed immediately.
    pub max_connections: usize,
    /// Enables `POST /debug/sleep`, a worker-occupying endpoint tests use
    /// to saturate the pool deterministically, and `GET /debug/traces`, the per-request trace
    /// view.  Off by default: neither must ever ship reachable.
    pub debug_endpoints: bool,
    /// Requests at least this many milliseconds end to end are retained in
    /// the slow-trace reservoir regardless of how fast the recent-trace
    /// ring churns (see [`crate::trace::TraceStore`]).
    pub trace_slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            // Size the worker pool from the same knob as the rayon pool the
            // offline fit uses, so one `XINSIGHT_THREADS` governs the whole
            // process (served engines run each request serially, so the
            // two never multiply); at least 2 so a long request cannot
            // starve the admin endpoints on single-core containers.
            workers: xinsight_core::parallel::configure_pool_from_env().max(2),
            addr: "127.0.0.1:0".to_owned(),
            queue_capacity: 64,
            cache_bytes: 64 << 20,
            compact_after: 0,
            idle_timeout: Duration::from_secs(300),
            request_deadline: Duration::from_secs(10),
            max_connections: 16384,
            debug_endpoints: false,
            trace_slow_ms: 250,
        }
    }
}

/// A fully-parsed request admitted onto the bounded queue, tagged with
/// the connection (slot + generation) awaiting its answer.
pub(crate) struct Job {
    pub(crate) slot: usize,
    pub(crate) gen: u32,
    pub(crate) request: Request,
    /// When the request was admitted; end-to-end latency (queue wait
    /// included) is measured from here.
    pub(crate) admitted: Instant,
    /// The in-flight lifecycle trace: framing recorded the parse span, the
    /// worker adds queue-wait and handler spans, and the event loop closes
    /// it when the response's last byte is on the socket.
    pub(crate) trace: TraceBuilder,
    /// A single-query explain the event loop already decoded and looked up
    /// (see [`serve_on_loop`]); `None` for every other route.
    pub(crate) explain: Option<Box<ExplainCall>>,
}

/// A worker's finished response, routed back to the event loop for the
/// socket write.
pub(crate) struct Completion {
    pub(crate) slot: usize,
    pub(crate) gen: u32,
    pub(crate) response: Response,
    /// The handler asked for graceful shutdown once this response is on
    /// its way (`POST /admin/shutdown`).
    pub(crate) shutdown_after: bool,
    /// The trace, carried back so the event loop can time the socket
    /// write and publish the completed record.
    pub(crate) trace: TraceBuilder,
}

pub(crate) struct Shared {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) cache: ResultCache,
    pub(crate) stats: ServerStats,
    pub(crate) jobs: Mutex<VecDeque<Job>>,
    pub(crate) available: Condvar,
    pub(crate) completions: Mutex<Vec<Completion>>,
    pub(crate) poller: polling::Poller,
    pub(crate) queue_capacity: usize,
    pub(crate) workers: usize,
    pub(crate) compact_after: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) request_deadline: Duration,
    pub(crate) max_connections: usize,
    pub(crate) debug_endpoints: bool,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    pub(crate) traces: TraceStore,
}

impl Shared {
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        // Wake the event loop out of its poller wait and every idle worker
        // out of the condvar; both check the flag first thing.
        let _ = self.poller.notify();
        self.available.notify_all();
    }
}

/// A running server: its bound address plus the thread handles to join.
pub struct ServerHandle {
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.shared.addr)
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates graceful shutdown without waiting for it to finish.
    fn trigger_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server has shut down (via `POST /admin/shutdown`
    /// or [`ServerHandle::shutdown`]) and every thread has exited.
    pub fn wait(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
    }

    /// Initiates graceful shutdown, then [`ServerHandle::wait`]s for it.
    pub fn shutdown(self) {
        self.trigger_shutdown();
        self.wait();
    }
}

/// Binds the listener and spawns the event-loop thread plus the worker
/// pool.
pub fn start(registry: Arc<ModelRegistry>, config: &ServerConfig) -> Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| DataError::Serve(format!("binding {}: {e}", config.addr)))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| DataError::Serve(format!("non-blocking listener: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| DataError::Serve(format!("resolving local addr: {e}")))?;
    let workers = config.workers.max(1);
    let poller =
        polling::Poller::new().map_err(|e| DataError::Serve(format!("creating poller: {e}")))?;
    let shared = Arc::new(Shared {
        registry,
        cache: ResultCache::new(config.cache_bytes),
        stats: ServerStats::default(),
        jobs: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        completions: Mutex::new(Vec::new()),
        poller,
        queue_capacity: config.queue_capacity.max(1),
        workers,
        compact_after: config.compact_after,
        idle_timeout: config.idle_timeout,
        request_deadline: config.request_deadline,
        max_connections: config.max_connections.max(1),
        debug_endpoints: config.debug_endpoints,
        shutdown: AtomicBool::new(false),
        addr,
        traces: TraceStore::new(Duration::from_millis(config.trace_slow_ms)),
    });

    let mut threads = Vec::with_capacity(workers + 2);
    {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("xinsight-event".into())
                .spawn(move || crate::event::run(listener, shared))
                .map_err(|e| DataError::Serve(format!("spawning event loop: {e}")))?,
        );
    }
    for i in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("xinsight-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .map_err(|e| DataError::Serve(format!("spawning worker: {e}")))?,
        );
    }
    if config.compact_after >= 2 {
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("xinsight-compactor".into())
                .spawn(move || compactor_loop(&shared))
                .map_err(|e| DataError::Serve(format!("spawning compactor: {e}")))?,
        );
    }
    Ok(ServerHandle { shared, threads })
}

/// How often the compactor scans the registry for fragmented stores.
/// Short on purpose: under ingest churn every extra un-compacted segment
/// makes each prefix merge probe (and recompute) another segment, so the
/// scan cadence directly bounds read-path fan-out; an idle scan is just a
/// registry walk and costs next to nothing.
const COMPACT_POLL: Duration = Duration::from_millis(15);

/// The background compactor: a low-priority loop that rewrites any store
/// holding at least `compact_after` sealed segments into a single merged
/// segment via [`ModelRegistry::compact`] (the expensive rewrite runs off
/// the swap lock; a store that gets ingested into or reloaded mid-rewrite
/// is simply retried on the next scan).  After a successful swap the
/// result cache is remapped — entries computed against exactly the
/// compacted snapshot are re-stamped onto the merged segment, everything
/// older for that model is dropped — and the compaction counters updated.
///
/// Each cycle is wrapped in `catch_unwind`: a panicking compaction (bug or
/// injected fault) discards its partial rewrite and never takes the
/// serving path down — the swap lock is not even held while the rewrite
/// runs, so nothing is poisoned and the next scan starts clean.
// thread::sleep allowed: the compactor is a dedicated background thread
// whose whole job is to wake periodically (see clippy.toml).
#[allow(clippy::disallowed_methods)]
fn compactor_loop(shared: &Shared) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(COMPACT_POLL);
        for id in shared.registry.ids() {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let fragmented = shared
                .registry
                .get(&id)
                .is_some_and(|m| m.engine.data().n_segments() >= shared.compact_after);
            if !fragmented {
                continue;
            }
            let compact_started = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                shared.registry.compact(&id)
            }));
            if let Ok(Ok(Some(report))) = outcome {
                shared
                    .cache
                    .remap_model(&id, &report.old_fingerprint, &report.new_fingerprint);
                shared.stats.record_compaction(
                    report.segments_before,
                    report.segments_after,
                    report.bytes_reclaimed,
                );
                // Background work publishes into the same trace stream as
                // requests (but never into the request-stage histograms):
                // the report's timings are replayed as sequential spans.
                let mut tb = TraceBuilder::begin(
                    shared.traces.next_id(),
                    compact_started,
                    format!("compact {id}"),
                );
                tb.set_status(200);
                let rewrite_end = compact_started + Duration::from_micros(report.rewrite_us);
                tb.span(
                    Stage::Execute,
                    compact_started,
                    rewrite_end,
                    format!(
                        "rewrite: {} -> {} segments",
                        report.segments_before, report.segments_after
                    ),
                );
                tb.span(
                    Stage::Execute,
                    rewrite_end,
                    rewrite_end + Duration::from_micros(report.swap_us),
                    format!("swap: {} bytes reclaimed", report.bytes_reclaimed),
                );
                shared.traces.publish(tb.finish(Instant::now()));
            }
        }
    }
}

/// Pops the next admitted request, or `None` when shutting down and the
/// queue has drained (workers finish already-admitted work first).
fn next_job(shared: &Shared) -> Option<Job> {
    // Poison recovery: a panicking sibling worker must not take the whole
    // pool down with it — the queue itself is still well-formed.
    let mut jobs = shared
        .jobs
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    loop {
        if let Some(job) = jobs.pop_front() {
            return Some(job);
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        jobs = shared
            .available
            .wait(jobs)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
}

/// A worker: execute admitted requests and hand the responses back to the
/// event loop.  Latency is recorded from *admission* (request fully
/// parsed and queued) so queue wait under load is visible, not hidden.
/// A panicking handler is contained to its job (see [`contain_panic`]):
/// the worker answers `500` and moves on to the next job.
fn worker_loop(shared: &Shared) {
    while let Some(mut job) = next_job(shared) {
        let picked = Instant::now();
        job.trace.span(Stage::QueueWait, job.admitted, picked, "");
        let spans_before = job.trace.span_count();
        let mut explain = job.explain.take();
        if let Some(call) = explain.as_mut() {
            call.skip_queue_wait(job.admitted, picked);
        }
        let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route(shared, &job.request, explain, &mut job.trace)
        }));
        let (response, shutdown_after) = match routed {
            Ok(routed) => routed,
            Err(payload) => (
                contain_panic(shared, &*payload, picked, &mut job.trace),
                false,
            ),
        };
        if job.trace.span_count() == spans_before {
            // A handler without internal instrumentation (healthz, models,
            // stats, errors…) still gets one whole-handler execute span so
            // every trace tiles its total.
            job.trace.span(Stage::Execute, picked, Instant::now(), "");
        }
        job.trace.set_status(response.status);
        shared.stats.latency.record(job.admitted.elapsed());
        count_response(shared, &response);
        shared
            .completions
            .lock()
            // Poison recovery: deliver this response even if another
            // worker panicked while pushing its own.
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Completion {
                slot: job.slot,
                gen: job.gen,
                response,
                shutdown_after,
                trace: job.trace,
            });
        let _ = shared.poller.notify();
    }
}

/// Turns a caught handler panic into its request's answer: a `500`, an
/// execute span from `since` naming the panic on the request's trace, and
/// one more `xinsight_worker_panics_total`.  Locks the handler held were
/// released by the unwind, and the result cache and registry stay coherent
/// across it, so the thread that caught the panic keeps serving.
fn contain_panic(
    shared: &Shared,
    payload: &(dyn std::any::Any + Send),
    since: Instant,
    trace: &mut TraceBuilder,
) -> Response {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    trace.span(
        Stage::Execute,
        since,
        Instant::now(),
        format!("panic: {message}"),
    );
    shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
    Response::error(500, "internal error: the request handler panicked")
}

/// Test-only fault injection for the panic-containment tests: a request
/// carrying the `x-inject-panic` header panics inside whichever handler
/// path picks it up — the loop-side explain path or a worker's route —
/// in the same window a real handler bug would.
#[cfg(test)]
fn inject_fault(request: &Request) {
    if let Some(message) = request.header("x-inject-panic") {
        panic!("injected fault: {message}");
    }
}

/// Maps a handler's [`DataError`] to an HTTP status: wire/validation
/// failures are the client's (`400`), anything else is ours (`500`).
pub fn status_for(error: &DataError) -> u16 {
    match error {
        DataError::Serve(_)
        | DataError::Persist(_)
        | DataError::UnknownAttribute(_)
        | DataError::UnknownCategory { .. }
        | DataError::WrongKind { .. }
        | DataError::OverlappingSubspace(_)
        | DataError::EmptyAggregate { .. } => 400,
        _ => 500,
    }
}

/// The v2 error body: the human-readable message plus the stable
/// machine-readable [`DataError::code`], shared with the engine's own
/// error vocabulary.
fn error_response_v2(error: &DataError) -> Response {
    use xinsight_core::json::Json;
    let body = Json::Obj(vec![
        ("error".to_owned(), Json::Str(error.to_string())),
        ("code".to_owned(), Json::Str(error.code().to_owned())),
    ]);
    Response::json(status_for(error), body.to_string())
}

/// A v2 `404` for an unknown model id — same body shape as
/// [`error_response_v2`], with the not-found status.
fn model_not_found_v2(model: &str) -> Response {
    let mut response =
        error_response_v2(&DataError::Serve(format!("model `{model}` is not loaded")));
    response.status = 404;
    response
}

/// Times a response-body build as the trace's serialize span.
fn serialized(trace: &mut TraceBuilder, build: impl FnOnce() -> Response) -> Response {
    let started = Instant::now();
    let response = build();
    trace.span(Stage::Serialize, started, Instant::now(), "");
    response
}

fn count_response(shared: &Shared, response: &Response) {
    if response.status >= 500 {
        shared.stats.server_errors.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
    } else if response.status >= 400 {
        shared.stats.client_errors.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
    }
}

/// Splits a request target into its path and raw query string.  Routing
/// is query-string agnostic: `/v2/graph?model=m` is the `/v2/graph`
/// endpoint, and handlers that take parameters receive the query part.
fn split_target(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    }
}

/// Routes one request; the boolean asks the worker to begin shutdown after
/// writing the response.  `explain` is the call the event loop already
/// decoded and looked up for a single-query explain route.  Handlers with
/// internal stage attribution record spans on `trace`; the rest are
/// covered by the worker's whole-handler execute span.
fn route(
    shared: &Shared,
    request: &Request,
    explain: Option<Box<ExplainCall>>,
    trace: &mut TraceBuilder,
) -> (Response, bool) {
    #[cfg(test)]
    inject_fault(request);
    let (path, query) = split_target(&request.path);
    // xlint-endpoints: begin(route) — the routing match is the ground truth
    // for the endpoint inventory; add new routes inside the markers.
    match (request.method.as_str(), path) {
        // Liveness: answered inline from nothing but the shutdown flag — no
        // model, cache or registry is touched, so it stays cheap and honest
        // even while every engine is busy.
        ("GET", "/healthz") => (Response::json(200, "{\"ok\":true}"), false),
        ("POST", "/v2/explain") => (explain_single(shared, &request.body, explain, trace), false),
        ("POST", "/v2/explain_batch") => (explain_batch(shared, &request.body, trace), false),
        ("POST", "/v2/ingest") => (handle_ingest_v2(shared, &request.body, trace), false),
        ("GET", "/v2/graph") => (handle_graph_v2(shared, query, trace), false),
        ("GET", "/models") => (handle_models(shared), false),
        ("GET", "/metrics") => (handle_metrics(shared), false),
        ("POST", "/admin/reload") => (handle_reload(shared, &request.body), false),
        ("POST", "/admin/shutdown") => {
            shared.stats.admin.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
            (Response::json(200, "{\"shutting_down\":true}"), true)
        }
        ("POST", "/debug/sleep") if shared.debug_endpoints => {
            shared.stats.debug.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
            (handle_debug_sleep(&request.body), false)
        }
        ("GET", "/debug/traces") if shared.debug_endpoints => (handle_traces(shared), false),
        (
            "GET" | "POST",
            "/healthz" | "/v2/explain" | "/v2/explain_batch" | "/v2/ingest" | "/v2/graph"
            | "/models" | "/metrics" | "/admin/reload" | "/admin/shutdown",
        ) => (Response::error(405, "method not allowed"), false),
        _ => (
            Response::error(404, &format!("no such endpoint `{}`", request.path)),
            false,
        ),
    }
    // xlint-endpoints: end(route)
}

/// `GET /metrics`: the Prometheus text exposition (see [`crate::metrics`]),
/// the server's one counters view.  Assembled from live selection-cache
/// sums and one consistent result-cache snapshot, then rendered as text;
/// the scrape counter is incremented *after* rendering so a scrape does
/// not count itself.
fn handle_metrics(shared: &Shared) -> Response {
    let models = shared.registry.models();
    let ci: CacheStats = models
        .iter()
        .map(|m| m.ci_cache_stats)
        .fold(CacheStats::default(), CacheStats::merged);
    // The selection-cache view is *live*: each model's persistent partial
    // cache is summed at scrape time (the caches are shared across
    // requests and ingests, so per-request accumulation would double
    // count).
    let selection: CacheStats = models
        .iter()
        .map(|m| m.selection.stats())
        .fold(CacheStats::default(), CacheStats::merged);
    let model_gauges: Vec<metrics::ModelGauges> = models
        .iter()
        .map(|m| {
            let store = m.engine.data();
            metrics::ModelGauges {
                id: m.id.clone(),
                generation: m.generation,
                segments: store.n_segments() as u64,
                rows: store.n_rows() as u64,
                epoch: store.epoch(),
                selection_bytes: m.selection.bytes() as u64,
                selection_evictions: m.selection.evictions(),
            }
        })
        .collect();
    let queue_depth = shared
        .jobs
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len();
    let text = metrics::render(&metrics::MetricsSnapshot {
        stats: &shared.stats,
        result_cache: shared.cache.stats(),
        selection,
        ci_cache: ci,
        models: model_gauges,
        queue_depth,
        queue_capacity: shared.queue_capacity,
        workers: shared.workers,
        compact_after: shared.compact_after,
        traces_recorded: shared.traces.recorded(),
    });
    shared.stats.metrics.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
    Response::text(200, text)
}

/// `GET /debug/traces` (only with [`ServerConfig::debug_endpoints`]): the
/// recent-trace ring and the slow-trace reservoir as JSON.
fn handle_traces(shared: &Shared) -> Response {
    shared.stats.debug.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
    Response::json(200, shared.traces.to_json().to_string())
}

/// `POST /debug/sleep` (only with [`ServerConfig::debug_endpoints`]):
/// occupies this worker for `{"ms": N}` milliseconds, capped at 60s — a
/// deterministic way for tests to saturate the pool and fill the admission queue without depending on
/// engine timing.
// thread::sleep allowed: occupying the worker is this endpoint's purpose
// (see clippy.toml).
#[allow(clippy::disallowed_methods)]
fn handle_debug_sleep(body: &[u8]) -> Response {
    use xinsight_core::json::Json;
    let ms = std::str::from_utf8(body)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|doc| doc.get("ms").and_then(|v| v.as_u64()).ok());
    let Some(ms) = ms else {
        return Response::error(400, "expected body {\"ms\": <milliseconds>}");
    };
    let ms = ms.min(60_000);
    std::thread::sleep(Duration::from_millis(ms));
    Response::json(200, format!("{{\"slept_ms\":{ms}}}"))
}

/// How the result cache resolved one cacheable explain.
enum CacheOutcome {
    /// Serve these bytes as `cached: true` — an exact fingerprint hit, or
    /// a proper-prefix entry promoted after the suffix was proven unable
    /// to change the answer.
    Hit(Arc<str>),
    /// A proper-prefix entry exists but its suffix may move scores:
    /// recompute through the model's persistent partial cache (pre-ingest
    /// segments replay, only the new segments compute) and record the
    /// serve as a merge.
    Merge,
    /// No usable entry (already counted): full compute.
    Miss,
}

impl CacheOutcome {
    fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit(_))
    }

    /// The tier name cache-lookup trace spans report.
    fn tier(&self) -> &'static str {
        match self {
            CacheOutcome::Hit(_) => "hit",
            CacheOutcome::Merge => "merge",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Turns one [`ResultCache::lookup`] verdict into a cache outcome: an
/// exact hit or a miss stands as it is (both already counted), and a
/// prefix candidate is promoted when the suffix segments provably cannot
/// change the answer, else recomputed through the merge path.
fn resolve(shared: &Shared, model: &LoadedModel, key: &CacheKey, lookup: Lookup) -> CacheOutcome {
    match lookup {
        Lookup::Hit(value) => CacheOutcome::Hit(value),
        Lookup::Prefix {
            prefix,
            dict_unchanged,
        } => {
            if dict_unchanged && suffix_cannot_change_answer(model, &key.query, prefix.len()) {
                match shared
                    .cache
                    .promote(key, &model.fingerprint, model.dict_len)
                {
                    Some(value) => CacheOutcome::Hit(value),
                    // Raced away (eviction / concurrent writer); promote
                    // already counted the miss.
                    None => CacheOutcome::Miss,
                }
            } else {
                CacheOutcome::Merge
            }
        }
        Lookup::Miss => CacheOutcome::Miss,
    }
}

/// The promotion-validity check: a cached answer computed before the
/// suffix segments were ingested is still byte-identical iff no suffix
/// segment contributes a row to either sibling subspace of the query
/// (every aggregate, orientation and epsilon the search consumes is
/// S1/S2-scoped) *and* the global dictionary did not grow (checked by the
/// caller via the fingerprint's `dict_len` — cardinality drives candidate
/// filters and the `σ = 1/m` regulariser).  The masks computed here go
/// through the model's persistent [`SelectionCache`], so even a failed
/// check is not wasted work: the recompute that follows reuses them.
///
/// [`SelectionCache`]: xinsight_core::SelectionCache
fn suffix_cannot_change_answer(model: &LoadedModel, query: &WhyQuery, covered: usize) -> bool {
    let store = model.engine.data();
    // A prefix longer than the store proves nothing: recompute.
    let Some(suffix) = store.segments().get(covered..) else {
        return false;
    };
    suffix.iter().all(|segment| {
        let untouched = |subspace: &xinsight_data::Subspace| {
            model
                .selection
                .subspace_mask(store, segment, subspace)
                .map(|mask| mask.is_none_selected())
                .unwrap_or(false)
        };
        untouched(query.s1()) && untouched(query.s2())
    })
}

/// One explain request, decoded once: the model snapshot it is answered
/// against, the request options, and each query's
/// cache key with its [`ResultCache::lookup`] verdict.  Built by
/// [`look_up`]; a single-query call that is not an exact hit rides its
/// [`Job`] to a worker, so no request is decoded twice and no lookup is
/// counted twice in the result-cache tiers.
pub(crate) struct ExplainCall {
    /// The handler clock's origin (`elapsed_us`): when decoding began,
    /// moved past any admission-queue wait by [`worker_loop`].
    started: Instant,
    model: Arc<LoadedModel>,
    options: wire::RequestOptions,
    lookups: Vec<(CacheKey, Lookup)>,
}

impl ExplainCall {
    /// Moves the handler clock past the admission-queue wait, so
    /// `elapsed_us` reports decode, lookup and engine time alike whether
    /// the call was decoded on the loop or on a worker.
    fn skip_queue_wait(&mut self, admitted: Instant, picked: Instant) {
        let waited = picked.saturating_duration_since(admitted);
        self.started = self.started.checked_add(waited).unwrap_or(picked);
    }
}

/// A decoded explain body: model id, queries in order, and the options
/// applied to each.
type Decoded = Result<(String, Vec<WhyQuery>, wire::RequestOptions)>;

/// Decodes a single-query explain body (`POST /v2/explain`).
fn decode_single(body: &[u8]) -> Decoded {
    // xlint: allow(no-alloc-hot-path, query decode: the parsed query moves into its one-slot list)
    wire::ExplainV2::parse(body).map(|r| (r.model, vec![r.query], r.options))
}

/// Decode → key → lookup, the front half of every explain: resolves the
/// model, builds one cache key per query and looks each one up, exactly
/// once (exact hits and misses are counted here; a prefix candidate is
/// counted when [`explain_core`] resolves it).  A decode error or an
/// unknown model comes back as the route's error response.
fn look_up(
    shared: &Shared,
    started: Instant,
    decoded: Decoded,
) -> std::result::Result<ExplainCall, Response> {
    let (model_id, queries, options) = decoded.map_err(|e| error_response_v2(&e))?;
    let Some(model) = shared.registry.get(&model_id) else {
        return Err(model_not_found_v2(&model_id));
    };
    let suffix = options.cache_key();
    let lookups = queries
        .into_iter()
        .map(|query| {
            let key = CacheKey {
                // xlint: allow(no-alloc-hot-path, key build: the cache key owns its model id)
                model: model.id.clone(),
                query,
                // xlint: allow(no-alloc-hot-path, key build: the cache key owns its options suffix)
                options: suffix.clone(),
            };
            let lookup = shared
                .cache
                .lookup(&key, &model.fingerprint, model.dict_len);
            (key, lookup)
        })
        .collect();
    Ok(ExplainCall {
        started,
        model,
        options,
        lookups,
    })
}

/// The single-query envelope (`/v2/explain`) around one answered slot,
/// counted on its route counter.  The event loop renders exact hits with
/// it and [`explain_core`] everything else, so both paths serve the same
/// bytes.  `elapsed_us` is the handler wall-clock from `started` (decode,
/// lookup, engine), so cached and uncached answers are comparable.
fn render_single(
    shared: &Shared,
    model: &str,
    slot: &wire::BatchSlotV2,
    started: Instant,
) -> Response {
    shared.stats.explain_v2.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
    let elapsed_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let body = wire::explain_v2_response(
        model,
        slot.cached,
        slot.deadline_hit,
        elapsed_us,
        slot.provenance.as_ref(),
        &slot.result,
    );
    Response::json(200, body)
}

/// The largest explain body the event loop decodes itself.  A single Why
/// Query is a few hundred bytes; a bigger body is decoded on a worker, so
/// one oversized request cannot stall every other connection while it
/// parses.
const LOOP_BODY_LIMIT: usize = 16 * 1024;

/// What the event loop does with a framed request.
pub(crate) enum OnLoop {
    /// Answered on the loop thread, accounting and trace done: stage it.
    Answered(Response),
    /// Needs a worker: admit it, carrying this decoded explain (if any).
    Queue(Option<Box<ExplainCall>>),
}

/// The event loop's first look at a framed request.  A single-query
/// explain (`POST /v2/explain`) with a body of at most
/// [`LOOP_BODY_LIMIT`] bytes is decoded, keyed and looked up right here:
/// an exact hit is rendered by [`render_single`] and answered without
/// leaving the loop thread, as is a body that fails to decode or names an
/// unknown model.  Everything else — misses, prefix candidates, every
/// other route — is handed back to be queued, a miss together with its
/// decoded call.
///
/// The loop answers, so the loop accounts: status, `stats.latency` (from
/// `framed`, the loop's admission instant) and the error counters, plus
/// `xinsight_loop_hits_total` for a hit.  The trace gets the worker
/// path's vocabulary: a zero-length `queue_wait`, `cache_lookup` (decode,
/// key and lookup) and `serialize`; a queued miss carries just its
/// `cache_lookup`.  A panic anywhere in here is contained like a worker's
/// (see [`contain_panic`]): the event loop, and with it the whole server,
/// keeps running.
pub(crate) fn serve_on_loop(
    shared: &Shared,
    request: &Request,
    framed: Instant,
    trace: &mut TraceBuilder,
) -> OnLoop {
    let explain =
        (request.method.as_str(), split_target(&request.path).0) == ("POST", "/v2/explain");
    if !explain || request.body.len() > LOOP_BODY_LIMIT {
        return OnLoop::Queue(None);
    }
    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        inject_fault(request);
        let call = match look_up(shared, framed, decode_single(&request.body)) {
            Ok(call) => call,
            Err(response) => {
                trace.span(Stage::QueueWait, framed, framed, "");
                trace.span(Stage::Execute, framed, Instant::now(), "");
                return OnLoop::Answered(response);
            }
        };
        let looked_up = Instant::now();
        let hit = match call.lookups.as_slice() {
            [(_, Lookup::Hit(value))] => Arc::clone(value),
            lookups => {
                let tier = match lookups {
                    [(_, Lookup::Miss)] => "miss",
                    _ => "prefix",
                };
                trace.span(Stage::CacheLookup, framed, looked_up, tier);
                // xlint: allow(no-alloc-hot-path, a miss leaves the loop anyway; the box is its hand-off to the job)
                return OnLoop::Queue(Some(Box::new(call)));
            }
        };
        trace.span(Stage::QueueWait, framed, framed, "");
        trace.span(Stage::CacheLookup, framed, looked_up, "hit");
        let slot = wire::BatchSlotV2 {
            cached: true,
            deadline_hit: false,
            provenance: None,
            result: hit,
        };
        let response = render_single(shared, &call.model.id, &slot, call.started);
        trace.span(Stage::Serialize, looked_up, Instant::now(), "");
        shared.stats.loop_hits.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
        OnLoop::Answered(response)
    }));
    let response = match served {
        Ok(OnLoop::Answered(response)) => response,
        Ok(queued) => return queued,
        Err(payload) => contain_panic(shared, &*payload, framed, trace),
    };
    trace.set_status(response.status);
    shared.stats.latency.record(framed.elapsed());
    count_response(shared, &response);
    OnLoop::Answered(response)
}

/// The one explain path behind both explain routes.  `call` is the
/// decoded request with every query's lookup verdict (see [`look_up`]).
/// Each verdict is resolved (exact hit, prefix promotion, merge or miss);
/// the rest run as one engine batch through the model's persistent
/// [`SelectionCache`](xinsight_core::SelectionCache).  Each fresh answer
/// is accounted (a merge-tier recompute cut by its deadline counts as a
/// miss), cached unless its deadline was hit, and encoded into its slot.
/// `render` turns the model id and the slots into the route's envelope; it
/// runs only on success, so the counters it bumps rise only then.  The
/// `cache_lookup` span runs from `lookup_started`.
fn explain_core(
    shared: &Shared,
    call: ExplainCall,
    lookup_started: Instant,
    trace: &mut TraceBuilder,
    render: impl FnOnce(&str, &[wire::BatchSlotV2]) -> Response,
) -> Response {
    let ExplainCall {
        model,
        options,
        lookups,
        ..
    } = call;
    let single = lookups.len() == 1;
    let lookups: Vec<(CacheKey, CacheOutcome)> = lookups
        .into_iter()
        .map(|(key, lookup)| {
            let outcome = resolve(shared, &model, &key, lookup);
            (key, outcome)
        })
        .collect();
    let requests: Vec<ExplainRequest> = lookups
        .iter()
        .filter(|(_, outcome)| !outcome.is_hit())
        .map(|(key, _)| options.to_engine_request(key.query.clone()))
        .collect();
    let (hits, uncached) = (lookups.len() - requests.len(), requests.len());
    let detail: Cow<'static, str> = match lookups.first() {
        Some((_, outcome)) if single => outcome.tier().into(),
        _ => format!("hits={hits},uncached={uncached}").into(),
    };
    trace.span(Stage::CacheLookup, lookup_started, Instant::now(), detail);

    let mut answers = Vec::new();
    if !requests.is_empty() {
        let execute_started = Instant::now();
        answers = match model
            .engine
            .execute_batch_with_cache(&requests, Arc::clone(&model.selection))
        {
            Ok(answers) => answers,
            Err(e) => {
                trace.span(Stage::Execute, execute_started, Instant::now(), "error");
                return error_response_v2(&e);
            }
        };
        // A single query's execute span carries the engine's own
        // attribution: how many attributes the search visited vs pruned.
        let detail: Cow<'static, str> = match answers.as_slice() {
            [only] if single => only.provenance.as_ref().map_or("".into(), |p| {
                let (searched, skipped) = (p.attributes_searched, p.attributes_skipped);
                format!("attrs_searched={searched},attrs_skipped={skipped}").into()
            }),
            _ => format!("queries={}", answers.len()).into(),
        };
        trace.span(Stage::Execute, execute_started, Instant::now(), detail);
    }

    let serialize_started = Instant::now();
    let mut slots: Vec<wire::BatchSlotV2> = lookups
        .iter()
        .map(|(_, outcome)| wire::BatchSlotV2 {
            cached: outcome.is_hit(),
            deadline_hit: false,
            provenance: None,
            result: match outcome {
                CacheOutcome::Hit(hit) => Arc::clone(hit),
                _ => Arc::from(""),
            },
        })
        .collect();
    // Fresh slots are filled in query order from the engine's answers.
    let cache = &shared.cache;
    let fresh = slots.iter_mut().zip(lookups).filter(|(s, _)| !s.cached);
    for ((slot, (key, outcome)), mut response) in fresh.zip(answers) {
        match outcome {
            CacheOutcome::Merge if response.deadline_hit => cache.note_miss(),
            CacheOutcome::Merge => cache.merged(),
            _ => {}
        }
        slot.deadline_hit = response.deadline_hit;
        slot.provenance = response.provenance.take();
        if let Some(provenance) = slot.provenance.as_mut() {
            // Engines restored from a bundle lose their fit-time CI
            // counters; the registry persisted them, so re-attach.
            provenance.ci_cache_fit_time = model.ci_cache_stats;
        }
        slot.result = Arc::from(wire::v2_result_to_string(&response).as_str());
        // A deadline-hit answer is partial; caching it would replay the
        // partiality to later (possibly unhurried) requests.
        if !slot.deadline_hit {
            let fingerprint = model.fingerprint.clone();
            cache.insert(key, fingerprint, model.dict_len, Arc::clone(&slot.result));
        }
    }
    let response = render(&model.id, &slots);
    trace.span(Stage::Serialize, serialize_started, Instant::now(), "");
    response
}

/// The body of the unreachable case where a single-query call is answered
/// with other than one slot.
const NOT_ONE_SLOT: &str = "explain answered other than one slot for one query";

/// `POST /v2/explain`: one query, its options, the self-describing
/// envelope.  The event loop answers exact hits itself (see
/// [`serve_on_loop`]) and hands everything else over already decoded and
/// looked up as `carried`; a body too large for the loop to decode
/// arrives without one and is decoded here.
fn explain_single(
    shared: &Shared,
    body: &[u8],
    carried: Option<Box<ExplainCall>>,
    trace: &mut TraceBuilder,
) -> Response {
    let lookup_started = Instant::now();
    let call = match carried {
        Some(call) => *call,
        None => match look_up(shared, lookup_started, decode_single(body)) {
            Ok(call) => call,
            Err(response) => return response,
        },
    };
    let started = call.started;
    explain_core(
        shared,
        call,
        lookup_started,
        trace,
        |model, slots| match slots {
            [slot] => render_single(shared, model, slot, started),
            _ => Response::error(500, NOT_ONE_SLOT),
        },
    )
}

/// `POST /v2/explain_batch`: one options object applied to every query.
fn explain_batch(shared: &Shared, body: &[u8], trace: &mut TraceBuilder) -> Response {
    let started = Instant::now();
    let decoded = wire::ExplainBatchV2::parse(body).map(|r| (r.model, r.queries, r.options));
    let call = match look_up(shared, started, decoded) {
        Ok(call) => call,
        Err(response) => return response,
    };
    // The counters rise only on success: `render` runs only then.
    explain_core(shared, call, started, trace, |model, slots| {
        let stats = &shared.stats;
        stats.explain_batch_v2.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
        stats
            .batch_queries
            .fetch_add(slots.len() as u64, Ordering::Relaxed); // relaxed: monotonic stats counter
        Response::json(200, wire::explain_batch_v2_response(model, slots))
    })
}

/// `POST /v2/ingest`: validates the wire rows against the model's raw
/// schema, appends them as one sealed segment (atomic engine swap with a
/// generation bump — in-flight requests finish on their old snapshot) and
/// reports the new store shape.  No model reload happens; the fitted causal
/// model is shared and the new rows are immediately explainable.
fn handle_ingest_v2(shared: &Shared, body: &[u8], trace: &mut TraceBuilder) -> Response {
    let request = match wire::IngestV2::parse(body) {
        Ok(r) => r,
        Err(e) => return error_response_v2(&e),
    };
    let Some(model) = shared.registry.get(&request.model) else {
        return model_not_found_v2(&request.model);
    };
    let batch = match wire::rows_to_dataset(model.engine.raw_schema(), &request.rows) {
        Ok(b) => b,
        Err(e) => return error_response_v2(&e),
    };
    let ingest_started = Instant::now();
    match shared.registry.ingest_with_report(&request.model, &batch) {
        Ok((loaded, report)) => {
            // Replay the registry's own timing as two sequential Execute
            // spans: segment build (CSR construction, stats) then the
            // atomic swap under the registry's write lock.
            let build_end = ingest_started + Duration::from_micros(report.build_us);
            trace.span(
                Stage::Execute,
                ingest_started,
                build_end,
                "ingest: build segment",
            );
            trace.span(
                Stage::Execute,
                build_end,
                build_end + Duration::from_micros(report.swap_us),
                "ingest: swap",
            );
            // Nothing is invalidated: cached results stay keyed by the
            // segment-set fingerprint they were computed against, which is
            // now a proper prefix of the store — follow-up lookups promote
            // them (when the new rows cannot move the answer) or merge
            // their partials with the new segment's.
            shared.stats.ingest_v2.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
            let store = loaded.engine.data();
            // `ingested` counts rows actually sealed into the store — the
            // new segment's size; rows the engine's preprocessing dropped
            // (missing cells) are reported separately so the arithmetic
            // always reconciles for clients.
            let sealed = store.segments().last().map(|s| s.n_rows()).unwrap_or(0);
            serialized(trace, || {
                Response::json(
                    200,
                    format!(
                        "{{\"model\":\"{}\",\"ingested\":{},\"dropped_null_rows\":{},\
                         \"rows\":{},\"segments\":{},\"epoch\":{},\"generation\":{}}}",
                        loaded.id,
                        sealed,
                        batch.n_rows().saturating_sub(sealed),
                        store.n_rows(),
                        store.n_segments(),
                        store.epoch(),
                        loaded.generation
                    ),
                )
            })
        }
        Err(e) => {
            trace.span(Stage::Execute, ingest_started, Instant::now(), "error");
            error_response_v2(&e)
        }
    }
}

/// `GET /v2/graph?model=<id>&format=json|dot|mermaid`: the fitted causal
/// graph of a loaded model — the FD-augmented PAG, the FD graph and the
/// sepset summary — as structured JSON or as ready-to-paste DOT / Mermaid
/// text (one shared emitter with the CLI, [`xinsight_graph::render`], so
/// the two surfaces can never drift).
///
/// `model` is required; `format` defaults to `json`.  Unknown query
/// parameters and unknown formats are rejected (`400`) so typos surface
/// instead of silently serving the default.
fn handle_graph_v2(shared: &Shared, query: Option<&str>, trace: &mut TraceBuilder) -> Response {
    use xinsight_core::json::Json;
    use xinsight_graph::render;
    let mut model_id: Option<&str> = None;
    let mut format = "json";
    for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "model" => model_id = Some(value),
            "format" => format = value,
            other => {
                return error_response_v2(&DataError::Serve(format!(
                    "unknown query parameter `{other}` (expected `model`, `format`)"
                )))
            }
        }
    }
    let Some(model_id) = model_id else {
        return error_response_v2(&DataError::Serve(
            "missing required query parameter `model`".to_owned(),
        ));
    };
    if !matches!(format, "json" | "dot" | "mermaid") {
        return error_response_v2(&DataError::Serve(format!(
            "unknown graph format `{format}` (expected `json`, `dot` or `mermaid`)"
        )));
    }
    let Some(model) = shared.registry.get(model_id) else {
        return model_not_found_v2(model_id);
    };
    let execute_started = Instant::now();
    let fitted = model.engine.fitted_model();
    trace.span(Stage::Execute, execute_started, Instant::now(), "");
    shared.stats.graph_v2.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
    if format == "dot" {
        return serialized(trace, || {
            Response::plain(200, render::to_dot(&fitted.graph))
        });
    }
    if format == "mermaid" {
        return serialized(trace, || {
            Response::plain(200, render::to_mermaid(&fitted.graph))
        });
    }
    serialized(trace, || {
        let nodes: Vec<Json> = fitted
            .graph
            .names()
            .iter()
            .map(|n| Json::Str(n.clone()))
            .collect();
        let edges: Vec<Json> = fitted
            .graph
            .edges()
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("a".to_owned(), Json::Num(e.a as f64)),
                    ("b".to_owned(), Json::Num(e.b as f64)),
                    (
                        "mark_a".to_owned(),
                        Json::Str(render::mark_name(e.near_a).to_owned()),
                    ),
                    (
                        "mark_b".to_owned(),
                        Json::Str(render::mark_name(e.near_b).to_owned()),
                    ),
                ])
            })
            .collect();
        let fd_edges: Vec<Json> = fitted
            .fd_graph
            .edges()
            .iter()
            .map(|&(a, b)| Json::Arr(vec![Json::Str(a.to_owned()), Json::Str(b.to_owned())]))
            .collect();
        // Sepset ids index `fci_variables`; resolve them to names at this
        // boundary and order deterministically by the id pair.
        let sep_name = |id: u32| {
            fitted
                .fci_variables
                .get(id as usize)
                .cloned()
                .unwrap_or_else(|| format!("#{id}"))
        };
        let mut sepset_entries: Vec<(u32, u32, &[u32])> = fitted.sepsets.iter().collect();
        sepset_entries.sort_unstable_by_key(|&(x, y, _)| (x, y));
        let sepsets: Vec<Json> = sepset_entries
            .into_iter()
            .map(|(x, y, z)| {
                Json::Obj(vec![
                    ("x".to_owned(), Json::Str(sep_name(x))),
                    ("y".to_owned(), Json::Str(sep_name(y))),
                    (
                        "z".to_owned(),
                        Json::Arr(z.iter().map(|&m| Json::Str(sep_name(m))).collect()),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("model".to_owned(), Json::Str(model.id.clone())),
            ("generation".to_owned(), Json::Num(model.generation as f64)),
            (
                "graph".to_owned(),
                Json::Obj(vec![
                    ("nodes".to_owned(), Json::Arr(nodes)),
                    ("edges".to_owned(), Json::Arr(edges)),
                ]),
            ),
            (
                "fd_graph".to_owned(),
                Json::Obj(vec![
                    (
                        "nodes".to_owned(),
                        Json::Arr(
                            fitted
                                .fd_graph
                                .nodes()
                                .iter()
                                .map(|n| Json::Str(n.clone()))
                                .collect(),
                        ),
                    ),
                    ("edges".to_owned(), Json::Arr(fd_edges)),
                ]),
            ),
            ("sepsets".to_owned(), Json::Arr(sepsets)),
            (
                "fci_variables".to_owned(),
                Json::Arr(
                    fitted
                        .fci_variables
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            ),
            (
                "dropped_redundant".to_owned(),
                Json::Arr(
                    fitted
                        .dropped_redundant
                        .iter()
                        .map(|v| Json::Str(v.clone()))
                        .collect(),
                ),
            ),
            ("n_ci_tests".to_owned(), Json::Num(fitted.n_ci_tests as f64)),
        ]);
        Response::json(200, doc.to_string())
    })
}

fn handle_models(shared: &Shared) -> Response {
    use xinsight_core::json::Json;
    let models: Vec<Json> = shared
        .registry
        .models()
        .iter()
        .map(|m| {
            let store = m.engine.data();
            Json::Obj(vec![
                ("id".to_owned(), Json::Str(m.id.clone())),
                ("rows".to_owned(), Json::Num(m.n_rows as f64)),
                (
                    "graph_nodes".to_owned(),
                    Json::Num(m.engine.graph().n_nodes() as f64),
                ),
                ("generation".to_owned(), Json::Num(m.generation as f64)),
                ("segments".to_owned(), Json::Num(store.n_segments() as f64)),
                ("epoch".to_owned(), Json::Num(store.epoch() as f64)),
                ("store_rows".to_owned(), Json::Num(store.n_rows() as f64)),
                (
                    "example_queries".to_owned(),
                    Json::Arr(
                        m.example_queries
                            .iter()
                            .map(|q| q.to_json_value())
                            .collect(),
                    ),
                ),
                (
                    "ingest_template".to_owned(),
                    Json::Arr(
                        m.example_rows
                            .iter()
                            .filter_map(|row| Json::parse(row).ok())
                            .collect(),
                    ),
                ),
                (
                    "ci_cache_fit_time".to_owned(),
                    Json::Obj(vec![
                        ("hits".to_owned(), Json::Num(m.ci_cache_stats.hits as f64)),
                        (
                            "misses".to_owned(),
                            Json::Num(m.ci_cache_stats.misses as f64),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    shared.stats.models.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
    Response::json(200, Json::Arr(models).to_string())
}

fn handle_reload(shared: &Shared, body: &[u8]) -> Response {
    let id = match wire::parse_reload_request(body) {
        Ok(id) => id,
        Err(e) => return error_response_v2(&e),
    };
    match shared.registry.load(&id) {
        Ok(loaded) => {
            // Answers may change under the new model: drop its cached results.
            shared.cache.invalidate_model(&id);
            shared.stats.admin.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
            Response::json(
                200,
                format!(
                    "{{\"reloaded\":\"{}\",\"generation\":{}}}",
                    loaded.id, loaded.generation
                ),
            )
        }
        Err(e) => error_response_v2(&e),
    }
}

#[cfg(test)]
mod tests {
    // thread::sleep allowed: tests pace real sockets and drain windows (see clippy.toml).
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::client::{explain_v2_body, HttpClient};
    use xinsight_core::json::Json;
    use xinsight_core::pipeline::XInsightOptions;
    use xinsight_core::WhyQuery;
    use xinsight_data::{Aggregate, Dataset, DatasetBuilder, Subspace};

    /// One fresh `/metrics` scrape.
    fn scrape(client: &mut HttpClient) -> String {
        let resp = client.get("/metrics").unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        resp.body
    }

    /// One series off a scrape; a missing series fails the test.
    fn metric(text: &str, series: &str) -> f64 {
        metrics::series_value(text, series)
            .unwrap_or_else(|| panic!("no `{series}` in /metrics:\n{text}"))
    }

    fn tiny_data() -> Dataset {
        let mut loc = Vec::new();
        let mut smoking = Vec::new();
        let mut severity = Vec::new();
        for i in 0..160 {
            let a = i % 2 == 0;
            loc.push(if a { "A" } else { "B" });
            let smokes = if a { i % 10 < 8 } else { i % 10 < 2 };
            smoking.push(if smokes { "Yes" } else { "No" });
            severity.push(if smokes { 2.0 + (i % 3) as f64 } else { 1.0 });
        }
        DatasetBuilder::new()
            .dimension("Location", loc)
            .dimension("Smoking", smoking)
            .measure("Severity", severity)
            .build()
            .unwrap()
    }

    fn tiny_query() -> WhyQuery {
        WhyQuery::new(
            "Severity",
            Aggregate::Avg,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap()
    }

    /// Fits + saves model `id` over `data` in a temp dir and serves it.
    fn start_model(
        tag: &str,
        id: &str,
        data: &Dataset,
        config: ServerConfig,
    ) -> (ServerHandle, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("xinsight_server_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
        registry.fit_and_save(id, data, vec![tiny_query()]).unwrap();
        registry.load(id).unwrap();
        let handle = start(Arc::new(registry), &config).unwrap();
        (handle, dir)
    }

    fn start_tiny(tag: &str, config: ServerConfig) -> (ServerHandle, std::path::PathBuf) {
        start_model(tag, "tiny", &tiny_data(), config)
    }

    fn direct_result(engine: &xinsight_core::pipeline::XInsight, query: &WhyQuery) -> String {
        wire::v2_result_to_string(&engine.execute(&ExplainRequest::new(query.clone())).unwrap())
    }

    #[test]
    fn explain_over_http_matches_direct_and_caches() {
        let (handle, dir) = start_tiny("explain", ServerConfig::default());
        let engine =
            xinsight_core::pipeline::XInsight::fit(&tiny_data(), &XInsightOptions::default())
                .unwrap();
        let direct = direct_result(&engine, &tiny_query());

        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let body = format!(
            "{{\"model\":\"tiny\",\"query\":{}}}",
            tiny_query().to_json()
        );
        let first = client.post("/v2/explain", &body).unwrap();
        assert_eq!(first.status, 200, "body: {}", first.body);
        let doc = Json::parse(&first.body).unwrap();
        assert!(!doc.get("cached").unwrap().as_bool().unwrap());
        assert_eq!(doc.get("result").unwrap().to_string(), direct);

        // Second request over the same keep-alive connection hits the LRU
        // and returns identical result bytes.
        let second = client.post("/v2/explain", &body).unwrap();
        let doc2 = Json::parse(&second.body).unwrap();
        assert!(doc2.get("cached").unwrap().as_bool().unwrap());
        assert_eq!(doc2.get("result").unwrap().to_string(), direct);

        // Batch endpoint: one cached, one fresh, order preserved.
        let other = WhyQuery::new(
            "Severity",
            Aggregate::Sum,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap();
        let batch = format!(
            "{{\"model\":\"tiny\",\"queries\":[{},{}]}}",
            tiny_query().to_json(),
            other.to_json()
        );
        let resp = client.post("/v2/explain_batch", &batch).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert!(results[0].get("cached").unwrap().as_bool().unwrap());
        assert!(!results[1].get("cached").unwrap().as_bool().unwrap());
        assert_eq!(results[0].get("result").unwrap().to_string(), direct);
        let direct_other = direct_result(&engine, &other);
        assert_eq!(results[1].get("result").unwrap().to_string(), direct_other);

        // /models and /metrics report the serving state.
        let models = client.get("/models").unwrap();
        let doc = Json::parse(&models.body).unwrap();
        let entry = &doc.as_arr().unwrap()[0];
        assert_eq!(entry.get("id").unwrap().as_str().unwrap(), "tiny");
        assert!(!entry
            .get("example_queries")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());
        let text = scrape(&mut client);
        assert_eq!(
            metric(&text, "xinsight_requests_total{endpoint=\"explain_v2\"}"),
            2.0
        );
        assert_eq!(
            metric(&text, "xinsight_result_cache_total{tier=\"hit\"}"),
            2.0
        );
        assert!(metric(&text, "xinsight_selection_cache_total{outcome=\"miss\"}") > 0.0);
        assert!(metric(&text, "xinsight_ci_cache_fit_time_total{outcome=\"miss\"}") > 0.0);

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Identical requests racing into a cold cache may each compute the
    /// key; every one serves the direct engine's bytes.
    #[test]
    fn concurrent_identical_misses_serve_the_direct_result() {
        let config = ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        };
        let (handle, dir) = start_tiny("concurrent_misses", config);
        let engine = xinsight_core::pipeline::XInsight::fit(&tiny_data(), &Default::default());
        let direct = direct_result(&engine.unwrap(), &tiny_query());
        let body = explain_v2_body("tiny", &tiny_query().to_json(), None);
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut client = HttpClient::connect(handle.addr()).unwrap();
                    barrier.wait();
                    let resp = client.post("/v2/explain", &body).unwrap();
                    assert_eq!(result_of(&resp.body), direct, "body: {}", resp.body);
                });
            }
        });
        let text = scrape(&mut HttpClient::connect(handle.addr()).unwrap());
        let tier = |name| {
            metric(
                &text,
                &format!("xinsight_result_cache_total{{tier=\"{name}\"}}"),
            )
        };
        assert!(tier("miss") >= 1.0, "the cold cache missed at least once");
        let tiers = tier("hit") + tier("prefix_hit") + tier("merged") + tier("miss");
        assert_eq!(tiers, metric(&text, "xinsight_result_cache_lookups_total"));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthz_is_alive_without_touching_models() {
        // An *empty* registry: /healthz must answer even though there is
        // nothing to serve (liveness, not readiness of any model).
        let dir = std::env::temp_dir().join(format!("xinsight_healthz_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
        let handle = start(Arc::new(registry), &ServerConfig::default()).unwrap();
        crate::client::wait_healthy(handle.addr(), Duration::from_secs(5)).unwrap();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let resp = client.get("/healthz").unwrap();
        assert_eq!(resp.status, 200);
        assert!(Json::parse(&resp.body)
            .unwrap()
            .get("ok")
            .unwrap()
            .as_bool()
            .unwrap());
        // Wrong method is still a 405, not a 404.
        assert_eq!(client.post("/healthz", "{}").unwrap().status, 405);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_explain_honours_options_and_distinguishes_cache_keys() {
        let (handle, dir) = start_tiny("v2", ServerConfig::default());
        let engine =
            xinsight_core::pipeline::XInsight::fit(&tiny_data(), &XInsightOptions::default())
                .unwrap();
        let direct = engine
            .execute(&ExplainRequest::new(tiny_query()))
            .unwrap()
            .into_explanations();
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let query_json = tiny_query().to_json();

        // Default options: the scored ranking mirrors the direct answer.
        let resp = client.explain_v2("tiny", &query_json, None).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        assert!(!doc.get("cached").unwrap().as_bool().unwrap());
        assert!(!doc.get("deadline_hit").unwrap().as_bool().unwrap());
        let result = doc.get("result").unwrap();
        assert!(!result.get("truncated").unwrap().as_bool().unwrap());
        let slots = result.get("explanations").unwrap().as_arr().unwrap();
        assert_eq!(slots.len(), direct.len());
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.get("rank").unwrap().as_u64().unwrap(), (i + 1) as u64);
            assert_eq!(
                slot.get("explanation").unwrap().to_string(),
                wire::explanation_to_json(&direct[i]).to_string()
            );
        }

        // top_k=1 is a *different* LRU key: the first such request cannot
        // be a hit even though the default-options answer is cached.
        let resp = client
            .explain_v2(
                "tiny",
                &query_json,
                Some("{\"top_k\":1,\"include_provenance\":true}"),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        assert!(
            !doc.get("cached").unwrap().as_bool().unwrap(),
            "a top_k=1 request must not alias the default-options entry"
        );
        let result = doc.get("result").unwrap();
        assert!(result.get("truncated").unwrap().as_bool().unwrap() || direct.len() <= 1);
        assert!(result.get("explanations").unwrap().as_arr().unwrap().len() <= 1);
        let provenance = doc.get("provenance").unwrap();
        assert!(
            provenance
                .get("attributes_searched")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        // The registry re-attached the persisted fit-time CI counters.
        assert!(
            provenance
                .get("ci_cache_fit_time")
                .unwrap()
                .get("misses")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );

        // Repeating each request hits its own entry.
        for options in [None, Some("{\"top_k\":1,\"include_provenance\":true}")] {
            let resp = client.explain_v2("tiny", &query_json, options).unwrap();
            let doc = Json::parse(&resp.body).unwrap();
            assert!(doc.get("cached").unwrap().as_bool().unwrap(), "{options:?}");
        }

        // v2 batch: same options applied to both queries, order preserved.
        let other = WhyQuery::new(
            "Severity",
            Aggregate::Sum,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap();
        let body = format!(
            "{{\"model\":\"tiny\",\"queries\":[{},{}],\"options\":{{\"top_k\":1}}}}",
            query_json,
            other.to_json()
        );
        let resp = client.post("/v2/explain_batch", &body).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        let results = doc.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        for slot in results {
            assert!(
                slot.get("result")
                    .unwrap()
                    .get("explanations")
                    .unwrap()
                    .as_arr()
                    .unwrap()
                    .len()
                    <= 1
            );
        }

        // v2 errors carry the shared machine-readable code.
        let resp = client.explain_v2("ghost", &query_json, None).unwrap();
        assert_eq!(resp.status, 404);
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str().unwrap(), "serve");
        let resp = client
            .explain_v2("tiny", &query_json, Some("{\"bogus\":1}"))
            .unwrap();
        assert_eq!(resp.status, 400);
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str().unwrap(), "serve");
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("bogus"));
        // `parallel` is rejected like any unknown option, and the message
        // lists the supported ones.
        let resp = client
            .explain_v2("tiny", &query_json, Some("{\"parallel\":true}"))
            .unwrap();
        assert_eq!(resp.status, 400, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        let message = doc.get("error").unwrap().as_str().unwrap();
        assert!(
            message.contains(
                "unknown option `parallel` (supported: top_k, min_score, types, \
                 deadline_ms, include_provenance)"
            ),
            "{message}"
        );

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_over_http_round_trips_without_a_reload() {
        let (handle, dir) = start_tiny("ingest", ServerConfig::default());
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let query_body = format!(
            "{{\"model\":\"tiny\",\"query\":{}}}",
            tiny_query().to_json()
        );
        // Warm the LRU, confirm the hit.
        assert_eq!(client.post("/v2/explain", &query_body).unwrap().status, 200);
        let doc = Json::parse(&client.post("/v2/explain", &query_body).unwrap().body).unwrap();
        assert!(doc.get("cached").unwrap().as_bool().unwrap());
        // /models advertises the store shape and ingest templates.
        let models = client.get("/models").unwrap();
        let doc = Json::parse(&models.body).unwrap();
        let entry = &doc.as_arr().unwrap()[0];
        assert_eq!(entry.get("segments").unwrap().as_u64().unwrap(), 1);
        assert_eq!(entry.get("epoch").unwrap().as_u64().unwrap(), 0);
        let template = entry.get("ingest_template").unwrap().as_arr().unwrap();
        assert!(!template.is_empty());
        let rows = format!("[{},{}]", template[0], template[0]);
        // Ingest two rows: a new sealed segment, epoch + 1, generation + 1.
        let resp = client.ingest_v2("tiny", &rows).unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("ingested").unwrap().as_u64().unwrap(), 2);
        assert_eq!(doc.get("segments").unwrap().as_u64().unwrap(), 2);
        assert_eq!(doc.get("epoch").unwrap().as_u64().unwrap(), 1);
        assert_eq!(doc.get("generation").unwrap().as_u64().unwrap(), 2);
        // /metrics surfaces the per-model store shape.
        let text = scrape(&mut client);
        assert_eq!(
            metric(&text, "xinsight_model_segments{model=\"tiny\"}"),
            2.0
        );
        assert_eq!(metric(&text, "xinsight_model_epoch{model=\"tiny\"}"), 1.0);
        assert_eq!(
            metric(&text, "xinsight_requests_total{endpoint=\"ingest_v2\"}"),
            1.0
        );
        // A re-issued explain answers against the grown store: the old
        // cached entry is unreachable (generation rolled), so this is a
        // fresh computation over two segments.
        let doc = Json::parse(&client.post("/v2/explain", &query_body).unwrap().body).unwrap();
        assert!(
            !doc.get("cached").unwrap().as_bool().unwrap(),
            "post-ingest explains must not replay pre-ingest answers"
        );
        // Validation errors are structured v2 errors.
        let resp = client.ingest_v2("tiny", "[{\"Ghost\":1}]").unwrap();
        assert_eq!(resp.status, 400, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str().unwrap(), "serve");
        let resp = client.ingest_v2("ghost", "[{\"X\":\"a\"}]").unwrap();
        assert_eq!(resp.status, 404);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A dataset whose `Location` has a *third* category `C` that the
    /// example query never touches — ingesting `C` rows grows the store
    /// without intersecting the query's subspaces, which is exactly the
    /// case where a cached result can be promoted instead of recomputed.
    fn tri_data() -> Dataset {
        let mut loc = Vec::new();
        let mut smoking = Vec::new();
        let mut severity = Vec::new();
        for i in 0..180 {
            let which = i % 3;
            loc.push(["A", "B", "C"][which]);
            let smokes = (i / 3) % 10 < if which == 0 { 8 } else { 2 };
            smoking.push(if smokes { "Yes" } else { "No" });
            severity.push(if smokes { 2.0 + (i % 3) as f64 } else { 1.0 });
        }
        DatasetBuilder::new()
            .dimension("Location", loc)
            .dimension("Smoking", smoking)
            .measure("Severity", severity)
            .build()
            .unwrap()
    }

    fn start_tri(tag: &str, config: ServerConfig) -> (ServerHandle, std::path::PathBuf) {
        start_model(tag, "tri", &tri_data(), config)
    }

    fn result_of(body: &str) -> String {
        cached_answer(body).1
    }

    fn cached_flag(body: &str) -> bool {
        cached_answer(body).0
    }

    /// The two explain routes, single then batch.
    const EXPLAIN_ROUTES: [&str; 2] = ["/v2/explain", "/v2/explain_batch"];

    /// A one-query body for `route` against the `tri` model.
    fn explain_body(route: &str, query_json: &str) -> String {
        if route.ends_with("_batch") {
            format!("{{\"model\":\"tri\",\"queries\":[{query_json}]}}")
        } else {
            format!("{{\"model\":\"tri\",\"query\":{query_json}}}")
        }
    }

    /// The `cached` flag and the result bytes of a one-query response from
    /// either explain route, unwrapped from the batch envelope when there
    /// is one.
    fn cached_answer(body: &str) -> (bool, String) {
        let doc = Json::parse(body).unwrap();
        let slot = match doc.get("results") {
            Ok(results) => results.as_arr().unwrap()[0].clone(),
            Err(_) => doc,
        };
        let answer = slot.get("result").unwrap().to_string();
        (slot.get("cached").unwrap().as_bool().unwrap(), answer)
    }

    #[test]
    fn non_intersecting_ingest_promotes_instead_of_invalidating() {
        let mut baselines = Vec::new();
        for (i, route) in EXPLAIN_ROUTES.into_iter().enumerate() {
            // A fresh server per route: single and batch requests share
            // cache keys, so one route's entries would warm the next.
            let (handle, dir) = start_tri(&format!("promote{i}"), ServerConfig::default());
            let mut client = HttpClient::connect(handle.addr()).unwrap();
            let body = explain_body(route, &tiny_query().to_json());
            let mut explain = || {
                let resp = client.post(route, &body).unwrap();
                assert_eq!(resp.status, 200, "{route}: {}", resp.body);
                cached_answer(&resp.body)
            };
            let (cached, baseline) = explain();
            assert!(!cached, "{route}");

            // Ingest rows the query's subspaces (`Location` A vs B) never
            // select: all existing categories, so the dictionary is
            // unchanged.
            let ingest = |rows: &str| {
                let mut client = HttpClient::connect(handle.addr()).unwrap();
                let resp = client.ingest_v2("tri", rows).unwrap();
                assert_eq!(resp.status, 200, "body: {}", resp.body);
            };
            let c_row = "{\"Location\":\"C\",\"Smoking\":\"No\",\"Severity\":1.5}";
            ingest(&format!("[{c_row},{c_row}]"));

            // The pre-ingest entry is *promoted*: served as cached, bytes
            // identical, no recompute.
            let (cached, warm) = explain();
            assert!(
                cached,
                "{route}: a provably-unaffected cached answer must survive ingest"
            );
            assert_eq!(warm, baseline, "{route}");
            let cache_counter = |tier: &str| {
                let mut client = HttpClient::connect(handle.addr()).unwrap();
                let text = scrape(&mut client);
                metric(
                    &text,
                    &format!("xinsight_result_cache_total{{tier=\"{tier}\"}}"),
                )
            };
            assert_eq!(cache_counter("prefix_hit"), 1.0, "{route}");
            assert_eq!(cache_counter("merged"), 0.0, "{route}");

            // An ingest that *does* intersect S1 forces the merge path: the
            // recompute replays the old segments' partials and only
            // computes the new one.
            ingest("[{\"Location\":\"A\",\"Smoking\":\"Yes\",\"Severity\":3.0}]");
            let (cached, _) = explain();
            assert!(!cached, "{route}: an intersecting ingest must recompute");
            assert_eq!(cache_counter("merged"), 1.0, "{route}");

            // A *new category* on any dimension blocks promotion even when
            // the new rows miss the subspaces (cardinality moves scores).
            ingest("[{\"Location\":\"C\",\"Smoking\":\"Quit\",\"Severity\":1.0}]");
            let (cached, _) = explain();
            assert!(!cached, "{route}: dictionary growth must force a recompute");
            baselines.push(baseline);
            handle.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
        // Single and batch routes answer the same bytes.
        assert_eq!(baselines[0], baselines[1]);
    }

    #[test]
    fn deadline_hit_partials_are_never_admitted() {
        let (handle, dir) = start_tiny("deadline", ServerConfig::default());
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let query_json = tiny_query().to_json();
        let other_json = WhyQuery::new(
            "Severity",
            Aggregate::Sum,
            Subspace::of("Location", "A"),
            Subspace::of("Location", "B"),
        )
        .unwrap()
        .to_json();
        let batch = format!(
            "{{\"model\":\"tiny\",\"queries\":[{query_json},{other_json}],\
             \"options\":{{\"deadline_ms\":0}}}}"
        );
        // An already-expired deadline skips every search: the response is
        // partial and must not be cached — the repeat is not a hit.
        for _ in 0..2 {
            let resp = client
                .explain_v2("tiny", &query_json, Some("{\"deadline_ms\":0}"))
                .unwrap();
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            let doc = Json::parse(&resp.body).unwrap();
            let resp = client.post("/v2/explain_batch", &batch).unwrap();
            assert_eq!(resp.status, 200, "body: {}", resp.body);
            let batch_doc = Json::parse(&resp.body).unwrap();
            let batch_slots = batch_doc.get("results").unwrap().as_arr().unwrap();
            assert_eq!(batch_slots.len(), 2);
            for slot in std::iter::once(&doc).chain(batch_slots) {
                assert!(slot.get("deadline_hit").unwrap().as_bool().unwrap());
                assert!(
                    !slot.get("cached").unwrap().as_bool().unwrap(),
                    "a deadline-hit partial must never be served from cache"
                );
            }
        }
        let text = scrape(&mut client);
        assert_eq!(
            metric(&text, "xinsight_result_cache_total{tier=\"hit\"}"),
            0.0
        );
        assert_eq!(metric(&text, "xinsight_result_cache_entries"), 0.0);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_compaction_preserves_answers_over_http() {
        let (handle, dir) = start_tri(
            "compactor",
            ServerConfig {
                compact_after: 3,
                ..ServerConfig::default()
            },
        );
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let body = format!("{{\"model\":\"tri\",\"query\":{}}}", tiny_query().to_json());
        let baseline = result_of(&client.post("/v2/explain", &body).unwrap().body);
        // Two single-row ingests leave 3 segments — at the threshold.
        let c_row = "{\"Location\":\"C\",\"Smoking\":\"No\",\"Severity\":1.5}";
        for _ in 0..2 {
            assert_eq!(
                client
                    .ingest_v2("tri", &format!("[{c_row}]"))
                    .unwrap()
                    .status,
                200
            );
        }
        // The compactor folds the store to one segment within a few scans.
        let deadline = Instant::now() + Duration::from_secs(10);
        let text = loop {
            let text = scrape(&mut client);
            if metric(&text, "xinsight_compactions_total") >= 1.0 {
                break text;
            }
            assert!(Instant::now() < deadline, "compactor never ran:\n{text}");
            std::thread::sleep(Duration::from_millis(50));
        };
        assert_eq!(metric(&text, "xinsight_compact_after"), 3.0);
        assert_eq!(
            metric(&text, "xinsight_compaction_last_segments{phase=\"after\"}"),
            1.0
        );
        assert!(metric(&text, "xinsight_compaction_last_segments{phase=\"before\"}") >= 2.0);
        assert!(metric(&text, "xinsight_compaction_bytes_reclaimed_total") > 0.0);
        let models = Json::parse(&client.get("/models").unwrap().body).unwrap();
        let entry = &models.as_arr().unwrap()[0];
        assert_eq!(entry.get("segments").unwrap().as_u64().unwrap(), 1);
        // Generation: 1 (load) + 2 ingests + ≥1 compaction.
        assert!(entry.get("generation").unwrap().as_u64().unwrap() >= 4);
        // The compacted store answers byte-identically (the ingested `C`
        // rows never intersected the query's subspaces), and repeats hit
        // the cache again under the merged segment's fingerprint.
        let after = client.post("/v2/explain", &body).unwrap();
        assert_eq!(result_of(&after.body), baseline);
        let repeat = client.post("/v2/explain", &body).unwrap();
        assert!(cached_flag(&repeat.body));
        assert_eq!(result_of(&repeat.body), baseline);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_errors_are_4xx_and_unknown_models_404() {
        let (handle, dir) = start_tiny("errors", ServerConfig::default());
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let query_body = format!(
            "{{\"model\":\"nope\",\"query\":{}}}",
            tiny_query().to_json()
        );
        let resp = client.post("/v2/explain", &query_body).unwrap();
        assert_eq!(resp.status, 404);
        // Malformed JSON body → 400 with a structured error.
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let resp = client.post("/v2/explain", "{not json").unwrap();
        assert_eq!(resp.status, 400);
        assert!(Json::parse(&resp.body).unwrap().get("error").is_ok());
        // Unknown endpoint → 404, `/stats` included (every counter lives
        // on `/metrics`); wrong method → 405.
        for path in ["/nope", "/stats"] {
            let resp = client.get(path).unwrap();
            assert_eq!(resp.status, 404, "{path}");
        }
        let resp = client.get("/v2/explain").unwrap();
        assert_eq!(resp.status, 405);
        // The retired unversioned explain routes are unknown endpoints.
        let retired = [
            client.post("/explain", &query_body).unwrap(),
            client.post("/explain_batch", &query_body).unwrap(),
            client.get("/explain").unwrap(),
        ];
        for (resp, path) in retired
            .iter()
            .zip(["/explain", "/explain_batch", "/explain"])
        {
            assert_eq!(resp.status, 404, "{path}: {}", resp.body);
            let doc = Json::parse(&resp.body).unwrap();
            let message = doc.get("error").unwrap().as_str().unwrap();
            assert_eq!(message, format!("no such endpoint `{path}`"));
        }
        // A query over a column the model does not have → 400, not 500.
        let bad = WhyQuery::new(
            "Severity",
            Aggregate::Avg,
            Subspace::of("NoSuchColumn", "A"),
            Subspace::of("NoSuchColumn", "B"),
        )
        .unwrap();
        let resp = client
            .post(
                "/v2/explain",
                &format!("{{\"model\":\"tiny\",\"query\":{}}}", bad.to_json()),
            )
            .unwrap();
        assert_eq!(resp.status, 400, "body: {}", resp.body);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_queue_backpressure_returns_503() {
        let (handle, dir) = start_tiny(
            "backpressure",
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                debug_endpoints: true,
                ..ServerConfig::default()
            },
        );
        let addr = handle.addr();
        // Occupy the single worker, then fill the one-deep admission queue,
        // with fire-and-forget sleeps on separate keep-alive connections.
        // (The generous pauses only order the two dispatches — the worker
        // pop and the event-loop framing are both sub-millisecond.)
        let mut busy = HttpClient::connect(addr).unwrap();
        busy.send("POST", "/debug/sleep", "{\"ms\":1500}").unwrap();
        std::thread::sleep(Duration::from_millis(400));
        let mut queued = HttpClient::connect(addr).unwrap();
        queued
            .send("POST", "/debug/sleep", "{\"ms\":1500}")
            .unwrap();
        std::thread::sleep(Duration::from_millis(400));
        // Worker busy, queue full: the next request is shed *by the event
        // loop* with 503 — no worker is needed to say no.
        let mut third = HttpClient::connect(addr).unwrap();
        let resp = third.get("/models").unwrap();
        assert_eq!(resp.status, 503, "body: {}", resp.body);
        assert!(resp.closing, "a shed request closes its connection");
        // The occupied worker and the queued request both still answer.
        assert_eq!(busy.recv().unwrap().status, 200);
        assert_eq!(queued.recv().unwrap().status, 200);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn loop_served_hits_replay_the_cold_miss_bytes_and_count_once() {
        let (handle, dir) = start_tiny("loop_bytes", ServerConfig::default());
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let query_json = tiny_query().to_json();
        for body in [
            format!("{{\"model\":\"tiny\",\"query\":{query_json}}}"),
            explain_v2_body("tiny", &query_json, Some("{\"top_k\":2}")),
        ] {
            let cold = client.post("/v2/explain", &body).unwrap();
            assert_eq!(cold.status, 200, "{body}: {}", cold.body);
            let (cached, cold_bytes) = cached_answer(&cold.body);
            assert!(!cached, "{body}: the first request is a miss");
            let warm = client.post("/v2/explain", &body).unwrap();
            assert_eq!(warm.status, 200, "{body}: {}", warm.body);
            let (cached, warm_bytes) = cached_answer(&warm.body);
            assert!(cached, "{body}: the repeat is a hit");
            assert_eq!(
                warm_bytes, cold_bytes,
                "{body}: a loop hit replays the miss's bytes"
            );
        }
        // A body past the loop's decode limit is the same hit, served by a
        // worker instead.
        let padded = format!(
            "{{\"model\":\"tiny\",{}\"query\":{query_json}}}",
            " ".repeat(LOOP_BODY_LIMIT)
        );
        let resp = client.post("/v2/explain", &padded).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(cached_flag(&resp.body));
        let text = scrape(&mut client);
        // Each hit was looked up once and answered once.
        assert_eq!(metric(&text, "xinsight_loop_hits_total"), 2.0);
        assert_eq!(
            metric(&text, "xinsight_result_cache_total{tier=\"hit\"}"),
            3.0
        );
        assert_eq!(
            metric(&text, "xinsight_result_cache_total{tier=\"miss\"}"),
            2.0
        );
        assert_eq!(metric(&text, "xinsight_result_cache_lookups_total"), 5.0);
        assert_eq!(
            metric(&text, "xinsight_requests_total{endpoint=\"explain_v2\"}"),
            5.0
        );
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tiers_reconcile_and_loop_hits_count_single_query_exact_hits() {
        let (handle, dir) = start_tri("loop_tiers", ServerConfig::default());
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let query_json = tiny_query().to_json();
        let single = explain_body("/v2/explain", &query_json);
        let batch = explain_body("/v2/explain_batch", &query_json);
        let top1 = explain_v2_body("tri", &query_json, Some("{\"top_k\":1}"));
        let mut ask = |route: &str, body: &str| {
            let resp = client.post(route, body).unwrap();
            assert_eq!(resp.status, 200, "{route}: {}", resp.body);
            cached_answer(&resp.body).0
        };
        let ingest = |rows: &str| {
            let mut client = HttpClient::connect(handle.addr()).unwrap();
            let resp = client.ingest_v2("tri", rows).unwrap();
            assert_eq!(resp.status, 200, "body: {}", resp.body);
        };
        assert!(!ask("/v2/explain", &single)); // miss
        assert!(ask("/v2/explain", &single)); // exact hit, on the loop
        assert!(ask("/v2/explain_batch", &batch)); // exact hit, on a worker
        assert!(!ask("/v2/explain", &top1)); // miss (its own key)
        assert!(ask("/v2/explain", &top1)); // exact hit, on the loop

        // Rows the query never selects: the default-options entry is
        // promoted on a worker, then replayed on the loop.
        ingest("[{\"Location\":\"C\",\"Smoking\":\"No\",\"Severity\":1.5}]");
        assert!(ask("/v2/explain", &single)); // prefix promotion
        assert!(ask("/v2/explain", &single)); // exact hit, on the loop

        // Rows inside S1: the merge path recomputes, then the loop replays.
        ingest("[{\"Location\":\"A\",\"Smoking\":\"Yes\",\"Severity\":3.0}]");
        assert!(!ask("/v2/explain", &single)); // merge
        assert!(ask("/v2/explain", &single)); // exact hit, on the loop

        let text = scrape(&mut client);
        let tier = |name: &str| {
            metric(
                &text,
                &format!("xinsight_result_cache_total{{tier=\"{name}\"}}"),
            )
        };
        assert_eq!(tier("hit"), 5.0);
        assert_eq!(tier("prefix_hit"), 1.0);
        assert_eq!(tier("merged"), 1.0);
        assert_eq!(tier("miss"), 2.0);
        assert_eq!(
            tier("hit") + tier("prefix_hit") + tier("merged") + tier("miss"),
            metric(&text, "xinsight_result_cache_lookups_total"),
            "every lookup lands in exactly one tier"
        );
        // Single-query exact hits only: the batch hit went to a worker and
        // the promotion needed engine work.
        assert_eq!(metric(&text, "xinsight_loop_hits_total"), 4.0);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_explains_are_answered_while_every_worker_is_busy() {
        let (handle, dir) = start_tiny(
            "loop_no_worker",
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                debug_endpoints: true,
                ..ServerConfig::default()
            },
        );
        let addr = handle.addr();
        let query_json = tiny_query().to_json();
        let bodies = [
            format!("{{\"model\":\"tiny\",\"query\":{query_json}}}"),
            explain_v2_body("tiny", &query_json, Some("{\"top_k\":1}")),
        ];
        let mut client = HttpClient::connect(addr).unwrap();
        for body in &bodies {
            assert_eq!(
                client.post("/v2/explain", body).unwrap().status,
                200,
                "{body}"
            );
        }
        // Occupy the one worker, then fill the one-deep queue (see
        // `admission_queue_backpressure_returns_503`).
        let mut busy = HttpClient::connect(addr).unwrap();
        busy.send("POST", "/debug/sleep", "{\"ms\":1500}").unwrap();
        std::thread::sleep(Duration::from_millis(400));
        let mut queued = HttpClient::connect(addr).unwrap();
        queued
            .send("POST", "/debug/sleep", "{\"ms\":1500}")
            .unwrap();
        std::thread::sleep(Duration::from_millis(400));
        // Work that needs a worker is shed…
        let mut third = HttpClient::connect(addr).unwrap();
        assert_eq!(third.get("/models").unwrap().status, 503);
        // …while cached explains never leave the loop.
        for body in &bodies {
            let resp = client.post("/v2/explain", body).unwrap();
            assert_eq!(resp.status, 200, "{body}: {}", resp.body);
            assert!(cached_answer(&resp.body).0, "{body}");
        }
        assert_eq!(busy.recv().unwrap().status, 200);
        assert_eq!(queued.recv().unwrap().status, 200);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pipelined_hits_are_answered_in_order_without_recursion() {
        use std::io::{Read, Write};
        let (handle, dir) = start_tiny("loop_pipeline", ServerConfig::default());
        let body = format!(
            "{{\"model\":\"tiny\",\"query\":{}}}",
            tiny_query().to_json()
        );
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let cold = client.post("/v2/explain", &body).unwrap();
        let expected = result_of(&cold.body);
        // Thousands of hits in one burst, then a close: the loop serves
        // them back to back from the parser buffer.
        const N: usize = 3000;
        let one = format!(
            "POST /v2/explain HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let burst = one.repeat(N) + "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
        let sender = std::thread::spawn(move || writer.write_all(burst.as_bytes()).unwrap());
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        sender.join().unwrap();
        let text = String::from_utf8(raw).unwrap();
        assert_eq!(text.matches("HTTP/1.1 200").count(), N + 1);
        assert_eq!(text.matches("\"cached\":true").count(), N);
        let result = format!("\"result\":{expected}}}");
        assert_eq!(text.matches(&result).count(), N);
        assert!(
            text.ends_with("{\"ok\":true}"),
            "the close request is answered last"
        );
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sends one request with the fault-injection header on a fresh
    /// connection and returns the raw response text.
    fn send_faulty(addr: SocketAddr, method: &str, path: &str, body: &str, fault: &str) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nX-Inject-Panic: {fault}\r\n\
             Connection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        raw
    }

    #[test]
    fn handler_panics_cost_one_request_not_a_thread() {
        let (handle, dir) = start_tiny(
            "panics",
            ServerConfig {
                workers: 1,
                debug_endpoints: true,
                ..ServerConfig::default()
            },
        );
        let addr = handle.addr();
        let body = format!(
            "{{\"model\":\"tiny\",\"query\":{}}}",
            tiny_query().to_json()
        );
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.post("/v2/explain", &body).unwrap().status, 200);
        // More worker panics than there are workers: each is contained.
        for _ in 0..3 {
            let raw = send_faulty(addr, "GET", "/models", "", "worker");
            assert!(raw.starts_with("HTTP/1.1 500"), "{raw}");
        }
        // A panic on the loop-side explain path costs the loop nothing.
        let raw = send_faulty(addr, "POST", "/v2/explain", &body, "loop");
        assert!(raw.starts_with("HTTP/1.1 500"), "{raw}");
        // The one worker and the loop both still serve.
        assert_eq!(client.get("/models").unwrap().status, 200);
        let hit = client.post("/v2/explain", &body).unwrap();
        assert_eq!(hit.status, 200, "{}", hit.body);
        assert!(cached_flag(&hit.body));
        let text = scrape(&mut client);
        assert_eq!(metric(&text, "xinsight_worker_panics_total"), 4.0);
        assert_eq!(
            metric(&text, "xinsight_request_errors_total{class=\"server\"}"),
            4.0
        );
        assert_eq!(metric(&text, "xinsight_workers"), 1.0);
        assert!(
            handle.threads.iter().all(|thread| !thread.is_finished()),
            "no server thread died"
        );
        // Each panic is on the trace stream, named.
        let traces = client.get("/debug/traces").unwrap().body;
        assert_eq!(traces.matches("panic: injected fault: worker").count(), 3);
        assert_eq!(traces.matches("panic: injected fault: loop").count(), 1);
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_endpoint_is_graceful() {
        let (handle, dir) = start_tiny("shutdown", ServerConfig::default());
        let addr = handle.addr();
        let mut client = HttpClient::connect(addr).unwrap();
        let resp = client.post("/admin/shutdown", "{}").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.closing, "goodbye response announces the close");
        // The server exits on its own; wait() returns.
        handle.wait();
        // And the port stops accepting.
        std::thread::sleep(Duration::from_millis(50));
        assert!(HttpClient::connect(addr)
            .and_then(|mut c| c.get("/models"))
            .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_reload_bumps_generation_and_invalidates_cache() {
        let (handle, dir) = start_tiny("reload", ServerConfig::default());
        let mut client = HttpClient::connect(handle.addr()).unwrap();
        let body = format!(
            "{{\"model\":\"tiny\",\"query\":{}}}",
            tiny_query().to_json()
        );
        assert_eq!(client.post("/v2/explain", &body).unwrap().status, 200);
        // Cached now.
        let doc = Json::parse(&client.post("/v2/explain", &body).unwrap().body).unwrap();
        assert!(doc.get("cached").unwrap().as_bool().unwrap());
        // Reload: generation bumps, cache entries for the model are dropped.
        let resp = client
            .post("/admin/reload", "{\"model\":\"tiny\"}")
            .unwrap();
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("generation").unwrap().as_u64().unwrap(), 2);
        let doc = Json::parse(&client.post("/v2/explain", &body).unwrap().body).unwrap();
        assert!(
            !doc.get("cached").unwrap().as_bool().unwrap(),
            "reload must invalidate the model's cached results"
        );
        // Reloading a model with no bundle is a client error.
        let resp = client
            .post("/admin/reload", "{\"model\":\"ghost\"}")
            .unwrap();
        assert_eq!(resp.status, 400);
        let doc = Json::parse(&resp.body).unwrap();
        assert_eq!(doc.get("code").unwrap().as_str().unwrap(), "serve");
        assert!(doc
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("ghost"));
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
