//! Per-request lifecycle tracing: where one request spent its time.
//!
//! The serving stack has five distinct places a request can wait — event-
//! loop framing, the admission queue, result-cache tier resolution, engine
//! execution, and the staged socket write — and the aggregate `/metrics`
//! histogram cannot attribute a tail-latency regression to any of them.
//! This module records, per request, a **trace**: an ordered list of
//! monotonic [`Span`]s on one shared clock (the instant the request's
//! first byte arrived), assembled as the request moves through the stack:
//!
//! ```text
//!  first byte ──parse──▶ admitted ──queue_wait──▶ worker pop
//!      │                                             │
//!      │            cache_lookup (tier: hit, prefix, merge or miss)
//!      │            execute      (engine, provenance attribution)
//!      │            serialize    (wire bytes)
//!      │                                             │
//!      └──────── total ──▶ write (staged ──▶ flushed on the socket)
//! ```
//!
//! The event loop assigns the trace id at framing and records the parse
//! span; the worker records queue-wait and the handler-side spans; the
//! event loop closes the trace when the response's last byte is accepted
//! by the socket.  A single-query explain is decoded and looked up on the
//! event loop first: an exact hit, answered right there, records a
//! zero-length queue-wait, its cache-lookup and its serialize span on the
//! loop; a miss records its loop-side cache-lookup, then goes the worker
//! way (so its trace holds two cache-lookup spans).  Span starts are offsets from the trace epoch, so spans
//! are monotonic by construction and sequential spans never overlap; the
//! gaps between them (completion hand-off, poller wake-ups) are visible as
//! exactly that — gaps.
//!
//! Completed traces land in a [`TraceStore`]: a bounded ring buffer of the
//! most recent traces plus a separately-bounded **slow reservoir** that
//! retains any trace whose total meets the `--trace-slow-ms` threshold, so
//! a burst of fast requests cannot evict the one slow trace being
//! debugged.  `GET /debug/traces` (behind `--debug-endpoints`) serves both
//! as JSON.  Background work publishes into the same stream: the
//! compactor's rewrite/swap and the registry ingest path emit spans too.
//!
//! Everything here is allocation-light and lock-cheap: a trace is built
//! without synchronization (it is owned by whichever thread holds the
//! request) and published under one short mutex at completion.

use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use xinsight_core::json::Json;

/// Completed traces retained in the recent-trace ring buffer.
pub const RING_CAPACITY: usize = 256;

/// Slow traces retained in the reservoir regardless of ring churn.
pub const SLOW_CAPACITY: usize = 64;

/// Spans a request trace reserves room for: every stage once, plus the two
/// stages a request can record twice (`cache_lookup` for a miss looked up
/// on the event loop and resolved on a worker, `execute` for an ingest).
const SPANS_PER_TRACE: usize = Stage::ALL.len() + 2;

/// One stage of the request lifecycle.  The set is closed on purpose: each
/// stage has a per-stage latency histogram in `/metrics`, and a bounded
/// vocabulary is what makes cross-request aggregation meaningful.  Stage-
/// specific context (cache tier, provenance counts) goes in the span's
/// free-form detail instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// First byte of the request seen to request fully framed.
    Parse,
    /// Admitted onto the bounded queue to popped by a worker.
    QueueWait,
    /// Result-cache resolution: lookup and promotion attempt.
    CacheLookup,
    /// Handler execution — for explains, the engine search; for other
    /// endpoints, the whole handler body.
    Execute,
    /// Serializing the response body onto the wire format.
    Serialize,
    /// Response staged on the connection to last byte accepted by the
    /// socket.
    Write,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; 6] = [
        Stage::Parse,
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::Execute,
        Stage::Serialize,
        Stage::Write,
    ];

    /// The stable wire name (`/debug/traces` span tags and the `/metrics`
    /// `stage` label).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::Execute => "execute",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }

    /// The index of this stage in [`Stage::ALL`] (per-stage histogram
    /// arrays are indexed by it).
    pub fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::QueueWait => 1,
            Stage::CacheLookup => 2,
            Stage::Execute => 3,
            Stage::Serialize => 4,
            Stage::Write => 5,
        }
    }
}

/// One timed stage of a trace.  `start` is the offset from the trace
/// epoch (the request's first byte), so spans within a trace share one
/// clock and sequential spans are non-overlapping by construction.
///
/// `detail` is a `Cow` so the hot request path can tag spans with static
/// strings (`"hit"`, `"miss"`) without allocating; only
/// details that genuinely carry per-request numbers pay for a `String`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Which lifecycle stage this span timed.
    pub stage: Stage,
    /// From the trace epoch to the span start.
    pub start: Duration,
    /// Span length.
    pub duration: Duration,
    /// Stage-specific context: the cache tier for `cache_lookup`,
    /// provenance counts for `execute`, and so on.  Empty
    /// when the stage has nothing to add.
    pub detail: Cow<'static, str>,
}

/// One completed request (or background-work) lifecycle.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Process-unique trace id, assigned at framing.
    pub id: u64,
    /// What was traced: `"POST /v2/explain"` for requests, `"compact
    /// <model>"` for background compactions.  Borrowed for every known
    /// route (see [`endpoint_label`]) so framing a request does not
    /// allocate for it.
    pub endpoint: Cow<'static, str>,
    /// The response status (`0` while unset; background work uses `200`).
    pub status: u16,
    /// End to end, from the trace epoch to completion.
    pub total: Duration,
    /// The recorded spans, in the order they were recorded (which is
    /// lifecycle order — each stage records once, when it finishes).
    pub spans: Vec<Span>,
}

impl Trace {
    /// The `/debug/traces` JSON rendering of one trace, with every time
    /// in whole microseconds.
    pub fn to_json(&self) -> Json {
        let micros = |time: Duration| Json::Num(time.as_micros() as f64);
        let spans = self
            .spans
            .iter()
            .map(|span| {
                Json::Obj(vec![
                    ("stage".to_owned(), Json::Str(span.stage.name().to_owned())),
                    ("start_us".to_owned(), micros(span.start)),
                    ("duration_us".to_owned(), micros(span.duration)),
                    ("detail".to_owned(), Json::Str(span.detail.to_string())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("id".to_owned(), Json::Num(self.id as f64)),
            ("endpoint".to_owned(), Json::Str(self.endpoint.to_string())),
            ("status".to_owned(), Json::Num(self.status as f64)),
            ("total_us".to_owned(), micros(self.total)),
            ("spans".to_owned(), Json::Arr(spans)),
        ])
    }
}

/// An in-flight trace, carried through `Job`/`Completion` and finished by
/// the event loop once the response's last byte is on the socket.  Owned
/// by exactly one thread at a time, so recording a span is two
/// subtractions and a push — no synchronization.
#[derive(Debug)]
pub struct TraceBuilder {
    id: u64,
    /// The shared clock every span start is measured against.
    epoch: Instant,
    endpoint: Cow<'static, str>,
    status: u16,
    spans: Vec<Span>,
}

impl TraceBuilder {
    /// Starts a trace whose spans are measured from `epoch` (the request's
    /// first byte, or the start of a background task).
    pub fn begin(id: u64, epoch: Instant, endpoint: impl Into<Cow<'static, str>>) -> Self {
        TraceBuilder {
            id,
            epoch,
            endpoint: endpoint.into(),
            status: 0,
            // xlint: allow(no-alloc-hot-path, one bounded spans buffer per request sized at admission)
            spans: Vec::with_capacity(SPANS_PER_TRACE),
        }
    }

    /// Records one completed stage.  `start`/`end` are wall instants; both
    /// are clamped to the epoch so a span can never start before the trace
    /// does.
    pub fn span(
        &mut self,
        stage: Stage,
        start: Instant,
        end: Instant,
        detail: impl Into<Cow<'static, str>>,
    ) {
        let start = start.max(self.epoch);
        self.spans.push(Span {
            stage,
            start: start.saturating_duration_since(self.epoch),
            duration: end.saturating_duration_since(start),
            detail: detail.into(),
        });
    }

    /// How many spans have been recorded — the worker uses this to detect
    /// handlers without internal instrumentation and cover them with one
    /// whole-handler `execute` span.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Sets the response status the trace will report.
    pub fn set_status(&mut self, status: u16) {
        self.status = status;
    }

    /// Closes the trace at `end` and returns the immutable record.
    pub fn finish(self, end: Instant) -> Trace {
        Trace {
            id: self.id,
            endpoint: self.endpoint,
            status: self.status,
            total: end.saturating_duration_since(self.epoch),
            spans: self.spans,
        }
    }
}

/// The trace endpoint label for a framed request.  Every route the server
/// serves maps to a static string so framing does not allocate on the hot
/// path; unknown paths (which will 404 anyway) fall back to an owned
/// `"METHOD path"`.
pub fn endpoint_label(method: &str, path: &str) -> Cow<'static, str> {
    // Routing ignores the query string (`/v2/graph?model=m` is the
    // `/v2/graph` endpoint), so the label must too — otherwise every query
    // combination would mint its own label and allocate.
    let path = path.split_once('?').map_or(path, |(p, _)| p);
    // xlint-endpoints: begin(trace-labels)
    Cow::Borrowed(match (method, path) {
        ("GET", "/healthz") => "GET /healthz",
        ("POST", "/v2/explain") => "POST /v2/explain",
        ("POST", "/v2/explain_batch") => "POST /v2/explain_batch",
        ("POST", "/v2/ingest") => "POST /v2/ingest",
        ("GET", "/v2/graph") => "GET /v2/graph",
        ("GET", "/models") => "GET /models",
        ("GET", "/metrics") => "GET /metrics",
        ("POST", "/admin/reload") => "POST /admin/reload",
        ("POST", "/admin/shutdown") => "POST /admin/shutdown",
        ("POST", "/debug/sleep") => "POST /debug/sleep",
        ("GET", "/debug/traces") => "GET /debug/traces",
        // xlint: allow(no-alloc-hot-path, unknown routes 404 anyway — this arm is off the served path)
        _ => return Cow::Owned(format!("{method} {path}")),
    })
    // xlint-endpoints: end(trace-labels)
}

#[derive(Debug, Default)]
struct StoreState {
    ring: VecDeque<Trace>,
    slow: VecDeque<Trace>,
}

/// The bounded store of completed traces behind `GET /debug/traces`.
///
/// Two views: a ring buffer of the most recent [`RING_CAPACITY`]
/// completions (whatever their latency), and a **slow reservoir** holding
/// the most recent [`SLOW_CAPACITY`] traces whose total met the slow
/// threshold — so the interesting trace survives even when a flood of
/// fast requests churns the ring.  Publication moves the trace into the
/// ring under one short mutex (slow traces are additionally cloned into
/// the reservoir — rare by definition); id assignment is a relaxed
/// atomic.  The evicted trace is dropped after the lock is released so
/// its frees never extend the critical section.
#[derive(Debug)]
pub struct TraceStore {
    next_id: AtomicU64,
    recorded: AtomicU64,
    slow_threshold: Duration,
    state: Mutex<StoreState>,
}

impl TraceStore {
    /// A store whose slow reservoir retains traces at least
    /// `slow_threshold` long end to end.
    pub fn new(slow_threshold: Duration) -> Self {
        TraceStore {
            next_id: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            slow_threshold,
            state: Mutex::new(StoreState::default()),
        }
    }

    /// Total traces ever published (ring evictions included).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed) // relaxed: monotonic stats counter
    }

    /// Allocates the next trace id (process-unique, starting at 1).
    pub fn next_id(&self) -> u64 {
        // relaxed: uniqueness only needs atomicity, not ordering.
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Publishes a completed trace into the ring (and, when its total
    /// meets the threshold, the slow reservoir), evicting the oldest
    /// entries past each bound.
    pub fn publish(&self, trace: Trace) {
        let slow = trace.total >= self.slow_threshold;
        self.recorded.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic stats counter
        let mut state = self.state.lock();
        if slow {
            // xlint: allow(no-alloc-hot-path, slow traces are rare by definition — the clone keeps the ring move-only)
            state.slow.push_back(trace.clone());
            while state.slow.len() > SLOW_CAPACITY {
                state.slow.pop_front();
            }
        }
        let evicted = if state.ring.len() >= RING_CAPACITY {
            state.ring.pop_front()
        } else {
            None
        };
        state.ring.push_back(trace);
        drop(state);
        drop(evicted);
    }

    /// The `GET /debug/traces` document: configuration, totals, and both
    /// views (oldest first).
    pub fn to_json(&self) -> Json {
        let state = self.state.lock();
        let render =
            |traces: &VecDeque<Trace>| Json::Arr(traces.iter().map(|t| t.to_json()).collect());
        Json::Obj(vec![
            (
                "slow_threshold_ms".to_owned(),
                Json::Num(self.slow_threshold.as_millis() as f64),
            ),
            ("ring_capacity".to_owned(), Json::Num(RING_CAPACITY as f64)),
            ("slow_capacity".to_owned(), Json::Num(SLOW_CAPACITY as f64)),
            ("recorded".to_owned(), Json::Num(self.recorded() as f64)),
            ("recent".to_owned(), render(&state.ring)),
            ("slow".to_owned(), render(&state.slow)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_of(store: &TraceStore, total: Duration, endpoint: &str) -> Trace {
        let epoch = Instant::now();
        let mut tb = TraceBuilder::begin(store.next_id(), epoch, endpoint.to_owned());
        tb.set_status(200);
        tb.span(Stage::Execute, epoch, epoch + total, "work");
        tb.finish(epoch + total)
    }

    #[test]
    fn spans_share_the_epoch_clock_and_never_precede_it() {
        let epoch = Instant::now();
        let mut tb = TraceBuilder::begin(7, epoch, "POST /x".to_owned());
        // A start before the epoch clamps to offset 0 instead of wrapping.
        tb.span(
            Stage::Parse,
            epoch.checked_sub(Duration::from_secs(1)).unwrap_or(epoch),
            epoch + Duration::from_micros(10),
            "",
        );
        tb.span(
            Stage::QueueWait,
            epoch + Duration::from_micros(10),
            epoch + Duration::from_micros(30),
            "",
        );
        let trace = tb.finish(epoch + Duration::from_micros(40));
        assert_eq!(trace.id, 7);
        assert_eq!(trace.spans[0].start, Duration::ZERO);
        assert_eq!(trace.spans[1].start, Duration::from_micros(10));
        assert_eq!(trace.spans[1].duration, Duration::from_micros(20));
        assert!(trace.total >= Duration::from_micros(40));
        // Sequential spans are non-overlapping and the sum fits the total.
        let sum: Duration = trace.spans.iter().map(|s| s.duration).sum();
        assert!(sum <= trace.total);
        // The JSON view is parseable and carries every span.
        let doc = Json::parse(&trace.to_json().to_string()).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn ring_is_bounded_and_slow_traces_survive_eviction() {
        let store = TraceStore::new(Duration::from_millis(5));
        store.publish(trace_of(&store, Duration::from_millis(50), "POST /slow"));
        for _ in 0..(RING_CAPACITY + 10) {
            store.publish(trace_of(&store, Duration::from_micros(10), "GET /fast"));
        }
        let doc = store.to_json();
        let recent = doc.get("recent").unwrap().as_arr().unwrap().len();
        assert_eq!(recent, RING_CAPACITY, "ring must stay bounded");
        // The slow trace was evicted from the ring long ago but the
        // reservoir still has it.
        let slow = doc.get("slow").unwrap().as_arr().unwrap();
        assert_eq!(slow.len(), 1);
        assert_eq!(
            slow[0].get("endpoint").unwrap().as_str().unwrap(),
            "POST /slow"
        );
        assert_eq!(
            doc.get("recorded").unwrap().as_u64().unwrap(),
            (RING_CAPACITY + 11) as u64
        );
    }

    #[test]
    fn slow_reservoir_is_bounded_too() {
        let store = TraceStore::new(Duration::from_micros(1));
        for _ in 0..(SLOW_CAPACITY + 5) {
            store.publish(trace_of(&store, Duration::from_millis(1), "POST /x"));
        }
        let doc = store.to_json();
        assert_eq!(
            doc.get("slow").unwrap().as_arr().unwrap().len(),
            SLOW_CAPACITY
        );
    }

    #[test]
    fn stage_names_and_indexes_are_stable() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "parse",
                "queue_wait",
                "cache_lookup",
                "execute",
                "serialize",
                "write"
            ]
        );
    }
}
