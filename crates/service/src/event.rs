//! The readiness-driven event loop: one thread that owns every socket.
//!
//! ## Why an event loop
//!
//! The previous transport was thread-per-request-in-a-pool: a worker thread
//! *was* a connection slot, so live connections were capped at the pool
//! size and idle keep-alives had to be shed to avoid starving admitted
//! work.  Here the transport inverts: **all** socket I/O happens on one
//! event-loop thread over non-blocking sockets and a [`polling::Poller`]
//! (epoll(7) on Linux, poll(2) fallback), so thousands of idle keep-alive
//! connections park in the kernel at zero thread cost, and the worker pool
//! only ever sees fully-parsed requests.
//!
//! ## Per-connection state machine
//!
//! ```text
//!  accept ──▶ Reading ──complete request──▶ Dispatched ──completion──▶ Writing
//!               ▲  │ │                      (job queue,                ▲ │
//!               │  │ └─ exact hit, answered on the loop ───────────────┘ │
//!               │  └─ partial + deadline ──▶ 408 + close)  flushed ──────┤
//!               │                                                        │
//!               └──────────────── keep-alive (idle, parked in kernel) ◀──┘
//! ```
//!
//! * **Reading** — readable events append bytes to the connection's
//!   [`RequestParser`].  A framed request is first offered to
//!   [`crate::server::serve_on_loop`]: a single-query explain that is an
//!   exact result-cache hit (or fails to decode) is answered right here
//!   and goes straight to Writing, with no worker involved.  Anything
//!   else is dispatched onto the bounded job queue (`503` + close when the
//!   queue is full: backpressure is per-*request*, and only for work that
//!   needs a worker).
//! * **Dispatched** — the connection is disarmed (no readiness interest)
//!   while its request runs on a worker; the worker pushes a completion
//!   and wakes the loop via [`polling::Poller::notify`].
//! * **Writing** — the encoded response is staged on the connection and
//!   drained as the socket reports writability (one optimistic write
//!   first, so the common case costs no extra poll round trip).
//!
//! Registrations are oneshot: after every event the loop re-arms exactly
//! the interest the state machine wants next.  Poller keys pack
//! `(generation << 32) | slot` so a late event or completion for a closed,
//! reused slot is recognized as stale and dropped.
//!
//! Timers are a sweep: every [`TICK`] the loop reaps partial requests past
//! the slow-loris deadline (`408`), parks/reaps idle connections past the
//! idle timeout, and refreshes the `parked_idle` gauge.
//!
//! **Shutdown drain**: when the flag flips, the listener closes, idle
//! connections are reaped, freshly parsed requests get `503` + close, and
//! the loop exits once every in-flight request has been answered and every
//! staged response flushed (or [`SHUTDOWN_DRAIN_GRACE`] expires).

use crate::http::{self, RequestParser, Response};
use crate::server::{Completion, Job, OnLoop, Shared};
use crate::trace::{Stage, TraceBuilder};
use polling::{Event, Events};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poller key reserved for the listener.  `usize::MAX` itself is the
/// poller's internal notify key; connection keys pack `(gen, slot)` and
/// can never reach either value (that would need slot `u32::MAX`).
const LISTENER_KEY: usize = usize::MAX - 1;

/// Sweep cadence: the upper bound on how stale the timeout checks and the
/// `parked_idle` gauge can be.  Also the poller wait timeout, so a fully
/// idle server wakes ~20×/s to re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(50);

/// After shutdown begins, in-flight requests and staged writes get this
/// long to drain before remaining connections are force-closed.
const SHUTDOWN_DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Per-event read chunk; a request larger than this simply takes several
/// readable events to arrive.
const READ_CHUNK: usize = 16 * 1024;

/// A readable event stops reading once the connection buffers more than
/// this: the largest request the parser accepts, so a fast peer cannot
/// make the loop buffer without limit before anything is framed.
const READ_BOUND: usize = http::MAX_HEAD_BYTES + http::MAX_BODY_BYTES;

fn key_of(slot: usize, gen: u32) -> usize {
    (((gen as u64) << 32) | slot as u64) as usize
}

fn slot_of(key: usize) -> usize {
    (key as u64 & 0xffff_ffff) as usize
}

/// The trace of a completed request riding back through the event loop:
/// the worker's spans plus the write stage the loop itself is about to
/// time (staged → last byte handed to the kernel).
struct PendingWrite {
    trace: TraceBuilder,
    staged_at: Instant,
}

/// One connection's state, owned entirely by the event loop.
struct Conn {
    stream: TcpStream,
    gen: u32,
    parser: RequestParser,
    write_buf: Vec<u8>,
    written: usize,
    /// A request from this connection is queued or running on a worker.
    inflight: bool,
    close_after_write: bool,
    peer_closed: bool,
    /// When the first byte of a not-yet-complete request arrived.
    partial_since: Option<Instant>,
    idle_since: Instant,
    /// When the first byte of the *next* request arrived — the trace
    /// epoch, so the parse span covers the whole read-and-frame window.
    first_byte: Option<Instant>,
    /// The trace of the staged response, finalized when it flushes.
    pending: Option<PendingWrite>,
}

impl Conn {
    fn new(stream: TcpStream, gen: u32) -> Conn {
        Conn {
            stream,
            gen,
            parser: RequestParser::new(),
            write_buf: Vec::new(),
            written: 0,
            inflight: false,
            close_after_write: false,
            peer_closed: false,
            partial_since: None,
            idle_since: Instant::now(),
            first_byte: None,
            pending: None,
        }
    }
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    /// Slot generations, bumped on reuse; live on after a slot is freed so
    /// stale poller events and completions never alias a new connection.
    gens: Vec<u32>,
    free: Vec<usize>,
    open: usize,
    /// Jobs dispatched and not yet completed (counts jobs whose connection
    /// has since died too — their completions still come back).
    inflight_jobs: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
}

/// The event-loop thread body.  Exits once shutdown has drained.
pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) {
    let mut lp = EventLoop {
        shared,
        listener: Some(listener),
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        open: 0,
        inflight_jobs: 0,
        draining: false,
        drain_deadline: None,
    };
    if let Some(listener) = &lp.listener {
        if lp
            .shared
            .poller
            .add(listener, Event::readable(LISTENER_KEY))
            .is_err()
        {
            lp.shared.begin_shutdown();
            return;
        }
    }
    lp.run();
}

/// The connection in `slot`, if the slot exists and is occupied.  All slot
/// access goes through this (and [`conn_mut`]) — the event loop must never
/// index-panic on a stale slot delivered by a late event.  Free functions
/// rather than methods so the borrow stays on the `conns` slab alone and
/// callers keep `shared`/`free`/`poller` usable while the guard lives.
fn conn_ref(conns: &[Option<Conn>], slot: usize) -> Option<&Conn> {
    conns.get(slot).and_then(Option::as_ref)
}

fn conn_mut(conns: &mut [Option<Conn>], slot: usize) -> Option<&mut Conn> {
    conns.get_mut(slot).and_then(Option::as_mut)
}

/// Reads what `stream` has ready into `parser`, one chunk at a time, until
/// the socket would block, the peer closes (`Ok(true)`), or more than
/// [`READ_BOUND`] bytes are buffered.  The bound keeps one readable event
/// at one largest legal request plus a chunk: framing then consumes or
/// rejects it, and the level-triggered re-arm delivers whatever the peer
/// sent beyond it.  Every event reads at least once, so a request that
/// straddles the bound still completes.  Stamps `first_byte` on the first
/// byte read.
fn read_ready(
    stream: &mut impl Read,
    parser: &mut RequestParser,
    first_byte: &mut Option<Instant>,
) -> std::io::Result<bool> {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Ok(true),
            Ok(n) => {
                first_byte.get_or_insert_with(Instant::now);
                // `read` never returns more than the buffer holds, but the
                // event loop does not index on an io contract.
                if let Some(chunk) = buf.get(..n) {
                    parser.feed(chunk);
                }
                if parser.buffered() > READ_BOUND {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Events::new();
        let mut last_sweep = Instant::now();
        loop {
            let wait_started = Instant::now();
            let _ = self.shared.poller.wait(&mut events, Some(TICK));
            self.shared
                .stats
                .loop_last_poll_wait_ns
                // relaxed: single-writer gauge sampled by /metrics; a stale
                // read costs nothing and no other state hangs off it.
                .store(wait_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.enter_drain();
            }
            let ready: Vec<Event> = events.iter().collect();
            for ev in ready {
                if ev.key == LISTENER_KEY {
                    self.handle_accept();
                    continue;
                }
                let slot = slot_of(ev.key);
                let stale = self
                    .conns
                    .get(slot)
                    .and_then(|c| c.as_ref())
                    .is_none_or(|c| key_of(slot, c.gen) != ev.key);
                if stale {
                    continue;
                }
                if ev.writable {
                    self.flush(slot);
                }
                if ev.readable {
                    self.handle_readable(slot);
                }
                self.settle(slot);
            }
            self.drain_completions();
            if last_sweep.elapsed() >= TICK {
                self.sweep();
                last_sweep = Instant::now();
            }
            if self.draining && self.drained() {
                break;
            }
        }
        for slot in 0..self.conns.len() {
            self.close(slot, false);
        }
    }

    /// Whether shutdown can finish: no request is on a worker and no
    /// response is still making its way onto the wire.
    fn drained(&self) -> bool {
        if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
            return true;
        }
        self.inflight_jobs == 0
            && self
                .conns
                .iter()
                .flatten()
                .all(|c| c.write_buf.is_empty() && !c.inflight)
    }

    fn enter_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + SHUTDOWN_DRAIN_GRACE);
        if let Some(listener) = self.listener.take() {
            let _ = self.shared.poller.delete(&listener);
        }
        // Reap everything idle right away; busy connections finish their
        // request (the response carries `Connection: close`).
        for slot in 0..self.conns.len() {
            let idle =
                conn_ref(&self.conns, slot).is_some_and(|c| !c.inflight && c.write_buf.is_empty());
            if idle {
                self.close(slot, false);
            }
        }
    }

    fn handle_accept(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.shared
                        .stats
                        .conn_accepted
                        // relaxed: monotonic stats counter; readers only
                        // ever see it lag, never go backwards.
                        .fetch_add(1, Ordering::Relaxed);
                    if self.open >= self.shared.max_connections {
                        // relaxed: both are monotonic shed counters for
                        // /metrics; no ordering edge with connection state.
                        self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        self.shared.stats.conn_shed.fetch_add(1, Ordering::Relaxed);
                        // Accepted sockets don't inherit non-blocking; the
                        // send buffer is empty, so this cannot stall.
                        let mut stream = stream;
                        let goodbye = Response::error(503, "connection limit reached, retry later");
                        let _ = stream.write_all(&http::encode_response(&goodbye, true));
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let (slot, gen) = match self.free.pop() {
                        Some(slot) => match self.gens.get_mut(slot) {
                            Some(gen) => {
                                *gen = gen.wrapping_add(1);
                                (slot, *gen)
                            }
                            // A free-list entry past the slab would be a
                            // bookkeeping bug; drop the socket, don't panic.
                            None => continue,
                        },
                        None => {
                            self.conns.push(None);
                            self.gens.push(0);
                            (self.conns.len() - 1, 0)
                        }
                    };
                    let conn = Conn::new(stream, gen);
                    if self
                        .shared
                        .poller
                        .add(&conn.stream, Event::readable(key_of(slot, gen)))
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    match self.conns.get_mut(slot) {
                        Some(entry) => *entry = Some(conn),
                        None => {
                            // `free` and `conns` disagree — unreachable, but
                            // undo the poller registration instead of
                            // panicking the accept path.
                            let _ = self.shared.poller.delete(&conn.stream);
                            self.free.push(slot);
                            continue;
                        }
                    }
                    self.open += 1;
                    self.shared
                        .stats
                        .conn_active
                        // relaxed: live-connection gauge for /metrics only.
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept error (ECONNABORTED, fd pressure…):
                // drop it and keep serving.
                Err(_) => break,
            }
        }
        if let Some(listener) = &self.listener {
            if self
                .shared
                .poller
                .modify(listener, Event::readable(LISTENER_KEY))
                .is_err()
            {
                // Cannot re-arm accepts: nothing new will ever arrive.
                self.shared.begin_shutdown();
            }
        }
    }

    fn handle_readable(&mut self, slot: usize) {
        let Some(conn) = conn_mut(&mut self.conns, slot) else {
            return;
        };
        match read_ready(&mut conn.stream, &mut conn.parser, &mut conn.first_byte) {
            Ok(closed) => conn.peer_closed |= closed,
            Err(_) => {
                self.close(slot, false);
                return;
            }
        }
        self.advance(slot);
        let Some(conn) = conn_mut(&mut self.conns, slot) else {
            return;
        };
        if conn.peer_closed {
            if conn.inflight || !conn.write_buf.is_empty() {
                // Half-close: the peer stopped sending but may still read
                // the response; finish it, then close.
                conn.close_after_write = true;
            } else {
                self.close(slot, false);
            }
        }
    }

    /// Frames and serves the connection's buffered requests in order, one
    /// in flight at a time (a pipelined follow-up waits until the previous
    /// response has flushed).  A request the loop answers itself is written
    /// at once and the next buffered request framed; the first one that
    /// needs a worker is admitted onto the job queue and ends the pass.  A
    /// loop rather than recursion through [`EventLoop::flush`], so a long
    /// pipelined burst of hits cannot grow the stack.
    fn advance(&mut self, slot: usize) {
        loop {
            let Some(conn) = conn_mut(&mut self.conns, slot) else {
                return;
            };
            if conn.inflight || !conn.write_buf.is_empty() {
                return;
            }
            let request = match conn.parser.try_parse() {
                Ok(Some(request)) => request,
                Ok(None) => {
                    if conn.parser.is_empty() {
                        conn.partial_since = None;
                    } else if conn.partial_since.is_none() {
                        conn.partial_since = Some(Instant::now());
                    }
                    return;
                }
                Err(e) => {
                    self.shared
                        .stats
                        .client_errors
                        // relaxed: monotonic error counter for /metrics.
                        .fetch_add(1, Ordering::Relaxed);
                    let response = match e {
                        http::HttpError::Malformed(message) => Response::error(400, &message),
                        // Static messages: the framing path stays
                        // allocation-free even when rejecting oversized
                        // requests.
                        http::HttpError::TooLarge("request body") => {
                            Response::error(413, "request body too large")
                        }
                        http::HttpError::TooLarge(_) => {
                            Response::error(431, "request head too large")
                        }
                    };
                    self.stage_close(slot, &response);
                    return;
                }
            };
            conn.partial_since = None;
            let framed = Instant::now();
            // The epoch is the first byte's arrival; a fully buffered
            // pipelined follow-up frames instantly, so `now` is right.
            let epoch = conn.first_byte.take().unwrap_or(framed);
            conn.close_after_write |= request.wants_close();
            if self.draining {
                self.stage_close(slot, &Response::error(503, "server is shutting down"));
                return;
            }
            let gen = conn.gen;
            let mut trace = TraceBuilder::begin(
                self.shared.traces.next_id(),
                epoch,
                crate::trace::endpoint_label(&request.method, &request.path),
            );
            trace.span(Stage::Parse, epoch, framed, "");
            // Takes `registry-models` (read) and then `lru-state`, one
            // after the other and never while holding `jobs`.
            let explain =
                match crate::server::serve_on_loop(&self.shared, &request, framed, &mut trace) {
                    OnLoop::Answered(response) => {
                        // Staged before the write: an optimistic write that
                        // drains the whole response finalizes the trace.
                        conn.pending = Some(PendingWrite {
                            trace,
                            staged_at: Instant::now(),
                        });
                        self.encode(slot, &response);
                        if self.write_out(slot) {
                            continue;
                        }
                        return;
                    }
                    OnLoop::Queue(explain) => explain,
                };
            // A worker that panicked mid-queue poisons the mutex; the
            // queue itself is still coherent, so keep serving.
            let mut jobs = self
                .shared
                .jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if jobs.len() >= self.shared.queue_capacity {
                drop(jobs);
                // relaxed: monotonic shed counters for /metrics; no
                // ordering edge with the admission decision itself.
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                self.shared.stats.conn_shed.fetch_add(1, Ordering::Relaxed);
                self.stage_close(
                    slot,
                    &Response::error(503, "admission queue is full, retry later"),
                );
                return;
            }
            jobs.push_back(Job {
                slot,
                gen,
                request,
                admitted: Instant::now(),
                trace,
                explain,
            });
            drop(jobs);
            self.inflight_jobs += 1;
            conn.inflight = true;
            self.shared.available.notify_one();
            return;
        }
    }

    /// Stages a response that terminates the connection after it flushes.
    fn stage_close(&mut self, slot: usize, response: &Response) {
        if let Some(conn) = conn_mut(&mut self.conns, slot) {
            conn.close_after_write = true;
        }
        self.stage(slot, response);
    }

    /// Encodes `response` onto the connection's write buffer and drains
    /// what the socket will take immediately.
    fn stage(&mut self, slot: usize, response: &Response) {
        self.encode(slot, response);
        self.flush(slot);
    }

    /// Encodes `response` onto the connection's write buffer, asking for a
    /// close when the connection or the server is going away.
    fn encode(&mut self, slot: usize, response: &Response) {
        let shutting = self.draining || self.shared.shutdown.load(Ordering::SeqCst);
        let Some(conn) = conn_mut(&mut self.conns, slot) else {
            return;
        };
        let close = conn.close_after_write || shutting;
        conn.close_after_write = close;
        conn.write_buf = http::encode_response(response, close);
        conn.written = 0;
    }

    /// Writes what the socket accepts of the staged response and, once the
    /// whole response is out, frames any pipelined follow-up already
    /// buffered.
    fn flush(&mut self, slot: usize) {
        if self.write_out(slot) {
            self.advance(slot);
        }
    }

    /// Writes as much of the staged response as the socket accepts; on
    /// completion either closes or returns the connection to keep-alive.
    /// Returns whether the response is fully written and the connection
    /// open and ready to frame its next request.
    fn write_out(&mut self, slot: usize) -> bool {
        let Some(conn) = conn_mut(&mut self.conns, slot) else {
            return false;
        };
        // `written` only ever advances by what `write` reported, so the
        // range stays in bounds; `.get` keeps that a local fact rather
        // than a panic site.
        while let Some(remaining) = conn.write_buf.get(conn.written..) {
            if remaining.is_empty() {
                break;
            }
            match conn.stream.write(remaining) {
                Ok(0) => {
                    self.close(slot, false);
                    return false;
                }
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot, false);
                    return false;
                }
            }
        }
        if conn.write_buf.is_empty() {
            return false; // nothing was staged
        }
        conn.write_buf.clear();
        conn.written = 0;
        if let Some(pending) = conn.pending.take() {
            // The last response byte was handed to the kernel: the write
            // span closes and the finished trace is recorded (per-stage
            // histograms) and published (ring + slow reservoir).
            let now = Instant::now();
            let mut trace = pending.trace;
            trace.span(Stage::Write, pending.staged_at, now, "");
            let trace = trace.finish(now);
            self.shared.stats.record_trace(&trace);
            self.shared.traces.publish(trace);
        }
        if conn.close_after_write || conn.peer_closed {
            self.close(slot, false);
            return false;
        }
        conn.idle_since = Instant::now();
        true
    }

    /// Re-arms the oneshot readiness interest the connection's state wants
    /// next: writable while a response is staged, nothing while a request
    /// is on a worker, readable otherwise.
    fn settle(&mut self, slot: usize) {
        let Some(conn) = conn_ref(&self.conns, slot) else {
            return;
        };
        let key = key_of(slot, conn.gen);
        let interest = if !conn.write_buf.is_empty() {
            Event::writable(key)
        } else if conn.inflight {
            Event::none(key)
        } else {
            Event::readable(key)
        };
        if self.shared.poller.modify(&conn.stream, interest).is_err() {
            self.close(slot, false);
        }
    }

    /// Delivers worker completions: stage each response on its (still
    /// live, same-generation) connection and trigger any requested
    /// shutdown once the goodbye bytes are staged.
    fn drain_completions(&mut self) {
        // A poisoned completions mutex means a worker panicked after
        // pushing; the vector is still well-formed, so deliver what's there.
        let completed: Vec<Completion> = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for completion in completed {
            self.inflight_jobs = self.inflight_jobs.saturating_sub(1);
            let live = self
                .conns
                .get_mut(completion.slot)
                .and_then(|c| c.as_mut())
                .filter(|c| c.gen == completion.gen);
            match live {
                Some(conn) => {
                    conn.inflight = false;
                    if completion.shutdown_after {
                        conn.close_after_write = true;
                    }
                    // Staged before `stage()`: the optimistic write inside
                    // it may drain the whole response synchronously, and
                    // `flush` finalizes the trace from this slot.
                    conn.pending = Some(PendingWrite {
                        trace: completion.trace,
                        staged_at: Instant::now(),
                    });
                    self.stage(completion.slot, &completion.response);
                    if completion.shutdown_after {
                        self.shared.begin_shutdown();
                    }
                    self.settle(completion.slot);
                }
                None => {
                    // The connection died while its request ran; the
                    // response has nowhere to go, but a shutdown request
                    // must still take effect.  The trace is still worth
                    // keeping (the work happened) — it just never gets a
                    // write span.
                    let now = Instant::now();
                    let mut trace = completion.trace;
                    trace.span(Stage::Write, now, now, "connection closed");
                    self.shared.traces.publish(trace.finish(now));
                    if completion.shutdown_after {
                        self.shared.begin_shutdown();
                    }
                }
            }
        }
    }

    /// The periodic timer pass: slow-loris deadlines, idle reaping, and
    /// the parked-idle gauge.
    fn sweep(&mut self) {
        let now = Instant::now();
        let mut parked = 0u64;
        self.shared
            .stats
            .loop_slots_occupied
            // relaxed: single-writer gauge sampled by /metrics.
            .store(self.open as u64, Ordering::Relaxed);
        for slot in 0..self.conns.len() {
            let Some(conn) = conn_ref(&self.conns, slot) else {
                continue;
            };
            if conn.inflight || !conn.write_buf.is_empty() {
                continue;
            }
            if let Some(since) = conn.partial_since {
                // A partial request stalled past the deadline: slow-loris.
                if now.duration_since(since) >= self.shared.request_deadline {
                    self.shared
                        .stats
                        .read_timeouts
                        // relaxed: monotonic stats counter.
                        .fetch_add(1, Ordering::Relaxed);
                    self.stage_close(slot, &Response::error(408, "request timed out"));
                    self.settle(slot);
                }
                continue;
            }
            if now.duration_since(conn.idle_since) >= self.shared.idle_timeout {
                self.close(slot, true);
                continue;
            }
            parked += 1;
        }
        self.shared
            .stats
            .conn_parked_idle
            // relaxed: single-writer gauge sampled by /metrics.
            .store(parked, Ordering::Relaxed);
        self.shared
            .stats
            .loop_last_tick_ns
            // relaxed: single-writer gauge sampled by /metrics.
            .store(now.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // relaxed: monotonic tick counter; liveness probes tolerate lag.
        self.shared.stats.loop_ticks.fetch_add(1, Ordering::Relaxed);
    }

    fn close(&mut self, slot: usize, shed: bool) {
        let Some(mut conn) = self.conns.get_mut(slot).and_then(Option::take) else {
            return;
        };
        if let Some(pending) = conn.pending.take() {
            // The response never fully flushed; keep the trace anyway so
            // aborted requests are visible in /debug/traces.
            let now = Instant::now();
            let mut trace = pending.trace;
            trace.span(Stage::Write, pending.staged_at, now, "connection closed");
            self.shared.traces.publish(trace.finish(now));
        }
        let _ = self.shared.poller.delete(&conn.stream);
        self.free.push(slot);
        self.open -= 1;
        self.shared
            .stats
            .conn_active
            // relaxed: live-connection gauge for /metrics only.
            .fetch_sub(1, Ordering::Relaxed);
        if shed {
            // relaxed: monotonic shed counter for /metrics.
            self.shared.stats.conn_shed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use crate::server::{start, ServerConfig};
    use xinsight_core::pipeline::XInsightOptions;

    /// A head announcing `length` body bytes, followed by `burst` bytes.
    fn burst(length: usize, burst: usize) -> Vec<u8> {
        let mut bytes =
            format!("POST /v2/explain HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes();
        bytes.resize(bytes.len() + burst, b'x');
        bytes
    }

    #[test]
    fn a_burst_past_the_body_bound_gets_413_with_bounded_buffering() {
        let big = 4 * http::MAX_BODY_BYTES;
        // One readable event over a peer that never blocks stops at the
        // bound, and what it buffered frames as a 413.
        let mut parser = RequestParser::new();
        let mut first_byte = None;
        let mut peer = std::io::Cursor::new(burst(big, big));
        let closed = read_ready(&mut peer, &mut parser, &mut first_byte).unwrap();
        assert!(!closed && first_byte.is_some());
        let buffered = parser.buffered();
        assert!(
            buffered > READ_BOUND && buffered <= READ_BOUND + READ_CHUNK,
            "{buffered}"
        );
        assert!(matches!(
            parser.try_parse(),
            Err(http::HttpError::TooLarge("request body"))
        ));
        // A largest legal request (head at its bound, body at its bound)
        // straddles the read bound and still completes: the next event
        // reads on.
        let mut head = b"POST /v2/explain HTTP/1.1\r\nX-Pad: ".to_vec();
        let length = format!("\r\nContent-Length: {}\r\n\r\n", http::MAX_BODY_BYTES);
        head.resize(http::MAX_HEAD_BYTES + 2 - length.len(), b'a');
        head.extend_from_slice(length.as_bytes());
        head.resize(head.len() + http::MAX_BODY_BYTES, b'x');
        let mut peer = head.as_slice();
        let mut parser = RequestParser::new();
        let mut events = 0;
        while !read_ready(&mut peer, &mut parser, &mut None).unwrap() {
            events += 1;
        }
        assert!(events >= 1, "the request straddles the bound");
        assert!(matches!(parser.try_parse(), Ok(Some(r)) if r.body.len() == http::MAX_BODY_BYTES));

        // End to end: the server answers the burst with a 413.
        let dir = std::env::temp_dir().join(format!("xinsight_event_{}", std::process::id()));
        let registry = ModelRegistry::open_empty(&dir, XInsightOptions::default());
        let handle = start(Arc::new(registry), &ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // The server answers and closes before reading it all, so the
        // write may fail part-way.
        let sender = std::thread::spawn(move || {
            let _ = writer.write_all(&burst(big, big));
        });
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        sender.join().unwrap();
        let response = String::from_utf8_lossy(&response);
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
