//! Server-side observability: request counters and latency histograms.
//!
//! Everything is lock-free (relaxed atomics): the serving hot path only
//! ever increments counters, and `/metrics` reads a point-in-time snapshot
//! without contending with workers (see [`crate::metrics`]).  Latencies
//! stay [`Duration`]s until printed.  A [`LatencyHistogram`] stores
//! exactly the buckets `/metrics` publishes, [`LE_LADDER_NS`] plus `+Inf`,
//! and its `_sum` in nanoseconds.  The xbench benchmark reports *exact*
//! percentiles from its own recorded samples; the histogram is for the
//! live endpoint.

use crate::trace::{Stage, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The histogram bucket bounds `/metrics` publishes as `le`, in
/// nanoseconds: 1 µs to 10 s.  Samples above the last bound count only
/// towards `+Inf`.
#[rustfmt::skip]
pub const LE_LADDER_NS: [u64; 22] = [
    1_000, 2_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000, 100_000_000,
    250_000_000, 500_000_000, 1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000,
];

/// A fixed-bucket, lock-free latency histogram over [`LE_LADDER_NS`].
#[derive(Debug)]
pub struct LatencyHistogram {
    /// Samples per ladder bucket (`bound[i - 1] < ns <= bound[i]`); the
    /// last cell holds the samples above 10 s.
    buckets: [AtomicU64; LE_LADDER_NS.len() + 1],
    /// The exact sum in nanoseconds, which `/metrics` publishes as `_sum`.
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = LE_LADDER_NS.partition_point(|&bound| bound < ns);
        // relaxed: each cell is an independent monotonic counter; readers
        // snapshot without a lock and tolerate torn cross-cell views.
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed); // relaxed: see above
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // relaxed: advisory histogram read; cells may skew slightly
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed) // relaxed: monotonic stats counter
    }

    /// `(bound_ns, samples <= bound_ns)` for every bound of
    /// [`LE_LADDER_NS`], in ladder order.
    pub fn cumulative(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut seen = 0u64;
        LE_LADDER_NS
            .iter()
            .zip(&self.buckets)
            .map(move |(&bound, bucket)| {
                // relaxed: advisory histogram read; cells may skew slightly
                seen += bucket.load(Ordering::Relaxed);
                (bound, seen)
            })
    }
}

/// Aggregate counters of one server instance.
#[derive(Debug)]
pub struct ServerStats {
    started: Instant,
    /// `POST /v2/explain` requests answered.
    pub explain_v2: AtomicU64,
    /// `POST /v2/explain_batch` requests answered.
    pub explain_batch_v2: AtomicU64,
    /// `POST /v2/ingest` requests answered (segments appended).
    pub ingest_v2: AtomicU64,
    /// `GET /v2/graph` requests answered (fitted-graph renderings).
    pub graph_v2: AtomicU64,
    /// Individual queries inside `POST /v2/explain_batch` requests.
    pub batch_queries: AtomicU64,
    /// `GET /models` requests answered.
    pub models: AtomicU64,
    /// `GET /metrics` scrapes answered.
    pub metrics: AtomicU64,
    /// Debug requests (`/debug/sleep`, `/debug/traces`) answered.
    pub debug: AtomicU64,
    /// Admin requests (reload + shutdown) answered.
    pub admin: AtomicU64,
    /// Requests rejected with `4xx` (bad wire format, unknown paths…).
    pub client_errors: AtomicU64,
    /// Requests failed with `500`.
    pub server_errors: AtomicU64,
    /// Requests rejected with `503` by the admission queue.
    pub rejected: AtomicU64,
    /// Single-query explains answered as exact result-cache hits on the
    /// event-loop thread, without a worker.
    pub loop_hits: AtomicU64,
    /// Request-handler panics caught and answered `500` (on a worker, or
    /// on the event loop's explain path).
    pub worker_panics: AtomicU64,
    /// Connections the event loop has accepted, cumulatively.
    pub conn_accepted: AtomicU64,
    /// Currently open connections (gauge).
    pub conn_active: AtomicU64,
    /// Open connections currently parked idle between requests, waiting in
    /// the kernel at zero thread cost (gauge, refreshed each sweep tick).
    pub conn_parked_idle: AtomicU64,
    /// Connections the server closed on its own: admission-queue 503s,
    /// idle-timeout reaps, and the connection cap.
    pub conn_shed: AtomicU64,
    /// Partial requests that hit the slow-loris read deadline (answered
    /// `408` and closed).
    pub read_timeouts: AtomicU64,
    /// Request latencies from admission (request fully parsed and queued)
    /// to response computed — queue wait included, socket writes excluded.
    pub latency: LatencyHistogram,
    /// Per-stage latency histograms, indexed by [`Stage::index`].  Fed by
    /// [`ServerStats::record_trace`] when the event loop finalizes a
    /// request trace, so background-work traces (compaction) never skew
    /// the request-stage distributions.
    pub stages: [LatencyHistogram; Stage::ALL.len()],
    /// Duration of the event loop's most recent sweep tick, µs (gauge).
    pub loop_last_tick_us: AtomicU64,
    /// The event loop's most recent poller wait, µs (gauge) — near the
    /// 50 ms tick when idle, near zero under load.
    pub loop_last_poll_wait_us: AtomicU64,
    /// Connection slots occupied at the last sweep (gauge).
    pub loop_slots_occupied: AtomicU64,
    /// Sweep ticks the event loop has run, cumulatively.
    pub loop_ticks: AtomicU64,
    /// Background compactions completed (swaps that actually happened —
    /// stale rewrites discarded at the swap check are not counted).
    pub compactions: AtomicU64,
    /// Segment count of the most recently compacted store, before.
    pub compaction_last_before: AtomicU64,
    /// Segment count of the most recently compacted store, after.
    pub compaction_last_after: AtomicU64,
    /// Cumulative estimated bytes reclaimed by compactions.
    pub compaction_bytes_reclaimed: AtomicU64,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            started: Instant::now(),
            explain_v2: AtomicU64::new(0),
            explain_batch_v2: AtomicU64::new(0),
            ingest_v2: AtomicU64::new(0),
            graph_v2: AtomicU64::new(0),
            batch_queries: AtomicU64::new(0),
            models: AtomicU64::new(0),
            metrics: AtomicU64::new(0),
            debug: AtomicU64::new(0),
            admin: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            loop_hits: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            conn_accepted: AtomicU64::new(0),
            conn_active: AtomicU64::new(0),
            conn_parked_idle: AtomicU64::new(0),
            conn_shed: AtomicU64::new(0),
            read_timeouts: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            stages: std::array::from_fn(|_| LatencyHistogram::default()),
            loop_last_tick_us: AtomicU64::new(0),
            loop_last_poll_wait_us: AtomicU64::new(0),
            loop_slots_occupied: AtomicU64::new(0),
            loop_ticks: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_last_before: AtomicU64::new(0),
            compaction_last_after: AtomicU64::new(0),
            compaction_bytes_reclaimed: AtomicU64::new(0),
        }
    }
}

impl ServerStats {
    /// Seconds since the server started.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records one completed background compaction.
    pub fn record_compaction(
        &self,
        segments_before: usize,
        segments_after: usize,
        bytes_reclaimed: usize,
    ) {
        // relaxed: compaction counters/gauges feed /metrics only; the single
        // compactor thread is the only writer.
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.compaction_last_before
            .store(segments_before as u64, Ordering::Relaxed);
        self.compaction_last_after
            // relaxed: see above — single-writer compaction gauge
            .store(segments_after as u64, Ordering::Relaxed);
        self.compaction_bytes_reclaimed
            // relaxed: see above — monotonic compaction counter
            .fetch_add(bytes_reclaimed as u64, Ordering::Relaxed);
    }

    /// Folds a completed request trace into the per-stage latency
    /// histograms: one sample per stage the request passed through, the
    /// sum of that stage's spans (a miss looked up on the event loop and
    /// resolved on a worker records two `cache_lookup` spans, an ingest two
    /// `execute` spans).  Called once per request by the event loop at
    /// write completion; background traces (compaction) are published to
    /// the trace store only and never pass through here.
    pub fn record_trace(&self, trace: &Trace) {
        let mut per_stage: [Option<Duration>; Stage::ALL.len()] = [None; Stage::ALL.len()];
        for span in &trace.spans {
            if let Some(total) = per_stage.get_mut(span.stage.index()) {
                *total = Some(total.unwrap_or_default().saturating_add(span.duration));
            }
        }
        for (histogram, total) in self.stages.iter().zip(per_stage) {
            if let Some(duration) = total {
                histogram.record(duration);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_the_first_bucket_whose_bound_covers_them() {
        // (sample ns, the first bound that counts it; `None`: `+Inf` only)
        let mut cases = vec![
            (900, Some(1_000)),
            (1_000, Some(1_000)),
            (1_900, Some(2_000)),
            (25_000, Some(25_000)),
            (25_900, Some(50_000)),
            (20_000_000_000, None),
        ];
        // Every bound admits a sample equal to it, and not one nanosecond more.
        for (i, &bound) in LE_LADDER_NS.iter().enumerate() {
            let next = LE_LADDER_NS.get(i + 1).copied();
            cases.extend([(bound, Some(bound)), (bound + 1, next)]);
        }
        for (ns, first) in cases {
            let h = LatencyHistogram::default();
            h.record(Duration::from_nanos(ns));
            for (bound, count) in h.cumulative() {
                let covered = first.is_some_and(|first| bound >= first);
                assert_eq!(count, u64::from(covered), "{ns} ns at le {bound} ns");
            }
        }
    }

    #[test]
    fn cumulative_counts_are_exact_at_every_ladder_bound() {
        let h = LatencyHistogram::default();
        for us in [5u64, 10, 100, 150, 5_000, 100_000, 11_000_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!((h.count(), h.sum_ns()), (7, 11_105_265_000));
        // The 11 s sample is above the ladder: it counts only at `+Inf`.
        let counts: Vec<u64> = h.cumulative().map(|(_, count)| count).collect();
        let expected = [
            0, 0, 1, 2, 2, 2, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6,
        ];
        assert_eq!(counts, expected);
    }

    #[test]
    fn record_trace_feeds_the_matching_stage_histograms() {
        use crate::trace::{Stage, TraceBuilder};
        let stats = ServerStats::default();
        let epoch = Instant::now();
        let mut tb = TraceBuilder::begin(1, epoch, "POST /v2/explain".to_owned());
        tb.span(Stage::Parse, epoch, epoch + Duration::from_micros(10), "");
        tb.span(
            Stage::QueueWait,
            epoch + Duration::from_micros(10),
            epoch + Duration::from_micros(60),
            "",
        );
        tb.span(
            Stage::Execute,
            epoch + Duration::from_micros(60),
            epoch + Duration::from_micros(1_060),
            "",
        );
        stats.record_trace(&tb.finish(epoch + Duration::from_micros(1_100)));
        assert_eq!(stats.stages[Stage::Parse.index()].count(), 1);
        assert_eq!(stats.stages[Stage::QueueWait.index()].count(), 1);
        assert_eq!(stats.stages[Stage::Execute.index()].count(), 1);
        assert_eq!(stats.stages[Stage::Serialize.index()].count(), 0);
        assert_eq!(stats.stages[Stage::Parse.index()].sum_ns(), 10_000);
    }

    #[test]
    fn repeated_stage_spans_record_one_sample_per_request() {
        use crate::trace::{Stage, TraceBuilder};
        let stats = ServerStats::default();
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut tb = TraceBuilder::begin(1, epoch, "POST /v2/explain".to_owned());
        // A miss: looked up on the loop, queued, resolved on a worker.
        tb.span(Stage::Parse, epoch, at(5), "");
        tb.span(Stage::CacheLookup, at(5), at(9), "miss");
        tb.span(Stage::QueueWait, at(9), at(30), "");
        tb.span(Stage::CacheLookup, at(30), at(32), "miss");
        tb.span(Stage::Execute, at(32), at(500), "");
        stats.record_trace(&tb.finish(at(520)));
        let lookup = &stats.stages[Stage::CacheLookup.index()];
        assert_eq!(lookup.count(), 1, "one request, one cache_lookup sample");
        assert_eq!(
            lookup.sum_ns(),
            6_000,
            "the sample is the request's whole lookup time"
        );
        assert_eq!(stats.stages[Stage::Serialize.index()].count(), 0);
    }
}
