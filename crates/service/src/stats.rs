//! Server-side observability: request counters and a latency histogram.
//!
//! Everything is lock-free (relaxed atomics): the serving hot path only
//! ever increments counters, and `/metrics` reads a point-in-time snapshot
//! without contending with workers (see [`crate::metrics`]).  Latencies go
//! into a log-linear (HDR-style) microsecond histogram — exact below 16 µs,
//! 16 sub-buckets per power of two above, so any bucket edge is within
//! 6.25 % of the true value.  `/metrics` publishes a coarse `le` ladder
//! snapped to those edges, so its cumulative counts stay exact.  The
//! xbench benchmark reports *exact* percentiles from its own recorded
//! samples; the histogram is for the live endpoint.

use crate::trace::{Stage, Trace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Values below this many microseconds get one exact bucket each.
const LINEAR_LIMIT: u64 = 16;

/// Sub-buckets per power of two above [`LINEAR_LIMIT`]: quantization error
/// is bounded by `1/SUB_BUCKETS` (6.25 %).
const SUB_BUCKETS: usize = 16;

/// Powers of two covered above the linear range: `2^4 ..= 2^39` µs
/// (≈ 9 days); anything larger lands in the final (open) bucket.
const OCTAVES: usize = 36;

/// Total histogram bucket count.
pub const LATENCY_BUCKETS: usize = LINEAR_LIMIT as usize + OCTAVES * SUB_BUCKETS;

/// The bucket a microsecond value lands in.
fn bucket_index(us: u64) -> usize {
    if us < LINEAR_LIMIT {
        return us as usize;
    }
    if us >= 1u64 << (4 + OCTAVES) {
        return LATENCY_BUCKETS - 1;
    }
    let octave = 63 - us.leading_zeros() as usize; // >= 4 here
    let shift = octave - 4;
    let sub = ((us >> shift) & (SUB_BUCKETS as u64 - 1)) as usize;
    LINEAR_LIMIT as usize + (octave - 4) * SUB_BUCKETS + sub
}

/// The (inclusive) upper bound of a bucket, in microseconds.
fn bucket_upper_us(index: usize) -> u64 {
    if index < LINEAR_LIMIT as usize {
        return index as u64;
    }
    let i = index - LINEAR_LIMIT as usize;
    let shift = (i / SUB_BUCKETS) as u64;
    let sub = (i % SUB_BUCKETS) as u64;
    ((LINEAR_LIMIT + sub) << shift) + (1u64 << shift) - 1
}

/// A fixed-bucket, lock-free, log-linear latency histogram over
/// microseconds (exact below 16 µs, ≤ 6.25 % quantization above).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    /// The exact sum in nanoseconds, which `/metrics` publishes as `_sum`:
    /// whole microseconds would drop most of a 1–2 µs stage.
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Records one latency sample.
    pub fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        // relaxed: each cell is an independent monotonic counter; readers
        // snapshot without a lock and tolerate torn cross-cell views.
        self.buckets[bucket_index(ns / 1_000)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed); // relaxed: see above
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // relaxed: monotonic stats counter
    }

    /// Sum of all recorded samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed) // relaxed: monotonic stats counter
    }

    /// The cumulative count of samples `<= bound_us`, reported against the
    /// exact internal bucket boundary: returns `(snapped_upper_us, count)`
    /// where `snapped_upper_us >= bound_us` is the upper bound of the
    /// bucket `bound_us` falls in.  Because the count is taken at a real
    /// bucket edge, it is exact for the snapped bound — this is what lets
    /// `/metrics` publish a coarse `le` ladder without re-introducing
    /// quantization error on the published bounds.
    pub fn cumulative_le(&self, bound_us: u64) -> (u64, u64) {
        let index = bucket_index(bound_us);
        let mut seen = 0u64;
        for bucket in self.buckets.iter().take(index + 1) {
            // relaxed: advisory histogram read; cells may skew slightly
            seen += bucket.load(Ordering::Relaxed);
        }
        (bucket_upper_us(index), seen)
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
        let mut per_stage: [Option<u64>; Stage::ALL.len()] = [None; Stage::ALL.len()];
        for span in &trace.spans {
            if let Some(total) = per_stage.get_mut(span.stage.index()) {
                *total = Some(total.unwrap_or(0).saturating_add(span.duration_us));
            }
        }
        for (histogram, total) in self.stages.iter().zip(per_stage) {
            if let Some(us) = total {
                histogram.record(Duration::from_micros(us));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_linear_buckets_bound_quantization_error() {
        // Round-tripping any value through its bucket's upper bound may
        // only inflate it, and by at most 1/SUB_BUCKETS.
        for us in (0..5_000_000u64).step_by(997) {
            let upper = bucket_upper_us(bucket_index(us));
            assert!(upper >= us, "upper {upper} < sample {us}");
            assert!(
                (upper - us) as f64 <= (us as f64 / SUB_BUCKETS as f64) + 1.0,
                "bucket for {us} µs too coarse: upper {upper}"
            );
        }
        // Bucket uppers are strictly monotone over the whole range.
        let mut last = None;
        for i in 0..LATENCY_BUCKETS {
            let upper = bucket_upper_us(i);
            if let Some(prev) = last {
                assert!(upper > prev, "bucket {i} not monotone");
            }
            last = Some(upper);
        }
        // The overflow clamp lands in the final bucket.
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn cumulative_le_snaps_bounds_and_counts_exactly() {
        let h = LatencyHistogram::default();
        for us in [5u64, 10, 100, 150, 5_000, 100_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.sum_ns(), 105_265_000);
        // The snapped bound is always >= the requested one, and the count
        // at the snapped edge is exact.
        let (upper, count) = h.cumulative_le(10);
        assert_eq!((upper, count), (10, 2)); // linear range: exact bucket
        let (upper, count) = h.cumulative_le(200);
        assert!(upper >= 200);
        assert_eq!(count, 4);
        let (_, all) = h.cumulative_le(u64::MAX / 2);
        assert_eq!(all, 6);
        // Counts are monotone as the bound grows.
        let mut last = 0;
        for bound in [1u64, 16, 64, 1_000, 10_000, 1_000_000] {
            let (_, c) = h.cumulative_le(bound);
            assert!(c >= last);
            last = c;
        }
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
