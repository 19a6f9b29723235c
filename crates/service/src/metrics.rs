//! Prometheus text exposition for `GET /metrics`, hand-rolled like the
//! rest of the wire layer.
//!
//! `/metrics` is the server's one counters view: per-endpoint requests,
//! the request and per-stage latency histograms, result-cache tiers,
//! loop-side hits, contained handler panics, connections, compaction,
//! ingest, the engine-side
//! SelectionCache/CachedCiTest counters, queue and event-loop gauges and
//! per-model store shapes, in the [Prometheus text
//! format](https://prometheus.io/docs/instrumenting/exposition_formats/)
//! (version `0.0.4`).  Derived figures — rates, hit ratios, totals across
//! endpoints — are arithmetic over these series and left to the scraper.
//!
//! Histograms publish exactly the buckets a [`LatencyHistogram`] stores:
//! one `le` per bound of [`LE_LADDER_NS`](crate::stats::LE_LADDER_NS)
//! (1 µs to 10 s) plus `+Inf`, each count taken as recorded.  Bounds and
//! `_sum` are printed in seconds from whole nanoseconds.
//!
//! [`validate_exposition`] is a small independent checker for the format
//! (comment/type/sample grammar, histogram bucket monotonicity, `_count`
//! against the `+Inf` bucket).  The unit tests and the serving smoke test
//! against the real binary run their scrapes through it, so a malformed
//! exposition fails loudly instead of silently breaking a scraper.  [`series_value`] reads
//! one sample back off the text.

// HashMap here never leaks iteration order into output: exposition-validator scratch tables; never iterated into output (see clippy.toml).
#![allow(clippy::disallowed_types)]

use crate::lru::ResultCacheStats;
use crate::stats::{LatencyHistogram, ServerStats};
use crate::trace::Stage;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use xinsight_stats::CacheStats;

/// Per-model shape gauges (one label set per loaded model).
#[derive(Debug)]
pub struct ModelGauges {
    /// Model id (the `model` label value).
    pub id: String,
    /// Store generation (bumped by ingest and compaction swaps).
    pub generation: u64,
    /// Live segment count.
    pub segments: u64,
    /// Total rows across segments.
    pub rows: u64,
    /// Store epoch.
    pub epoch: u64,
    /// Bytes charged to the model's `SelectionCache` entries.
    pub selection_bytes: u64,
    /// Entries the model's `SelectionCache` evicted to stay in budget
    /// (restarts from 0 when compaction or reload installs a fresh cache).
    pub selection_evictions: u64,
}

/// Everything one `/metrics` scrape renders: the server's own counters
/// plus the externally-owned pieces assembled at scrape time.
#[derive(Debug)]
pub struct MetricsSnapshot<'a> {
    /// The server's counter block (borrowed — atomics are read in place).
    pub stats: &'a ServerStats,
    /// Result-cache counters and occupancy.
    pub result_cache: ResultCacheStats,
    /// Summed persistent `SelectionCache` counters over loaded models.
    pub selection: CacheStats,
    /// Merged fit-time CI-test cache counters over loaded models.
    pub ci_cache: CacheStats,
    /// Per-model shape gauges.
    pub models: Vec<ModelGauges>,
    /// Admitted requests currently waiting for a worker.
    pub queue_depth: usize,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Compaction threshold (`0` = compactor disabled).
    pub compact_after: usize,
    /// Traces published to the trace store so far.
    pub traces_recorded: u64,
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn sample(out: &mut String, name: &str, labels: &str, value: f64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Renders one histogram family member under `prefix_labels` (either empty
/// or `label="value",` — trailing comma included so `le` appends cleanly).
fn histogram_samples(out: &mut String, name: &str, prefix_labels: &str, hist: &LatencyHistogram) {
    let mut last_count = 0u64;
    for (bound_ns, count) in hist.cumulative() {
        last_count = count;
        let le = bound_ns as f64 / 1e9;
        let _ = writeln!(out, "{name}_bucket{{{prefix_labels}le=\"{le}\"}} {count}");
    }
    // Reads race recording (relaxed atomics), so clamp the total to keep
    // the exposition self-consistent: +Inf may never undercut a bucket.
    let total = hist.count().max(last_count);
    let _ = writeln!(out, "{name}_bucket{{{prefix_labels}le=\"+Inf\"}} {total}");
    let sum_label = prefix_labels.trim_end_matches(',');
    sample(
        out,
        &format!("{name}_sum"),
        sum_label,
        hist.sum_ns() as f64 / 1e9,
    );
    sample(out, &format!("{name}_count"), sum_label, total as f64);
}

/// Renders the full `/metrics` document.
pub fn render(snapshot: &MetricsSnapshot<'_>) -> String {
    let s = snapshot.stats;
    // relaxed: scrape-time reads of independent stats counters; small skew
    // between them is inherent to any non-atomic snapshot.
    let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    let mut out = String::with_capacity(8 * 1024);

    header(
        &mut out,
        "xinsight_uptime_seconds",
        "gauge",
        "Seconds since the server started.",
    );
    sample(&mut out, "xinsight_uptime_seconds", "", s.uptime_seconds());

    header(
        &mut out,
        "xinsight_requests_total",
        "counter",
        "Requests answered, by endpoint.",
    );
    // xlint-endpoints: begin(counters) — one row per counter slug; several
    // paths share a slug (see [endpoints.slugs] in xlint.toml) and /healthz
    // is deliberately uncounted.
    for (endpoint, counter) in [
        ("explain_v2", &s.explain_v2),
        ("explain_batch_v2", &s.explain_batch_v2),
        ("ingest_v2", &s.ingest_v2),
        ("graph_v2", &s.graph_v2),
        ("models", &s.models),
        ("metrics", &s.metrics),
        ("debug", &s.debug),
        ("admin", &s.admin),
        // xlint-endpoints: end(counters)
    ] {
        sample(
            &mut out,
            "xinsight_requests_total",
            &format!("endpoint=\"{endpoint}\""),
            load(counter),
        );
    }

    header(
        &mut out,
        "xinsight_batch_queries_total",
        "counter",
        "Individual queries inside batch requests.",
    );
    sample(
        &mut out,
        "xinsight_batch_queries_total",
        "",
        load(&s.batch_queries),
    );

    header(
        &mut out,
        "xinsight_request_errors_total",
        "counter",
        "Requests answered with an error status, by class.",
    );
    sample(
        &mut out,
        "xinsight_request_errors_total",
        "class=\"client\"",
        load(&s.client_errors),
    );
    sample(
        &mut out,
        "xinsight_request_errors_total",
        "class=\"server\"",
        load(&s.server_errors),
    );

    header(
        &mut out,
        "xinsight_rejected_total",
        "counter",
        "Requests shed with 503 by the admission queue.",
    );
    sample(&mut out, "xinsight_rejected_total", "", load(&s.rejected));

    header(
        &mut out,
        "xinsight_loop_hits_total",
        "counter",
        "Single-query explains answered as exact result-cache hits on the event loop.",
    );
    sample(&mut out, "xinsight_loop_hits_total", "", load(&s.loop_hits));

    header(
        &mut out,
        "xinsight_worker_panics_total",
        "counter",
        "Request-handler panics contained and answered with 500.",
    );
    sample(
        &mut out,
        "xinsight_worker_panics_total",
        "",
        load(&s.worker_panics),
    );

    header(
        &mut out,
        "xinsight_request_latency_seconds",
        "histogram",
        "Request latency from admission to response computed.",
    );
    histogram_samples(&mut out, "xinsight_request_latency_seconds", "", &s.latency);

    header(
        &mut out,
        "xinsight_stage_latency_seconds",
        "histogram",
        "Per-stage request latency (parse, queue_wait, cache_lookup, execute, serialize, write).",
    );
    for stage in Stage::ALL {
        histogram_samples(
            &mut out,
            "xinsight_stage_latency_seconds",
            &format!("stage=\"{}\",", stage.name()),
            &s.stages[stage.index()],
        );
    }

    header(
        &mut out,
        "xinsight_connections",
        "gauge",
        "Open connections, by state.",
    );
    sample(
        &mut out,
        "xinsight_connections",
        "state=\"active\"",
        load(&s.conn_active),
    );
    sample(
        &mut out,
        "xinsight_connections",
        "state=\"parked_idle\"",
        load(&s.conn_parked_idle),
    );
    header(
        &mut out,
        "xinsight_connections_accepted_total",
        "counter",
        "Connections accepted, cumulatively.",
    );
    sample(
        &mut out,
        "xinsight_connections_accepted_total",
        "",
        load(&s.conn_accepted),
    );
    header(
        &mut out,
        "xinsight_connections_shed_total",
        "counter",
        "Connections the server closed on its own (503 shed, idle reap, connection cap).",
    );
    sample(
        &mut out,
        "xinsight_connections_shed_total",
        "",
        load(&s.conn_shed),
    );
    header(
        &mut out,
        "xinsight_read_timeouts_total",
        "counter",
        "Partial requests that hit the slow-loris read deadline (408).",
    );
    sample(
        &mut out,
        "xinsight_read_timeouts_total",
        "",
        load(&s.read_timeouts),
    );

    let rc = &snapshot.result_cache;
    header(
        &mut out,
        "xinsight_result_cache_lookups_total",
        "counter",
        "Result-cache lookups that reached a tier verdict.",
    );
    sample(
        &mut out,
        "xinsight_result_cache_lookups_total",
        "",
        rc.lookups as f64,
    );
    header(
        &mut out,
        "xinsight_result_cache_total",
        "counter",
        "Result-cache lookups by tier outcome.",
    );
    for (tier, value) in [
        ("hit", rc.hits),
        ("prefix_hit", rc.prefix_hits),
        ("merged", rc.merged),
        ("miss", rc.misses),
    ] {
        sample(
            &mut out,
            "xinsight_result_cache_total",
            &format!("tier=\"{tier}\""),
            value as f64,
        );
    }
    header(
        &mut out,
        "xinsight_result_cache_evictions_total",
        "counter",
        "Result-cache entries evicted by the byte budget.",
    );
    sample(
        &mut out,
        "xinsight_result_cache_evictions_total",
        "",
        rc.evictions as f64,
    );
    header(
        &mut out,
        "xinsight_result_cache_uncacheable_total",
        "counter",
        "Results too large (or otherwise unfit) to cache.",
    );
    sample(
        &mut out,
        "xinsight_result_cache_uncacheable_total",
        "",
        rc.uncacheable as f64,
    );
    header(
        &mut out,
        "xinsight_result_cache_entries",
        "gauge",
        "Result-cache resident entries.",
    );
    sample(
        &mut out,
        "xinsight_result_cache_entries",
        "",
        rc.entries as f64,
    );
    header(
        &mut out,
        "xinsight_result_cache_bytes",
        "gauge",
        "Result-cache resident bytes.",
    );
    sample(&mut out, "xinsight_result_cache_bytes", "", rc.bytes as f64);
    header(
        &mut out,
        "xinsight_result_cache_byte_budget",
        "gauge",
        "Result-cache byte budget.",
    );
    sample(
        &mut out,
        "xinsight_result_cache_byte_budget",
        "",
        rc.byte_budget as f64,
    );

    header(
        &mut out,
        "xinsight_selection_cache_total",
        "counter",
        "Engine SelectionCache lookups, by outcome.",
    );
    sample(
        &mut out,
        "xinsight_selection_cache_total",
        "outcome=\"hit\"",
        snapshot.selection.hits as f64,
    );
    sample(
        &mut out,
        "xinsight_selection_cache_total",
        "outcome=\"miss\"",
        snapshot.selection.misses as f64,
    );
    header(
        &mut out,
        "xinsight_selection_cache_entries",
        "gauge",
        "Engine SelectionCache resident entries (summed over models).",
    );
    sample(
        &mut out,
        "xinsight_selection_cache_entries",
        "",
        snapshot.selection.entries as f64,
    );
    header(
        &mut out,
        "xinsight_ci_cache_fit_time_total",
        "counter",
        "Fit-time CachedCiTest lookups, by outcome.",
    );
    sample(
        &mut out,
        "xinsight_ci_cache_fit_time_total",
        "outcome=\"hit\"",
        snapshot.ci_cache.hits as f64,
    );
    sample(
        &mut out,
        "xinsight_ci_cache_fit_time_total",
        "outcome=\"miss\"",
        snapshot.ci_cache.misses as f64,
    );

    header(
        &mut out,
        "xinsight_compactions_total",
        "counter",
        "Background compactions completed (swaps that happened).",
    );
    sample(
        &mut out,
        "xinsight_compactions_total",
        "",
        load(&s.compactions),
    );
    header(
        &mut out,
        "xinsight_compaction_bytes_reclaimed_total",
        "counter",
        "Cumulative estimated bytes reclaimed by compactions.",
    );
    sample(
        &mut out,
        "xinsight_compaction_bytes_reclaimed_total",
        "",
        load(&s.compaction_bytes_reclaimed),
    );
    header(
        &mut out,
        "xinsight_compaction_last_segments",
        "gauge",
        "Segment count of the most recently compacted store, by phase.",
    );
    sample(
        &mut out,
        "xinsight_compaction_last_segments",
        "phase=\"before\"",
        load(&s.compaction_last_before),
    );
    sample(
        &mut out,
        "xinsight_compaction_last_segments",
        "phase=\"after\"",
        load(&s.compaction_last_after),
    );

    header(
        &mut out,
        "xinsight_queue_depth",
        "gauge",
        "Admitted requests currently waiting for a worker.",
    );
    sample(
        &mut out,
        "xinsight_queue_depth",
        "",
        snapshot.queue_depth as f64,
    );
    header(
        &mut out,
        "xinsight_queue_capacity",
        "gauge",
        "Admission-queue capacity.",
    );
    sample(
        &mut out,
        "xinsight_queue_capacity",
        "",
        snapshot.queue_capacity as f64,
    );
    header(&mut out, "xinsight_workers", "gauge", "Worker-pool size.");
    sample(&mut out, "xinsight_workers", "", snapshot.workers as f64);
    header(
        &mut out,
        "xinsight_compact_after",
        "gauge",
        "Compaction threshold (0 = compactor disabled).",
    );
    sample(
        &mut out,
        "xinsight_compact_after",
        "",
        snapshot.compact_after as f64,
    );

    header(
        &mut out,
        "xinsight_event_loop_tick_seconds",
        "gauge",
        "Duration of the event loop's most recent sweep tick.",
    );
    sample(
        &mut out,
        "xinsight_event_loop_tick_seconds",
        "",
        load(&s.loop_last_tick_us) / 1e6,
    );
    header(
        &mut out,
        "xinsight_event_loop_poll_wait_seconds",
        "gauge",
        "The event loop's most recent poller wait.",
    );
    sample(
        &mut out,
        "xinsight_event_loop_poll_wait_seconds",
        "",
        load(&s.loop_last_poll_wait_us) / 1e6,
    );
    header(
        &mut out,
        "xinsight_event_loop_slots_occupied",
        "gauge",
        "Connection slots occupied at the last sweep.",
    );
    sample(
        &mut out,
        "xinsight_event_loop_slots_occupied",
        "",
        load(&s.loop_slots_occupied),
    );
    header(
        &mut out,
        "xinsight_event_loop_ticks_total",
        "counter",
        "Sweep ticks the event loop has run.",
    );
    sample(
        &mut out,
        "xinsight_event_loop_ticks_total",
        "",
        load(&s.loop_ticks),
    );

    header(
        &mut out,
        "xinsight_traces_recorded_total",
        "counter",
        "Request traces published to the trace store.",
    );
    sample(
        &mut out,
        "xinsight_traces_recorded_total",
        "",
        snapshot.traces_recorded as f64,
    );

    type ModelSeries = (
        &'static str,
        &'static str,
        &'static str,
        fn(&ModelGauges) -> u64,
    );
    let per_model: [ModelSeries; 6] = [
        ("xinsight_model_generation", "gauge", "Store generation per loaded model.", |m| m.generation),
        ("xinsight_model_segments", "gauge", "Live segment count per loaded model.", |m| m.segments),
        ("xinsight_model_rows", "gauge", "Total rows per loaded model.", |m| m.rows),
        ("xinsight_model_epoch", "gauge", "Store epoch per loaded model.", |m| m.epoch),
        (
            "xinsight_selection_cache_bytes",
            "gauge",
            "Engine SelectionCache resident bytes per loaded model (bounded by its byte budget).",
            |m| m.selection_bytes,
        ),
        (
            "xinsight_selection_cache_evictions_total",
            "counter",
            "Engine SelectionCache entries evicted to stay within the byte budget, per loaded model.",
            |m| m.selection_evictions,
        ),
    ];
    if !snapshot.models.is_empty() {
        for (name, kind, help, value) in per_model {
            header(&mut out, name, kind, help);
            for m in &snapshot.models {
                let label = format!("model=\"{}\"", escape_label(&m.id));
                sample(&mut out, name, &label, value(m) as f64);
            }
        }
    }

    out
}

/// The value of one exposition sample, parsed straight off the text —
/// `series` is the full sample name including its label block, exactly as
/// rendered (e.g. `xinsight_requests_total{endpoint="explain_v2"}`).
pub fn series_value(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == series).then(|| value.parse().ok())?
    })
}

// ---------------------------------------------------------------------------
// Exposition-format validation
// ---------------------------------------------------------------------------

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(text: &str) -> Result<f64, String> {
    match text {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {other:?}")),
    }
}

/// A parsed sample line: name, sorted label set, value.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

fn parse_labels(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' in {text:?}"))?;
        let name = rest[..eq].trim();
        if !valid_label_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value in {text:?}"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, escaped)) => value.push(escaped),
                    None => return Err(format!("dangling escape in {text:?}")),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                other => value.push(other),
            }
        }
        let end = end.ok_or_else(|| format!("unterminated label value in {text:?}"))?;
        labels.push((name.to_owned(), value));
        rest = rest[end + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("junk after label value in {text:?}"));
        }
    }
    Ok(labels)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_part, labels, value_part) = if let Some(open) = line.find('{') {
        let close = line
            .rfind('}')
            .ok_or_else(|| format!("unterminated label block in {line:?}"))?;
        if close < open {
            return Err(format!("mismatched braces in {line:?}"));
        }
        (
            &line[..open],
            parse_labels(&line[open + 1..close])?,
            line[close + 1..].trim(),
        )
    } else {
        let mut parts = line.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| format!("empty sample line {line:?}"))?;
        let value = parts
            .next()
            .ok_or_else(|| format!("sample without value: {line:?}"))?;
        if parts.next().is_some() {
            // A third field would be a timestamp; this service never emits
            // them, so reject to keep the validator strict.
            return Err(format!("unexpected trailing field in {line:?}"));
        }
        (name, Vec::new(), value)
    };
    let name = name_part.trim();
    if !valid_metric_name(name) {
        return Err(format!("bad metric name {name:?}"));
    }
    let value = parse_value(value_part)?;
    Ok(Sample {
        name: name.to_owned(),
        labels,
        value,
    })
}

/// The family a sample belongs to: histogram members map back to the base
/// name, everything else is its own family.
fn family_of<'a>(name: &'a str, types: &HashMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).is_some_and(|t| t == "histogram") {
                return base;
            }
        }
    }
    name
}

fn labels_key(labels: &[(String, String)], skip: &str) -> String {
    let mut pairs: Vec<&(String, String)> =
        labels.iter().filter(|(name, _)| name != skip).collect();
    pairs.sort();
    let mut key = String::new();
    for (name, value) in pairs {
        let _ = write!(key, "{name}={value:?};");
    }
    key
}

#[derive(Default)]
struct HistogramChecks {
    /// Per label-set (minus `le`): the bucket (le, cumulative) sequence in
    /// exposition order.
    buckets: HashMap<String, Vec<(f64, f64)>>,
    counts: HashMap<String, f64>,
    sums: HashMap<String, f64>,
}

/// Validates Prometheus text exposition (format version `0.0.4`):
/// comment/sample grammar, metric and label names, at most one `TYPE` per
/// family declared before its samples, no duplicate sample lines, and for
/// histograms: strictly increasing `le` bounds, non-decreasing cumulative
/// counts, a terminal `+Inf` bucket, and `_count` equal to the `+Inf`
/// bucket with `_sum` present.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helped: HashMap<String, ()> = HashMap::new();
    let mut seen_lines: HashMap<String, ()> = HashMap::new();
    let mut sampled_families: HashMap<String, ()> = HashMap::new();
    let mut histograms: HashMap<String, HistogramChecks> = HashMap::new();

    for raw in text.lines() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().ok_or("TYPE without metric name")?;
                let kind = parts.next().ok_or("TYPE without a kind")?;
                if !valid_metric_name(name) {
                    return Err(format!("bad metric name in TYPE: {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!("unknown metric type {kind:?}"));
                }
                if types.insert(name.to_owned(), kind.to_owned()).is_some() {
                    return Err(format!("duplicate TYPE for {name}"));
                }
                if sampled_families.contains_key(name) {
                    return Err(format!("TYPE for {name} after its samples"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split_whitespace().next().ok_or("HELP without name")?;
                if helped.insert(name.to_owned(), ()).is_some() {
                    return Err(format!("duplicate HELP for {name}"));
                }
            }
            // Other comments are allowed and ignored.
            continue;
        }
        let sample = parse_sample(line)?;
        if seen_lines.insert(line.to_owned(), ()).is_some() {
            return Err(format!("duplicate sample line {line:?}"));
        }
        let family = family_of(&sample.name, &types).to_owned();
        if !types.contains_key(&family) {
            return Err(format!("sample for {family} before any TYPE"));
        }
        sampled_families.insert(family.clone(), ());
        let kind = types[&family].clone();
        if kind == "counter" && sample.value < 0.0 {
            return Err(format!("negative counter sample {line:?}"));
        }
        if kind == "histogram" {
            let checks = histograms.entry(family.clone()).or_default();
            let key = labels_key(&sample.labels, "le");
            if sample.name.ends_with("_bucket") {
                let le = sample
                    .labels
                    .iter()
                    .find(|(name, _)| name == "le")
                    .ok_or_else(|| format!("bucket without le label: {line:?}"))?;
                let bound = parse_value(&le.1)?;
                checks
                    .buckets
                    .entry(key)
                    .or_default()
                    .push((bound, sample.value));
            } else if sample.name.ends_with("_sum") {
                checks.sums.insert(key, sample.value);
            } else if sample.name.ends_with("_count") {
                checks.counts.insert(key, sample.value);
            } else {
                return Err(format!(
                    "bare sample {} for histogram family {family}",
                    sample.name
                ));
            }
        }
    }

    for (family, checks) in &histograms {
        for (key, buckets) in &checks.buckets {
            let mut last_le = f64::NEG_INFINITY;
            let mut last_count = -1.0f64;
            for (le, count) in buckets {
                if *le <= last_le {
                    return Err(format!("{family}{{{key}}}: le bounds not increasing"));
                }
                if *count < last_count {
                    return Err(format!("{family}{{{key}}}: cumulative counts decrease"));
                }
                last_le = *le;
                last_count = *count;
            }
            if last_le != f64::INFINITY {
                return Err(format!("{family}{{{key}}}: missing +Inf bucket"));
            }
            let count = checks
                .counts
                .get(key)
                .ok_or_else(|| format!("{family}{{{key}}}: missing _count"))?;
            if (count - last_count).abs() > f64::EPSILON {
                return Err(format!(
                    "{family}{{{key}}}: _count {count} != +Inf bucket {last_count}"
                ));
            }
            if !checks.sums.contains_key(key) {
                return Err(format!("{family}{{{key}}}: missing _sum"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn snapshot_with(stats: &ServerStats) -> MetricsSnapshot<'_> {
        MetricsSnapshot {
            stats,
            result_cache: ResultCacheStats {
                lookups: 8,
                hits: 3,
                prefix_hits: 1,
                merged: 1,
                misses: 3,
                ..Default::default()
            },
            selection: CacheStats {
                hits: 10,
                misses: 2,
                entries: 4,
            },
            ci_cache: CacheStats::default(),
            models: vec![ModelGauges {
                id: "syn_a".to_owned(),
                generation: 3,
                segments: 2,
                rows: 4000,
                epoch: 5,
                selection_bytes: 2048,
                selection_evictions: 0,
            }],
            queue_depth: 1,
            queue_capacity: 64,
            workers: 4,
            compact_after: 6,
            traces_recorded: 9,
        }
    }

    #[test]
    fn rendered_exposition_validates_and_carries_every_family() {
        let stats = ServerStats::default();
        stats.explain_v2.fetch_add(5, Ordering::Relaxed);
        stats.rejected.fetch_add(1, Ordering::Relaxed);
        stats.loop_hits.fetch_add(7, Ordering::Relaxed);
        stats.worker_panics.fetch_add(2, Ordering::Relaxed);
        stats.conn_accepted.fetch_add(5, Ordering::Relaxed);
        stats.conn_active.store(2, Ordering::Relaxed);
        stats.conn_parked_idle.store(1, Ordering::Relaxed);
        stats.conn_shed.fetch_add(1, Ordering::Relaxed);
        stats.record_compaction(5, 1, 4096);
        stats.record_compaction(3, 1, 1024);
        for us in [120u64, 450, 900, 15_000, 2_000_000] {
            stats.latency.record(Duration::from_micros(us));
            stats.stages[Stage::Execute.index()].record(Duration::from_micros(us));
        }
        stats.stages[Stage::Parse.index()].record(Duration::from_micros(3));
        let text = render(&snapshot_with(&stats));
        validate_exposition(&text).expect("rendered exposition must validate");
        for family in [
            "xinsight_requests_total{endpoint=\"explain_v2\"} 5",
            "xinsight_request_latency_seconds_bucket",
            "xinsight_stage_latency_seconds_bucket{stage=\"execute\",",
            "xinsight_result_cache_total{tier=\"prefix_hit\"} 1",
            "xinsight_result_cache_lookups_total 8",
            "xinsight_connections{state=\"active\"}",
            "xinsight_compactions_total",
            "xinsight_event_loop_ticks_total",
            "xinsight_model_segments{model=\"syn_a\"} 2",
            "xinsight_traces_recorded_total 9",
        ] {
            assert!(text.contains(family), "missing {family:?} in:\n{text}");
        }
        // Histogram counts at published bounds are exact: every recorded
        // sample is <= 10 s, so the final ladder bucket holds all 5.
        assert!(text.contains("xinsight_request_latency_seconds_count 5"));
        let value = |series: &str| series_value(&text, series);
        // The published bounds are the ladder itself: the 3 µs sample is
        // counted from le = 5 µs on.
        let parse_le = |le: &str| {
            value(&format!(
                "xinsight_stage_latency_seconds_bucket{{stage=\"parse\",le=\"{le}\"}}"
            ))
        };
        assert_eq!(parse_le("0.000002"), Some(0.0));
        assert_eq!(parse_le("0.000005"), Some(1.0));
        assert_eq!(parse_le("0.00005"), Some(1.0));
        // Shed, connection and compaction counters: the run count, the
        // *last* before/after shape, and the *cumulative* bytes reclaimed.
        for (series, expected) in [
            ("xinsight_rejected_total", 1.0),
            ("xinsight_loop_hits_total", 7.0),
            ("xinsight_worker_panics_total", 2.0),
            ("xinsight_connections_accepted_total", 5.0),
            ("xinsight_connections{state=\"active\"}", 2.0),
            ("xinsight_connections{state=\"parked_idle\"}", 1.0),
            ("xinsight_connections_shed_total", 1.0),
            ("xinsight_read_timeouts_total", 0.0),
            ("xinsight_compactions_total", 2.0),
            ("xinsight_compaction_last_segments{phase=\"before\"}", 3.0),
            ("xinsight_compaction_last_segments{phase=\"after\"}", 1.0),
            ("xinsight_compaction_bytes_reclaimed_total", 5120.0),
            ("xinsight_compact_after", 6.0),
            ("xinsight_queue_capacity", 64.0),
            ("xinsight_workers", 4.0),
            ("xinsight_selection_cache_bytes{model=\"syn_a\"}", 2048.0),
            (
                "xinsight_selection_cache_evictions_total{model=\"syn_a\"}",
                0.0,
            ),
        ] {
            assert_eq!(value(series), Some(expected), "{series}");
        }
    }

    #[test]
    fn histogram_sums_keep_sub_microsecond_time() {
        use crate::trace::TraceBuilder;
        let stats = ServerStats::default();
        let epoch = std::time::Instant::now();
        let parsed = epoch + Duration::from_nanos(1_500);
        for id in 0..1_000 {
            let mut tb = TraceBuilder::begin(id, epoch, "POST /v2/explain");
            tb.span(Stage::Parse, epoch, parsed, "");
            stats.record_trace(&tb.finish(parsed));
        }
        // Whole microseconds would have summed to 1 ms, all under 1 µs.
        let text = render(&snapshot_with(&stats));
        for (series, expected) in [
            ("sum{stage=\"parse\"}", 0.0015),
            ("bucket{stage=\"parse\",le=\"0.000001\"}", 0.0),
            ("bucket{stage=\"parse\",le=\"0.000002\"}", 1_000.0),
        ] {
            let series = format!("xinsight_stage_latency_seconds_{series}");
            assert_eq!(series_value(&text, &series), Some(expected), "{series}");
        }
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        // Sample before TYPE.
        assert!(validate_exposition("foo 1\n# TYPE foo counter\n").is_err());
        // Unknown type.
        assert!(validate_exposition("# TYPE foo rate\nfoo 1\n").is_err());
        // Negative counter.
        assert!(validate_exposition("# TYPE foo counter\nfoo -1\n").is_err());
        // Duplicate sample.
        assert!(validate_exposition("# TYPE foo gauge\nfoo 1\nfoo 1\n").is_err());
        // Histogram without +Inf.
        assert!(validate_exposition(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"
        )
        .is_err());
        // Histogram with decreasing cumulative counts.
        assert!(validate_exposition(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"
        )
        .is_err());
        // _count disagreeing with the +Inf bucket.
        assert!(validate_exposition(
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"
        )
        .is_err());
        // Bad label syntax.
        assert!(validate_exposition("# TYPE foo gauge\nfoo{bar=baz} 1\n").is_err());
        // A correct document passes.
        validate_exposition(
            "# HELP h help text\n# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.3\nh_count 2\n# TYPE g gauge\ng{a=\"b\"} 7\n",
        )
        .expect("well-formed exposition");
    }
}
