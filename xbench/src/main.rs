//! `xbench` — the end-to-end benchmark of XInsight's two paths: request
//! bytes in → response bytes out (the `xinsight-serve` binary in its own
//! process, driven over HTTP) and CSV bytes → fitted, saved model.
//!
//! ```text
//! xbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--out DIR]
//! xbench --selftest [--benchmark PATH]
//! ```
//!
//! Every input is generated from `--seed`.  Answers are checked against an
//! in-process replica of the server's request path.  The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from spans the benchmark records
//! around calls into each layer) with `--trace 1`.  Nothing is written
//! except a scratch directory `xbench-work/` in the build's output
//! directory, removed on exit, and the report files under `--out` when
//! given.  See `xbench/README.md`.

mod fit;
mod inputs;
mod load;
mod net;
mod replica;
mod trace;
mod util;

use inputs::{Inputs, Spec};
use load::{Mix, Op, Tally};
use net::Server;
use replica::{Expected, Replica};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use util::{median, quantile, Ctx, Res, Rng, Zipf};

/// End-to-end metrics: `(name, unit)`, printed with `--trace 0`.  Only
/// figures that held a bound over ten runs on a shared 2-vCPU machine are
/// here: CPU times, which leave out what the host steals, and counts.
/// Wall-clock latencies and rates and the fit's own times are per-layer
/// (`gen.*`, `*.wall_s`, `fit.cpu_s`).
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("server_cpu_us", "us"),
    ("skeleton_f1", "ratio"),
    ("rss_peak_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 60] = [
    ("server.transport_us", "us"),
    ("setup.wall_s", "s"),
    ("fit.wall_s", "s"),
    ("fit.cpu_s", "s"),
    ("gen.closed_rps", "1/s"),
    ("gen.closed_p50_us", "us"),
    ("gen.closed_p99_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("gen.open_p50_us", "us"),
    ("gen.open_p99_us", "us"),
    ("gen.ingest_p50_us", "us"),
    ("gen.ingest_p99_us", "us"),
    ("gen.attempted", "count"),
    ("gen.ok", "count"),
    ("gen.failed", "count"),
    ("gen.shed", "count"),
    ("gen.timed_out", "count"),
    ("failed_frac", "ratio"),
    ("http.parse_ns", "ns"),
    ("http.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.rows_decode_us", "us"),
    ("lru.lookup_ns", "ns"),
    ("lru.insert_ns", "ns"),
    ("lru.hit_ratio", "ratio"),
    ("lru.prefix_ratio", "ratio"),
    ("lru.merged_ratio", "ratio"),
    ("lru.miss_ratio", "ratio"),
    ("lru.eviction_ratio", "ratio"),
    ("lru.bytes", "bytes"),
    ("registry.ingest_us", "us"),
    ("registry.compact_us", "us"),
    ("registry.compactions_per_ingest", "ratio"),
    ("registry.compact_reclaimed_bytes", "bytes"),
    ("registry.load_ms", "ms"),
    ("pipeline.execute_us", "us"),
    ("pipeline.executes_per_read", "ratio"),
    ("xtranslator.translate_ns", "ns"),
    ("xplainer.sum_us", "us"),
    ("xplainer.avg_us", "us"),
    ("xplainer.brute_us", "us"),
    ("xplainer.delta_evals_per_execute", "count"),
    ("xplainer.selection_hit_ratio", "ratio"),
    ("xplainer.selection_entries", "count"),
    ("segment.delta_us", "us"),
    ("segment.count", "count"),
    ("csv.read_ms", "ms"),
    ("discretize.ms", "ms"),
    ("fd.detect_ms", "ms"),
    ("discovery.skeleton_ms", "ms"),
    ("discovery.pdsep_ms", "ms"),
    ("discovery.orient_ms", "ms"),
    ("stats.ci_tests", "count"),
    ("stats.ci_cache_hit_ratio", "ratio"),
    ("stats.ci_test_us", "us"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// An untraced run sets up at least `SETUPS.0` times, and again while
/// set-up has taken less than `SETUPS.1` seconds, up to `SETUPS.2` times;
/// `setup_s` is the median CPU time of the quiet ones (`util::quiet`).
const SETUPS: (usize, f64, usize) = (3, 2.0, 15);

/// Fits per round: at least `FITS.0`, and again while the round's fits
/// have taken less than `FITS.1` seconds (or the workload's fit share),
/// up to `FITS.2`; `fit.wall_s` and `fit.cpu_s` are the medians over the
/// quiet rounds of each round's fastest fit.
const FITS: (usize, f64, usize) = (2, 0.3, 12);

/// Cap on the write phase, which bounds the rows and segments the final
/// answer check runs over.
const MAX_WRITES: u64 = 1000;

/// Rounds the measured phases are split into.
const ROUNDS: usize = 8;

/// Closed-loop connections.  One: with the server and the generator on two
/// vCPUs, a second connection makes the two contend for a core and the
/// tail reads the scheduler, not the server.
const CONNECTIONS: usize = 1;

/// Whether a repeated step should run again.
fn again(done: usize, spent: f64, (least, seconds, most): (usize, f64, usize)) -> bool {
    done < least || (spent < seconds && done < most)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: Option<PathBuf>,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    spans: Option<Tracer>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--selftest") {
        return match selftest(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("selftest failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = parse_args(&argv).and_then(|args| {
        let outcome = run(&args)?;
        if let Some(dir) = &args.out {
            write_report(dir, &args, &outcome)?;
        }
        Ok(outcome)
    });
    match outcome {
        Ok(outcome) => {
            println!("{}", result_line(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().ctx("--seed")?,
            "--seconds" => args.seconds = value()?.parse().ctx("--seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

/// The server binary built next to this one.
fn serve_bin() -> Res<PathBuf> {
    let exe = std::env::current_exe().ctx("locating xbench")?;
    let bin = exe.with_file_name("xinsight-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build with xbench/run.sh",
            bin.display()
        ))
    }
}

/// The run's scratch directory, next to the built binaries (build output,
/// never the source tree), removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One `/v2/ingest` over its own connection; the answer must reconcile.
fn ingest_once(server: &Server, batch: &inputs::Batch, tally: &mut Tally) -> Res<()> {
    let (status, body) = server.request(&batch.request)?;
    tally.attempted += 1;
    match load::ingest_generation(body.as_bytes(), batch.rows) {
        Some(_) if status == 200 => tally.ok += 1,
        _ => tally.wrong += 1,
    }
    Ok(())
}

/// Sends every key of the pool once and compares the served bytes with the
/// replica's answer.
fn check_pool(
    server: &Server,
    inputs: &Inputs,
    expected: &[Expected],
    tally: &mut Tally,
) -> Res<()> {
    let mut conn = net::Conn::connect(server.addr)?;
    let mut body = Vec::new();
    for (key, want) in inputs.keys.iter().zip(expected) {
        let status = conn.call(&key.request, &mut body)?;
        tally.attempted += 1;
        let served = String::from_utf8_lossy(&body);
        if status == 200 && replica::served_matches(inputs.model, &served, want) {
            tally.ok += 1;
        } else {
            tally.wrong += 1;
            eprintln!(
                "xbench: wrong answer for {} (status {status})",
                key.query.to_json()
            );
        }
    }
    Ok(())
}

fn expected_pool(replica: &Replica, inputs: &Inputs) -> Res<Vec<Expected>> {
    inputs
        .keys
        .iter()
        .map(|k| replica.expected(&k.options, &k.query))
        .collect()
}

fn run(args: &Args) -> Res<Outcome> {
    let spec = inputs::spec(&args.workload, args.tiny).ok_or_else(|| {
        format!(
            "unknown workload `{}` (try {:?})",
            args.workload,
            inputs::WORKLOADS
        )
    })?;
    let bin = serve_bin()?;
    let inputs = inputs::generate(&spec)?;
    let scratch = Scratch(bin.with_file_name("xbench-work").join(format!(
        "{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    )));
    let secs = args.seconds;
    let mut tally = Tally::default();

    // Set-up: fit + save the bundle, spawn the server until /healthz,
    // ingest the set-up segments, warm every key once.
    let mut setups = Vec::new();
    let mut setup_cpu = Vec::new();
    let mut setup_steal = Vec::new();
    let mut peaks = Vec::new();
    let mut last = None;
    while setups.is_empty() || (!args.trace && again(setups.len(), setups.iter().sum(), SETUPS)) {
        let dir = scratch.0.join(format!("setup{}", setups.len()));
        let started = Instant::now();
        let ticks = util::cpu_ticks()?;
        let cpu = util::cpu_ns(None)?;
        let fitted = fit::fit_bundle(&inputs.csv, &dir, inputs.model, &inputs.queries)?;
        let server = Server::spawn(&bin, &dir, spec.cache_mb, spec.compact_after)?;
        for batch in &inputs.setup_batches {
            ingest_once(&server, batch, &mut tally)?;
        }
        let mut conn = net::Conn::connect(server.addr)?;
        let mut body = Vec::new();
        for key in &inputs.keys {
            let status = conn.call(&key.request, &mut body)?;
            tally.attempted += 1;
            if status == 200 {
                tally.ok += 1;
            } else {
                tally.errors += 1;
            }
        }
        drop(conn);
        setups.push(started.elapsed().as_secs_f64());
        setup_cpu.push((util::cpu_ns(None)? - cpu + server.cpu_ns()?) as f64 / 1e9);
        setup_steal.push(util::stolen_since(ticks)?);
        peaks.push(server.vm_hwm_mb()?);
        if let Some((previous, _, _)) = last.replace((server, fitted, dir)) {
            previous.shutdown()?;
        }
    }
    let (server, fitted, dir) = last.ok_or("no set-up ran")?;

    // The replica answers as the server should after set-up.
    let mut quiet = Tracer::new(false);
    let mut checker = Replica::open(
        &dir,
        inputs.model,
        spec.cache_mb,
        spec.compact_after,
        &mut quiet,
    )?;
    for batch in &inputs.setup_batches {
        checker.ingest(&batch.body)?;
    }
    let expected = expected_pool(&checker, &inputs)?;
    check_pool(&server, &inputs, &expected, &mut tally)?;
    let persisted = fit::persistence_holds(&fitted, &dir, inputs.model, &inputs.queries[0])?;
    tally.attempted += 1;
    if persisted {
        tally.ok += 1;
    } else {
        tally.wrong += 1;
    }
    let skeleton_f1 = fit::skeleton_f1(fitted.engine.graph(), &inputs.truth);

    let mut t = Tracer::new(args.trace);
    let mut fit_counts = Vec::new();

    // Measured serving phases.
    let zipf = Zipf::new(inputs.keys.len(), 1.1, &mut Rng::new(inputs::DATA_SEED, 3));
    let tails: Vec<String> = expected
        .iter()
        .map(|e| format!(",\"result\":{}}}", e.result))
        .collect();
    let mix = Mix {
        keys: &inputs.keys,
        batches: &inputs.batches,
        zipf: &zipf,
        ingest_share: spec.ingest_share,
        tails: (spec.ingest_share == 0.0).then_some(tails.as_slice()),
    };
    // The measured phases run in rounds (fits, closed loop, open loop), so
    // a noise burst of a second lands in one or two rounds of each; every
    // figure is a median over the quiet rounds (`util::quiet`).
    let writes_only = Mix {
        ingest_share: 1.0,
        tails: None,
        ..mix
    };
    let before = server.scrape()?;
    let (mut closed, mut open, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fit_rounds, mut fit_cpu_rounds) = (Vec::new(), Vec::new());
    let mut server_cpu = Vec::new();
    let (mut read_steal, mut write_steal) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let share = secs / ROUNDS as f64;
        let ticks = util::cpu_ticks()?;
        // Fits: the fit workload's main phase; elsewhere a few per round,
        // for a steady fastest fit.
        let fits_started = Instant::now();
        let (mut fits, mut fit_cpu) = (Vec::new(), Vec::new());
        let least = (FITS.0, (spec.fit_share * share).max(FITS.1), FITS.2);
        while again(fits.len(), fits_started.elapsed().as_secs_f64(), least) {
            let fit_dir = scratch.0.join(format!("fit{round}-{}", fits.len()));
            let refit = fit::fit_bundle(&inputs.csv, &fit_dir, inputs.model, &inputs.queries)?;
            fits.push(refit.secs);
            fit_cpu.push(refit.cpu_secs);
            if args.trace {
                let counts = fit::traced_fit(&inputs.csv, &fit_dir, &fitted.engine, &mut t)?;
                fit_counts.push(counts);
            }
            std::fs::remove_dir_all(&fit_dir).ctx("removing fit dir")?;
        }
        // The round's fastest fit: a fit repeats one fixed computation, so
        // anything slower is interference from the rest of the host.
        let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        fit_rounds.push(fastest(&fits));
        fit_cpu_rounds.push(fastest(&fit_cpu));
        let stream = 1 + round as u64;
        let cpu = server.cpu_ns()?;
        let phase = load::closed(
            server.addr,
            &mix,
            spec.closed_share * share,
            u64::MAX,
            CONNECTIONS,
            args.seed,
            stream,
        )?;
        let ops = phase.completed().max(1) as f64;
        server_cpu.push((server.cpu_ns()? - cpu) as f64 / 1e3 / ops);
        closed.push(phase);
        let seed = args.seed.wrapping_add(round as u64 * 7919);
        let open_secs = spec.open_share * share;
        open.push(load::open(
            server.addr,
            &mix,
            open_secs,
            spec.open_rate,
            seed,
        )?);
        read_steal.push(util::stolen_since(ticks)?);
    }
    // Writes change what later reads see, so they come after every read
    // round, in rounds of their own.
    for round in 0..ROUNDS {
        if spec.ingest_phase_share > 0.0 {
            let ticks = util::cpu_ticks()?;
            writes.push(load::closed(
                server.addr,
                &writes_only,
                spec.ingest_phase_share * secs / ROUNDS as f64,
                MAX_WRITES / ROUNDS as u64,
                1,
                args.seed,
                100 + round as u64,
            )?);
            write_steal.push(util::stolen_since(ticks)?);
        }
    }
    let after_rounds = server.scrape()?;
    // Peak memory: the median over every server of its peak after set-up
    // (this one after the rounds too) — the allocator's per-thread arenas
    // make a single reading jumpy.  The fit workload reports the fitting
    // process instead.
    peaks.push(server.vm_hwm_mb()?);
    let rss = if spec.fit_share > 0.0 {
        util::vm_hwm_mb("self")?
    } else {
        median(&peaks)
    };

    // Final answer check: the replica replays every accepted ingest in
    // swap order, then every key must be answered exactly as it answers.
    let mut accepted: Vec<(u64, usize)> = closed
        .iter()
        .chain(&open)
        .chain(&writes)
        .flat_map(|t| t.ingests.iter().copied())
        .collect();
    accepted.sort_unstable();
    for &(_, b) in &accepted {
        checker.ingest(&inputs.batches[b].body)?;
    }
    let expected_after = expected_pool(&checker, &inputs)?;
    check_pool(&server, &inputs, &expected_after, &mut tally)?;
    // Every model's store must hold exactly the replica's rows.
    let (status, models) = server.request(&net::get("/models"))?;
    let served = xinsight_core::json::Json::parse(&models).ctx("/models body")?;
    for model in served.as_arr().ctx("/models body")? {
        let id = model.get("id").and_then(|v| v.as_str()).ctx("model id")?;
        let rows = model.get("store_rows").and_then(|v| v.as_u64()).ok();
        tally.attempted += 1;
        if status == 200 && rows == Some(checker.get(id)?.engine.data().n_rows() as u64) {
            tally.ok += 1;
        } else {
            tally.wrong += 1;
            eprintln!("xbench: store rows of `{id}` do not reconcile ({rows:?})");
        }
    }
    let after = server.scrape()?;
    server.shutdown()?;

    let reads = util::quiet(&read_steal);
    fn pick<'a, T>(items: &'a [T], keep: &[usize]) -> Vec<&'a T> {
        keep.iter().map(|&i| &items[i]).collect()
    }
    let median_of = |values: &[f64], which: &[usize]| {
        median(&which.iter().map(|&i| values[i]).collect::<Vec<_>>())
    };
    let (quiet_closed, quiet_open) = (pick(&closed, &reads), pick(&open, &reads));
    let quiet_ingests = if spec.ingest_share > 0.0 {
        quiet_closed.clone()
    } else {
        pick(&writes, &util::quiet(&write_steal))
    };
    let read_p50_us = load::across(&quiet_closed, Tally::reads, 0.5);
    let quiet_setups = util::quiet(&setup_steal);
    // Wall-clock figures, too jumpy on a shared host to carry a bound (see
    // README): set-up and fit wall time, the closed and open loops, the
    // generator's own lateness and ingest latency.
    let mut lag: Vec<u64> = open.iter().flat_map(|t| t.lag_ns.iter().copied()).collect();
    lag.sort_unstable();
    let unbounded = [
        median_of(&setups, &quiet_setups),
        median_of(&fit_rounds, &reads),
        median_of(&fit_cpu_rounds, &reads),
        load::rate(&quiet_closed),
        read_p50_us,
        load::across(&quiet_closed, Tally::reads, 0.99),
        quantile(&lag, 0.99) as f64 / 1e3,
        load::across(&quiet_open, Tally::reads, 0.5),
        load::across(&quiet_open, Tally::reads, 0.99),
        load::across(&quiet_ingests, Tally::writes, 0.5),
        load::across(&quiet_ingests, Tally::writes, 0.99),
    ];
    let e2e = [
        median_of(&setup_cpu, &quiet_setups),
        median_of(&server_cpu, &reads),
    ];
    let writes_made: u64 = writes.iter().map(|t| t.attempted).sum();
    for phase in closed.into_iter().chain(open).chain(writes) {
        tally.absorb(phase);
    }
    let failed = tally.failed();

    let metrics: Vec<f64> = if args.trace {
        let replayed = replay(&spec, &inputs, &zipf, &dir, args, writes_made, &mut t)?;
        let server_counters = Counters {
            before: &before,
            reads: &after_rounds,
            after: &after,
        };
        per_layer(
            &t,
            &replayed,
            &fit_counts,
            &server_counters,
            &tally,
            read_p50_us,
            unbounded,
        )
    } else {
        let mut values = e2e.to_vec();
        values.extend([
            skeleton_f1,
            rss,
            1.0 - failed as f64 / tally.attempted.max(1) as f64,
        ]);
        values
    };
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    Ok(Outcome {
        correct: failed == 0,
        attempted: tally.attempted,
        failed,
        metrics: table
            .iter()
            .zip(metrics)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect(),
        spans: args.trace.then_some(t),
    })
}

/// What the in-process replay measured besides its spans.
struct Replayed {
    /// Untraced request time of each read (ns).
    untraced_reads: Vec<u64>,
    traced: Vec<u64>,
    untraced: Vec<u64>,
    /// Reads replayed, traced or not.
    reads: usize,
    /// Engine executes per replayed read.
    executes_per_read: f64,
    /// Fresh `Δ(·)` evaluations per execute, over the executes whose
    /// request asked for provenance.
    evals_per_execute: f64,
}

/// Replays the workload's op mix through the in-process replica, in chunks
/// that alternate untraced and traced, so tracing overhead is measured on
/// the same state.  Every traced miss is also broken down into its engine
/// calls.
fn replay(
    spec: &Spec,
    inputs: &Inputs,
    zipf: &Zipf,
    dir: &Path,
    args: &Args,
    writes: u64,
    t: &mut Tracer,
) -> Res<Replayed> {
    let mut replica = Replica::open(dir, inputs.model, spec.cache_mb, spec.compact_after, t)?;
    for batch in &inputs.setup_batches {
        replica.ingest(&batch.body)?;
    }
    t.on = false;
    for key in &inputs.keys {
        replica.handle(&key.request, t)?;
    }
    replica.executes = 0;
    replica.provenance_executes = 0;
    replica.delta_evals = 0;
    let mut rng = Rng::new(args.seed, 9000);
    let mut out = Replayed {
        untraced_reads: Vec::new(),
        traced: Vec::new(),
        untraced: Vec::new(),
        reads: 0,
        executes_per_read: 0.0,
        evals_per_execute: 0.0,
    };
    // The read phases replay for a share of the run's seconds; the write
    // phase replays as many ingests as the server received.
    let until = Instant::now() + std::time::Duration::from_secs_f64(0.2 * args.seconds);
    for (ingest_share, chunks) in [(spec.ingest_share, u64::MAX), (1.0, writes.div_ceil(32))] {
        let mix = Mix {
            keys: &inputs.keys,
            batches: &inputs.batches,
            zipf,
            ingest_share,
            tails: None,
        };
        let mut chunk = 0u64;
        while chunk < chunks && (chunk < 2 || chunks != u64::MAX || Instant::now() < until) {
            let traced = chunk % 2 == 1;
            t.on = traced;
            for _ in 0..32 {
                let op = mix.draw(&mut rng);
                let started = Instant::now();
                t.span("request", |t| replica.handle(mix.request(op), t))?;
                let ns = util::nanos(started.elapsed());
                out.reads += usize::from(matches!(op, Op::Read(_)));
                if traced {
                    out.traced.push(ns);
                    replica.breakdown(t)?;
                } else {
                    out.untraced.push(ns);
                    if matches!(op, Op::Read(_)) {
                        out.untraced_reads.push(ns);
                    }
                }
            }
            chunk += 1;
        }
    }
    t.on = true;
    out.executes_per_read = ratio(replica.executes as f64, out.reads as f64);
    out.evals_per_execute = ratio(
        replica.delta_evals as f64,
        replica.provenance_executes as f64,
    );
    Ok(out)
}

/// `/metrics` scrapes: before the measured phases, after the read phases,
/// and at the end.
struct Counters<'a> {
    before: &'a BTreeMap<String, f64>,
    reads: &'a BTreeMap<String, f64>,
    after: &'a BTreeMap<String, f64>,
}

impl Counters<'_> {
    fn get(map: &BTreeMap<String, f64>, key: &str) -> f64 {
        map.get(key).copied().unwrap_or(0.0)
    }

    /// Growth of a counter over the read phases.
    fn reads(&self, key: &str) -> f64 {
        Self::get(self.reads, key) - Self::get(self.before, key)
    }

    /// Growth of a counter over the whole measured run.
    fn run(&self, key: &str) -> f64 {
        Self::get(self.after, key) - Self::get(self.before, key)
    }

    fn gauge_sum(&self, prefix: &str) -> f64 {
        self.reads
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn mean(v: &[u64]) -> f64 {
    ratio(v.iter().sum::<u64>() as f64, v.len() as f64)
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    t: &Tracer,
    replayed: &Replayed,
    fits: &[fit::FitCounts],
    server: &Counters,
    tally: &Tally,
    http_p50_us: f64,
    unbounded: [f64; 11],
) -> Vec<f64> {
    let med = |v: Vec<u64>| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
    let call_ns = |name: &str| med(t.durations(name));
    let request_ns = |name: &str| med(t.per_request(name));
    let tier =
        |name: &str| server.reads(&format!("xinsight_result_cache_total{{tier=\"{name}\"}}"));
    let lookups: f64 = ["hit", "prefix_hit", "merged", "miss"]
        .iter()
        .map(|n| tier(n))
        .sum();
    let selection = |outcome: &str| {
        server.reads(&format!(
            "xinsight_selection_cache_total{{outcome=\"{outcome}\"}}"
        ))
    };
    let fit_median =
        |f: fn(&fit::FitCounts) -> f64| median(&fits.iter().map(f).collect::<Vec<_>>());
    let compactions = server.run("xinsight_compactions_total");
    let untraced_reads = med(replayed.untraced_reads.clone()) / 1e3;
    let mut values = vec![http_p50_us - untraced_reads];
    values.extend(unbounded);
    values.extend([
        tally.attempted as f64,
        tally.ok as f64,
        tally.failed() as f64,
        tally.shed as f64,
        tally.timed_out as f64,
        ratio(tally.failed() as f64, tally.attempted as f64),
        request_ns("http.parse"),
        request_ns("http.encode"),
        request_ns("wire.decode"),
        request_ns("wire.encode"),
        request_ns("wire.rows_decode") / 1e3,
        request_ns("lru.lookup"),
        request_ns("lru.insert"),
        ratio(tier("hit"), lookups),
        ratio(tier("prefix_hit"), lookups),
        ratio(tier("merged"), lookups),
        ratio(tier("miss"), lookups),
        ratio(
            server.reads("xinsight_result_cache_evictions_total"),
            lookups,
        ),
        Counters::get(server.reads, "xinsight_result_cache_bytes"),
        call_ns("registry.ingest") / 1e3,
        call_ns("registry.compact") / 1e3,
        ratio(compactions, tally.write_ns.len() as f64),
        ratio(
            server.run("xinsight_compaction_bytes_reclaimed_total"),
            compactions,
        ),
        call_ns("registry.load") / 1e6,
        call_ns("pipeline.execute") / 1e3,
        replayed.executes_per_read,
        call_ns("xtranslator.translate"),
        call_ns("xplainer.sum") / 1e3,
        call_ns("xplainer.avg") / 1e3,
        call_ns("xplainer.brute") / 1e3,
        replayed.evals_per_execute,
        {
            // A compaction installs a fresh selection cache, which resets the
            // exported counters; then the current caches' totals are used.
            let (hit, miss) = (selection("hit"), selection("miss"));
            if hit >= 0.0 && miss >= 0.0 && hit + miss > 0.0 {
                ratio(hit, hit + miss)
            } else {
                let total = |o: &str| {
                    Counters::get(
                        server.reads,
                        &format!("xinsight_selection_cache_total{{outcome=\"{o}\"}}"),
                    )
                };
                ratio(total("hit"), total("hit") + total("miss"))
            }
        },
        Counters::get(server.reads, "xinsight_selection_cache_entries"),
        call_ns("segment.delta") / 1e3,
        server.gauge_sum("xinsight_model_segments{"),
        call_ns("csv.read") / 1e6,
        call_ns("discretize") / 1e6,
        call_ns("fd.detect") / 1e6,
        call_ns("discovery.skeleton") / 1e6,
        ((call_ns("discovery.fci_skeleton") - call_ns("discovery.skeleton")) / 1e6).max(0.0),
        call_ns("discovery.orient") / 1e6,
        fit_median(|f| f.ci_tests as f64),
        fit_median(|f| f.ci_cache_hit_ratio),
        fit_median(|f| f.ci_test_us),
        call_ns("persist.save") / 1e6,
        call_ns("persist.load") / 1e6,
        t.unattributed_frac(&["request", "fit"]),
        ratio(mean(&replayed.traced), mean(&replayed.untraced)) - 1.0,
    ]);
    values
}

/// Writes `report.json` (inputs, host, metrics, self time per layer) and,
/// for traced runs, `spans.jsonl`, into the directory given by `--out`.
fn write_report(dir: &Path, args: &Args, outcome: &Outcome) -> Res<()> {
    std::fs::create_dir_all(dir).ctx("creating --out directory")?;
    let command_line = |program: &str, arg: &str| {
        std::process::Command::new(program)
            .arg(arg)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let mut self_ns = BTreeMap::new();
    if let Some(t) = &outcome.spans {
        self_ns = t.self_ns();
        std::fs::write(dir.join("spans.jsonl"), t.to_jsonl()).ctx("writing spans")?;
    }
    let self_time: Vec<String> = self_ns
        .iter()
        .map(|(name, ns)| format!("\"{name}\":{ns}"))
        .collect();
    let report = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"tiny\":{},\
         \"nproc\":{},\"commit\":\"{commit}\",\"rustc\":\"{}\",\"self_time_ns\":{{{}}},\"result\":{}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        args.tiny,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("rustc", "--version"),
        self_time.join(","),
        result_line(outcome)
    );
    std::fs::write(dir.join("report.json"), report).ctx("writing report")
}

/// Runs every workload at tiny scale, traced and untraced, and checks that
/// each emits exactly the metrics `BENCHMARK.json` names, with their units,
/// and answers correctly.
fn selftest(argv: &[String]) -> Res<()> {
    use xinsight_core::json::Json;
    let path = match argv {
        [flag, path] if flag == "--benchmark" => PathBuf::from(path),
        [] => PathBuf::from("BENCHMARK.json"),
        _ => return Err("usage: xbench --selftest [--benchmark PATH]".into()),
    };
    let text = std::fs::read_to_string(&path).ctx("reading BENCHMARK.json")?;
    let doc = Json::parse(&text).ctx("parsing BENCHMARK.json")?;
    let declared = |section: &str| -> Res<Vec<(String, String)>> {
        doc.get(section)
            .and_then(Json::as_arr)
            .ctx(section)?
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned).ctx(k);
                Ok((field("name")?, field("unit")?))
            })
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if declared("end_to_end")? != owned(&END_TO_END) || declared("per_layer")? != owned(&PER_LAYER)
    {
        return Err("BENCHMARK.json metric lists differ from the ones xbench emits".into());
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ctx("workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ctx("name")
        })
        .collect::<Res<_>>()?;
    if workloads != inputs::WORKLOADS {
        return Err(format!("BENCHMARK.json workloads {workloads:?} differ"));
    }
    for workload in inputs::WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_owned(),
                seed: 1,
                seconds: 1.5,
                trace,
                tiny: true,
                out: None,
            };
            let outcome = run(&args)?;
            let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let emitted: Vec<(&str, &str)> =
                outcome.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
            if !outcome.correct || emitted != table {
                return Err(format!(
                    "{workload} trace={trace}: wrong answers or metric set"
                ));
            }
            if let Some((name, _, value)) = outcome
                .metrics
                .iter()
                .find(|(_, _, v)| !v.is_finite() || (!trace && *v <= 0.0))
            {
                return Err(format!("{workload} trace={trace}: {name} = {value}"));
            }
            eprintln!(
                "selftest: {workload} trace={trace}: {} metrics ok",
                emitted.len()
            );
        }
    }
    Ok(())
}
