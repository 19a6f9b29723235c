//! The load generator: one process, at most `nproc` threads and
//! connections.  Closed loops keep one request in flight per connection;
//! the open loop sends on a seeded Poisson schedule over one pipelined
//! keep-alive connection and times each request from its intended send
//! instant.

use crate::inputs::{Batch, Key};
use crate::net::{Conn, Reader};
use crate::util::{median, nanos, quantile, Ctx, Res, Rng, Zipf};
use std::io::Write;
use std::net::{Shutdown, SocketAddr};
use std::time::{Duration, Instant};
use xinsight_core::json::Json;

/// What a phase may send and how to check the answers.
pub struct Mix<'a> {
    pub keys: &'a [Key],
    pub batches: &'a [Batch],
    pub zipf: &'a Zipf,
    /// Share of ops that are `/v2/ingest`.
    pub ingest_share: f64,
    /// When the store does not change under the phase: the exact
    /// `,"result":…}` tail every answer to key `i` must end with.
    pub tails: Option<&'a [String]>,
}

#[derive(Clone, Copy)]
pub enum Op {
    Read(usize),
    Write(usize),
}

impl Mix<'_> {
    pub fn draw(&self, rng: &mut Rng) -> Op {
        if self.ingest_share > 0.0 && rng.f64() < self.ingest_share {
            Op::Write(rng.below(self.batches.len()))
        } else {
            Op::Read(self.zipf.sample(rng))
        }
    }

    pub fn request(&self, op: Op) -> &[u8] {
        match op {
            Op::Read(k) => &self.keys[k].request,
            Op::Write(b) => &self.batches[b].request,
        }
    }
}

/// Outcomes of one or more phases.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub shed: u64,
    pub timed_out: u64,
    pub errors: u64,
    pub wrong: u64,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub lag_ns: Vec<u64>,
    /// `(generation, batch)` of every accepted ingest, for replay.
    pub ingests: Vec<(u64, usize)>,
    pub secs: f64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.shed + self.timed_out + self.errors + self.wrong
    }

    pub fn completed(&self) -> u64 {
        self.ok + self.wrong
    }

    pub fn reads(&self) -> &[u64] {
        &self.read_ns
    }

    pub fn writes(&self) -> &[u64] {
        &self.write_ns
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.lag_ns.extend(other.lag_ns);
        self.ingests.extend(other.ingests);
        self.secs += other.secs;
    }

    /// Records one answered op that took `ns`.
    pub fn record(&mut self, mix: &Mix, op: Op, status: u16, body: &[u8], ns: u64) {
        self.attempted += 1;
        match status {
            200 => {}
            503 => return self.shed += 1,
            408 => return self.timed_out += 1,
            _ => return self.errors += 1,
        }
        let right = match op {
            Op::Read(k) => {
                self.read_ns.push(ns);
                match mix.tails {
                    Some(tails) => body.ends_with(tails[k].as_bytes()),
                    None => {
                        let tag = b",\"result\":{";
                        body.windows(tag.len()).any(|w| w == tag)
                    }
                }
            }
            Op::Write(b) => {
                self.write_ns.push(ns);
                match ingest_generation(body, mix.batches[b].rows) {
                    Some(generation) => {
                        self.ingests.push((generation, b));
                        true
                    }
                    None => false,
                }
            }
        };
        if right {
            self.ok += 1;
        } else {
            self.wrong += 1;
        }
    }
}

/// Median over rounds of completed ops per second.
pub fn rate(rounds: &[&Tally]) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.completed() as f64 / r.secs)
        .collect();
    median(&rates)
}

/// Median over rounds of a latency quantile, in µs.  Adjacent rounds are
/// pooled until each pool holds ten samples beyond the quantile.
pub fn across(rounds: &[&Tally], samples: fn(&Tally) -> &[u64], q: f64) -> f64 {
    let needed = (10.0 / (1.0 - q)).ceil() as usize;
    let total: usize = rounds.iter().map(|r| samples(r).len()).sum();
    let pools = (total / needed).clamp(1, rounds.len().max(1));
    let per_pool = rounds.len().div_ceil(pools).max(1);
    let values: Vec<f64> = rounds
        .chunks(per_pool)
        .map(|pool| {
            let mut v: Vec<u64> = pool
                .iter()
                .flat_map(|r| samples(r).iter().copied())
                .collect();
            v.sort_unstable();
            quantile(&v, q) as f64 / 1e3
        })
        .collect();
    median(&values)
}

/// An ingest answer reconciles when the rows sealed plus the rows dropped
/// for missing cells equal the rows sent; returns the swap generation.
pub fn ingest_generation(body: &[u8], sent: usize) -> Option<u64> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let sealed = doc.get("ingested").ok()?.as_u64().ok()?;
    let dropped = doc.get("dropped_null_rows").ok()?.as_u64().ok()?;
    (sealed + dropped == sent as u64).then_some(())?;
    doc.get("generation").ok()?.as_u64().ok()
}

/// Closed loop: `threads` connections, each sending its next op as soon as
/// the previous answer arrives, for `secs` seconds or `max_ops` ops in all.
pub fn closed(
    addr: SocketAddr,
    mix: &Mix,
    secs: f64,
    max_ops: u64,
    threads: usize,
    seed: u64,
    stream: u64,
) -> Res<Tally> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let results: Vec<Res<Tally>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                s.spawn(move || -> Res<Tally> {
                    let mut rng = Rng::new(seed, stream * 64 + i as u64);
                    let mut conn = Conn::connect(addr)?;
                    let mut tally = Tally::default();
                    let mut body = Vec::new();
                    let mut left = max_ops.div_ceil(threads as u64);
                    while left > 0 && Instant::now() < deadline {
                        left -= 1;
                        let op = mix.draw(&mut rng);
                        let sent = Instant::now();
                        let status = conn.call(mix.request(op), &mut body)?;
                        tally.record(mix, op, status, &body, nanos(sent.elapsed()));
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut tally = Tally::default();
    for r in results {
        tally.absorb(r?);
    }
    tally.secs = started.elapsed().as_secs_f64();
    Ok(tally)
}

/// Open loop at a fixed absolute `rate`: a sender thread writes each op at
/// its scheduled instant (pipelining on one keep-alive connection), the
/// calling thread reads the in-order answers.  Latency runs from the
/// intended send instant, so a stall is charged to every op it delays;
/// the sender's own lateness is reported as lag.
// thread::sleep allowed: load-generation pacing, on the generator's own
// sender thread (see clippy.toml).
#[allow(clippy::disallowed_methods)]
pub fn open(addr: SocketAddr, mix: &Mix, secs: f64, rate: f64, seed: u64) -> Res<Tally> {
    let mut rng = Rng::new(seed, 4096);
    let mut schedule = Vec::new();
    let mut at = 0.0;
    loop {
        at += rng.exp(1.0 / rate);
        if at >= secs {
            break;
        }
        schedule.push(((at * 1e9) as u64, mix.draw(&mut rng)));
    }
    let (mut writer, mut reader): (std::net::TcpStream, Reader) = Conn::connect(addr)?.split();
    let closer = writer.try_clone().ctx("cloning socket")?;
    let start = Instant::now() + Duration::from_millis(5);
    let schedule = &schedule;
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> Res<Vec<u64>> {
            let mut lag = Vec::with_capacity(schedule.len());
            for &(offset, op) in schedule {
                let due = start + Duration::from_nanos(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lag.push(nanos(Instant::now().saturating_duration_since(due)));
                if let Err(e) = writer.write_all(mix.request(op)) {
                    let _ = writer.shutdown(Shutdown::Both);
                    return Err(format!("open-loop send: {e}"));
                }
            }
            Ok(lag)
        });
        let mut tally = Tally::default();
        let mut body = Vec::new();
        let mut received = Ok(());
        for &(offset, op) in schedule {
            match reader.recv(&mut body) {
                Ok(status) => {
                    let due = start + Duration::from_nanos(offset);
                    let ns = nanos(Instant::now().saturating_duration_since(due));
                    tally.record(mix, op, status, &body, ns);
                }
                Err(e) => {
                    let _ = closer.shutdown(Shutdown::Both);
                    received = Err(e);
                    break;
                }
            }
        }
        let lag = sender
            .join()
            .unwrap_or_else(|_| Err("sender panicked".into()))?;
        received?;
        tally.lag_ns = lag;
        tally.secs = start.elapsed().as_secs_f64();
        Ok(tally)
    })
}
