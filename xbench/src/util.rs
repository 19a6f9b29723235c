//! Small shared helpers: the error type, a seeded generator, a Zipf sampler
//! and order statistics.

use std::time::Duration;

/// Every fallible step reports a human-readable reason; the benchmark only
/// ever prints it and exits non-zero.
pub type Res<T> = Result<T, String>;

/// Attaches context to any displayable error.
pub trait Ctx<T> {
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// SplitMix64: a tiny, seedable, well-mixed generator.  Every input the
/// benchmark makes comes from one of these, keyed by `(seed, stream)`, so
/// the same seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.f64() * n as f64) as usize % n
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.f64()).ln()
    }
}

/// Zipf(s) over `0..n` behind a seeded random permutation, so which keys
/// are hot also depends on the seed.
pub struct Zipf {
    cdf: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, order }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.order[rank]
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// CPU ticks of the whole machine so far: `(stolen by the host, total)`,
/// from the first line of `/proc/stat`.
pub fn cpu_ticks() -> Res<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ctx("reading /proc/stat")?;
    let line = stat.lines().next().ok_or("empty /proc/stat")?;
    // user nice system idle iowait irq softirq steal
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Ok((ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()))
}

/// Share of the machine's CPU time the host stole since `since`.
pub fn stolen_since(since: (u64, u64)) -> Res<f64> {
    let (steal, total) = cpu_ticks()?;
    let elapsed = total.saturating_sub(since.1);
    Ok(if elapsed == 0 {
        0.0
    } else {
        steal.saturating_sub(since.0) as f64 / elapsed as f64
    })
}

/// Indices, in order, of the quietest five eighths of `steal` (at least
/// one): the repeats during which the host stole the least CPU time.  A
/// repeat that lost its vCPU for a while measures the host, not the
/// program.
pub fn quiet(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate((steal.len() * 5).div_ceil(8).max(1));
    order.sort_unstable();
    order
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time (ns) a process has run on all its threads, exited ones
/// included: this process with `None`, another with `Some(pid)`.  The
/// kernel's task clock leaves out time a virtual CPU was stolen by its
/// host, so on a shared machine this moves far less than wall time.
pub fn cpu_ns(pid: Option<u32>) -> Res<u64> {
    // CLOCK_PROCESS_CPUTIME_ID, or the process-wide scheduler clock of
    // `pid` as the kernel encodes it (MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)).
    let clock = pid.map_or(2, |pid| (!(pid as i32) << 3) | 2);
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!("reading the CPU clock of {pid:?}"));
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn vm_hwm_mb(pid: &str) -> Res<f64> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).ctx("reading proc status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in proc status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kb / 1024.0)
}
