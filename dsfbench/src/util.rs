//! Small shared pieces: a seeded generator, a Zipf sampler, percentile and
//! median helpers, process resource usage, and the metric record the
//! benchmark prints.

use std::time::Instant;

/// Records asked for by every scan, on every workload.
pub const SCAN_LIMIT: usize = 64;

/// SplitMix64: a tiny, fully deterministic generator. Every input the
/// benchmark feeds the program comes from one of these, seeded from
/// `--seed`, so the same seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a `stream` index (connections, phases).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        g.next_u64();
        g
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by 128-bit multiply.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Zipf(θ) over ranks `0..n` by inverse CDF (rank 0 hottest).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The sampler for `n > 0` ranks.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf over no ranks");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Latency samples (ns) of one round's measured windows.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Structural commands.
    pub writes: Vec<u32>,
    /// Point lookups.
    pub gets: Vec<u32>,
    /// Scans.
    pub scans: Vec<u32>,
}

impl Samples {
    /// Appends `other`'s samples.
    pub fn extend(&mut self, other: &Samples) {
        self.writes.extend_from_slice(&other.writes);
        self.gets.extend_from_slice(&other.gets);
        self.scans.extend_from_slice(&other.scans);
    }

    /// Reads (gets and scans) sampled.
    pub fn reads(&self) -> usize {
        self.gets.len() + self.scans.len()
    }
}

/// Nanoseconds since `t0`, saturated into a `u32` (4.29 s ceiling).
pub fn ns_since(t0: Instant) -> u32 {
    u32::try_from(t0.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `v` in microseconds (sorts `v`).
/// `None` for an empty sample.
pub fn percentile_us(v: &mut [u32], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(f64::from(v[rank - 1]) / 1e3)
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Mean of `v` (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Process CPU and context-switch counters (all threads, including ones
/// that have exited), from `getrusage(RUSAGE_SELF)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU, microseconds.
    pub user_us: f64,
    /// System CPU, microseconds.
    pub sys_us: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: f64,
}

impl Usage {
    /// Reads the current counters.
    pub fn now() -> Usage {
        #[repr(C)]
        struct Timeval {
            sec: i64,
            usec: i64,
        }
        #[repr(C)]
        struct Rusage {
            utime: Timeval,
            stime: Timeval,
            // maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
            // oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw
            longs: [i64; 14],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_SELF: i32 = 0;
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `ru` is a live, writable `struct rusage` with the Linux
        // x86-64/aarch64 layout (two timevals, then fourteen longs), and
        // getrusage writes nothing beyond it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let tv = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
        Usage {
            user_us: tv(&ru.utime),
            sys_us: tv(&ru.stime),
            ctx_switches: (ru.longs[12] + ru.longs[13]) as f64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    /// User plus system CPU, microseconds.
    pub fn cpu_us(&self) -> f64 {
        self.user_us + self.sys_us
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (latencies), printed beside it.
    pub samples: Option<u64>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// A metric backed by `n` samples.
    pub fn sampled(name: &'static str, value: f64, unit: &'static str, n: u64) -> Self {
        Metric {
            name,
            value,
            unit,
            samples: Some(n),
        }
    }
}

/// Pass/fail bookkeeping: every operation the benchmark issues is
/// attempted; every wrong answer, error reply or missing ack fails one.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations answered wrongly (or not at all).
    pub failed: u64,
    /// Whole-run checks that failed (audits, reopen, determinism).
    pub checks_failed: u64,
    /// The first few failure reasons, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    fn note(&mut self, why: String) {
        if self.reasons.len() < 20 {
            self.reasons.push(why);
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        self.note(why());
    }

    /// Records a whole-run check.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed += 1;
            self.note(why());
        }
    }

    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks_failed += other.checks_failed;
        for r in other.reasons {
            self.note(r);
        }
    }

    /// Whether every answer and every check was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_failed == 0
    }
}
