//! # dsf-workloads — deterministic workload generators
//!
//! Every experiment in this repository replays a deterministic operation
//! stream built here. The generators cover the access patterns the paper's
//! introduction reasons about:
//!
//! * **uniform** — inserts spread over the whole key universe (the friendly
//!   case every heuristic handles);
//! * **ascending / descending** — append/prepend-style loads;
//! * **burst** — "a large surge of insertions … in a relatively small
//!   portion of the sequential file", the pattern that breaks overflow
//!   chaining (§1);
//! * **hammer** — an adversarial stream that aims every insertion at one
//!   fixed point of the key space, maximizing local density pressure (the
//!   workload the worst-case bound is measured against);
//! * **hotspot / mixed** — skewed and insert/delete-mixed streams for
//!   steady-state behaviour.
//!
//! All functions are pure in their `seed`: the same arguments always yield
//! the same stream, so experiments are reproducible run to run.
//!
//! The [`scenario`] module composes these primitives into the five named
//! end-to-end scenarios of the E17 scale matrix (adversarial, zipfian,
//! time-series, delete-churn, scan-while-write), each a backbone + op
//! stream derived purely from a file [`Geometry`] and a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenario;
pub use scenario::{
    backbone_keys, scenario_plan, Geometry, Scenario, ScenarioPlan, SCENARIO_STRIDE,
};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// One operation of a workload stream (keys are `u64`; values are derived
/// from keys by the harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert this key.
    Insert(u64),
    /// Delete this key.
    Remove(u64),
    /// Look this key up.
    Get(u64),
    /// Stream `limit` records starting at `start`.
    Scan {
        /// First key of the stream request.
        start: u64,
        /// Records to retrieve.
        limit: usize,
    },
}

/// `n` distinct keys drawn uniformly from `[lo, hi)`, in insertion order.
///
/// # Panics
///
/// Panics if the interval cannot supply `n` distinct keys.
pub fn uniform_unique(seed: u64, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    assert!(hi > lo, "empty interval");
    assert!(
        (hi - lo) as u128 >= n as u128,
        "interval too small for {n} distinct keys"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let k = rng.gen_range(lo..hi);
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

/// `n` ascending keys `start, start+step, …`.
pub fn ascending(n: usize, start: u64, step: u64) -> Vec<u64> {
    assert!(step > 0, "step must be non-zero");
    (0..n as u64).map(|i| start + i * step).collect()
}

/// `n` descending keys `start, start−step, …`.
pub fn descending(n: usize, start: u64, step: u64) -> Vec<u64> {
    assert!(step > 0, "step must be non-zero");
    assert!(
        start >= step * (n as u64).saturating_sub(1),
        "descending stream would underflow"
    );
    (0..n as u64).map(|i| start - i * step).collect()
}

/// A surge: `n` distinct keys confined to the narrow window `[lo, hi)`,
/// shuffled. Aimed at a file whose resident keys span a much wider range,
/// this is the paper's "large surge of insertions in a relatively small
/// portion of the sequential file".
pub fn burst(seed: u64, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    uniform_unique(seed, n, lo, hi)
}

/// The adversarial hammer: every key lands immediately above `point`, in
/// descending order (`point + n·step, point + (n−1)·step, …`), so each
/// insertion goes to the *same* page region and density pressure at that
/// point is maximal. This is the stream that exercises the worst-case
/// guarantee.
pub fn hammer(n: usize, point: u64, step: u64) -> Vec<u64> {
    assert!(step > 0, "step must be non-zero");
    (0..n as u64)
        .map(|i| point + (n as u64 - i) * step)
        .collect()
}

/// A skewed insert stream: with probability `hot_ratio` the key falls in
/// `[hot_lo, hot_hi)`, otherwise anywhere in `[0, universe)`. Keys are
/// deduplicated; the stream may therefore be slightly shorter than `n`.
pub fn hotspot(
    seed: u64,
    n: usize,
    hot_lo: u64,
    hot_hi: u64,
    universe: u64,
    hot_ratio: f64,
) -> Vec<u64> {
    assert!(
        hot_lo < hot_hi && hot_hi <= universe,
        "hot range must nest in the universe"
    );
    assert!(
        (0.0..=1.0).contains(&hot_ratio),
        "hot_ratio must be a probability"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n * 4 {
        if out.len() >= n {
            break;
        }
        let k = if rng.gen_bool(hot_ratio) {
            rng.gen_range(hot_lo..hot_hi)
        } else {
            rng.gen_range(0..universe)
        };
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

/// A mixed stream of `n` operations: inserts with probability
/// `insert_ratio`, deletes of previously-inserted keys otherwise (falling
/// back to an insert while nothing is resident). Keys come from
/// `[0, universe)`.
pub fn mixed_ops(seed: u64, n: usize, insert_ratio: f64, universe: u64) -> Vec<Op> {
    assert!(
        (0.0..=1.0).contains(&insert_ratio),
        "insert_ratio must be a probability"
    );
    assert!(universe > 0, "universe must be non-empty");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut resident: Vec<u64> = Vec::new();
    let mut resident_set: HashSet<u64> = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        if resident.is_empty() || rng.gen_bool(insert_ratio) {
            let k = rng.gen_range(0..universe);
            if resident_set.insert(k) {
                resident.push(k);
                out.push(Op::Insert(k));
            }
        } else {
            let i = rng.gen_range(0..resident.len());
            let k = resident.swap_remove(i);
            resident_set.remove(&k);
            out.push(Op::Remove(k));
        }
    }
    out
}

/// `n` stream-retrieval requests of `limit` records each, starting at
/// uniform points of `[0, universe)`.
pub fn scan_points(seed: u64, n: usize, universe: u64, limit: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Op::Scan {
            start: rng.gen_range(0..universe),
            limit,
        })
        .collect()
}

/// Shuffles a key stream deterministically (e.g. to randomize an ascending
/// stream while keeping the key *set* identical).
pub fn shuffled(seed: u64, mut keys: Vec<u64>) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    keys.shuffle(&mut rng);
    keys
}

/// A bounded Zipf(θ) sampler over ranks `0..n`, using the inverse-CDF
/// method over a precomputed table (exact, no rejection).
///
/// Rank 0 is the hottest. θ = 0 degenerates to uniform; θ ≈ 0.99 is the
/// classic YCSB skew.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty domain");
        assert!(theta.is_finite() && theta >= 0.0, "theta must be ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A rolling time-series window: `n` paired operations that append a fresh
/// record at the advancing right edge and expire the oldest at the left,
/// starting from an existing window `[window_lo, window_hi)` of keys spaced
/// `step` apart. The classic log/metrics retention pattern — the file's
/// contents slide rightward at constant size.
pub fn rolling_window(n: usize, window_lo: u64, window_hi: u64, step: u64) -> Vec<Op> {
    assert!(step > 0, "step must be non-zero");
    assert!(window_hi > window_lo, "window must be non-empty");
    let mut ops = Vec::with_capacity(n * 2);
    let mut left = window_lo;
    let mut right = window_hi;
    for _ in 0..n {
        ops.push(Op::Insert(right));
        ops.push(Op::Remove(left));
        right += step;
        left += step;
    }
    ops
}

// ---------------------------------------------------------------------
// Trace files: record and replay op streams.
// ---------------------------------------------------------------------

/// Serializes an op stream to the trace text format (one op per line:
/// `i <key>`, `r <key>`, `g <key>`, `s <start> <limit>`; `#` comments).
pub fn write_trace(ops: &[Op]) -> String {
    let mut out = String::with_capacity(ops.len() * 12);
    out.push_str("# dsf-workloads trace v1\n");
    for op in ops {
        match *op {
            Op::Insert(k) => out.push_str(&format!("i {k}\n")),
            Op::Remove(k) => out.push_str(&format!("r {k}\n")),
            Op::Get(k) => out.push_str(&format!("g {k}\n")),
            Op::Scan { start, limit } => out.push_str(&format!("s {start} {limit}\n")),
        }
    }
    out
}

/// Parses the trace text format written by [`write_trace`].
pub fn read_trace(text: &str) -> Result<Vec<Op>, String> {
    let mut ops = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line");
        let mut num = |what: &str| -> Result<u64, String> {
            parts
                .next()
                .ok_or_else(|| format!("line {}: missing {what}", lineno + 1))?
                .parse()
                .map_err(|_| format!("line {}: bad {what}", lineno + 1))
        };
        let op = match tag {
            "i" => Op::Insert(num("key")?),
            "r" => Op::Remove(num("key")?),
            "g" => Op::Get(num("key")?),
            "s" => Op::Scan {
                start: num("start")?,
                limit: num("limit")? as usize,
            },
            other => return Err(format!("line {}: unknown op `{other}`", lineno + 1)),
        };
        ops.push(op);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_unique_is_deterministic_and_unique() {
        let a = uniform_unique(1, 1000, 0, 1 << 40);
        let b = uniform_unique(1, 1000, 0, 1 << 40);
        assert_eq!(a, b);
        let c = uniform_unique(2, 1000, 0, 1 << 40);
        assert_ne!(a, c);
        let set: HashSet<u64> = a.iter().copied().collect();
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn uniform_unique_exhausts_small_intervals() {
        let mut v = uniform_unique(9, 10, 100, 110);
        v.sort_unstable();
        assert_eq!(v, (100..110).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "interval too small")]
    fn uniform_unique_rejects_impossible_requests() {
        uniform_unique(0, 11, 0, 10);
    }

    #[test]
    fn ascending_descending_shapes() {
        assert_eq!(ascending(4, 10, 5), vec![10, 15, 20, 25]);
        assert_eq!(descending(4, 25, 5), vec![25, 20, 15, 10]);
    }

    #[test]
    fn burst_stays_in_window() {
        let v = burst(3, 500, 1000, 3000);
        assert!(v.iter().all(|&k| (1000..3000).contains(&k)));
        let set: HashSet<u64> = v.iter().copied().collect();
        assert_eq!(set.len(), 500);
    }

    #[test]
    fn hammer_descends_onto_the_point() {
        let v = hammer(5, 100, 2);
        assert_eq!(v, vec![110, 108, 106, 104, 102]);
        assert!(v.iter().all(|&k| k > 100));
    }

    #[test]
    fn hotspot_respects_the_ratio_roughly() {
        let v = hotspot(5, 10_000, 0, 1 << 20, 1 << 30, 0.8);
        let hot = v.iter().filter(|&&k| k < (1 << 20)).count() as f64 / v.len() as f64;
        assert!(hot > 0.5, "expected mostly-hot stream, got {hot:.2}");
    }

    #[test]
    fn mixed_ops_remove_only_resident_keys() {
        let ops = mixed_ops(11, 2000, 0.6, 1 << 20);
        assert_eq!(ops.len(), 2000);
        let mut resident = HashSet::new();
        for op in &ops {
            match op {
                Op::Insert(k) => {
                    assert!(resident.insert(*k), "insert of an already-resident key");
                }
                Op::Remove(k) => {
                    assert!(resident.remove(k), "remove of a non-resident key");
                }
                _ => unreachable!("mixed_ops only emits inserts/removes"),
            }
        }
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 0 is far hotter than rank 500.
        assert!(
            counts[0] > 20 * counts[500].max(1),
            "{} vs {}",
            counts[0],
            counts[500]
        );
        // θ = 0 is uniform-ish: the head is not special.
        let z0 = Zipf::new(1000, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts0 = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts0[z0.sample(&mut rng)] += 1;
        }
        assert!(counts0[0] < 4 * counts0[500].max(1));
    }

    #[test]
    fn rolling_window_slides_at_constant_size() {
        let ops = rolling_window(5, 100, 110, 2);
        assert_eq!(ops.len(), 10);
        assert_eq!(ops[0], Op::Insert(110));
        assert_eq!(ops[1], Op::Remove(100));
        assert_eq!(ops[8], Op::Insert(118));
        assert_eq!(ops[9], Op::Remove(108));
    }

    #[test]
    fn trace_round_trip() {
        let ops = vec![
            Op::Insert(5),
            Op::Remove(7),
            Op::Get(9),
            Op::Scan {
                start: 100,
                limit: 42,
            },
        ];
        let text = write_trace(&ops);
        assert_eq!(read_trace(&text).unwrap(), ops);
        // Comments and blanks are tolerated; junk is not.
        assert_eq!(read_trace("# x\n\n i 3 \n").unwrap(), vec![Op::Insert(3)]);
        assert!(read_trace("q 1").is_err());
        assert!(read_trace("i").is_err());
        assert!(read_trace("s 1").is_err());
    }

    #[test]
    fn scan_points_and_shuffle_are_deterministic() {
        assert_eq!(scan_points(4, 10, 1000, 50), scan_points(4, 10, 1000, 50));
        let keys = ascending(100, 0, 1);
        let s1 = shuffled(8, keys.clone());
        let s2 = shuffled(8, keys.clone());
        assert_eq!(s1, s2);
        assert_ne!(s1, keys);
        let mut sorted = s1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, keys);
    }
}
