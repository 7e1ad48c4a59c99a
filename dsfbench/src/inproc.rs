//! `adversarial_inproc`: one `DenseFile<u64, u64>` running CONTROL 2 at
//! E17's geometry (2^20 pages, d = 8, D = 80), bulk-loaded with the
//! `Scenario::Adversarial` backbone and then driven through that
//! scenario's whole op stream on a single thread. No server, WAL or read
//! view: this isolates `dsf-core` under the paper's own worst case.
//!
//! The replay is structural commands only. The scenario stream is a pure
//! function of the geometry (the adversary ignores its seed); the seed
//! picks the reads of a separate phase after each replay — `READS` reads
//! of the final state, 90% gets of resident keys and 10% 64-record scans
//! (`read_mostly`'s mix) — which are checked against the plan.

use crate::util::{ns_since, Samples, SplitMix, Tally, Usage, SCAN_LIMIT};
use dsf_core::{Command, DenseFile, DenseFileConfig};
use dsf_workloads::{scenario_plan, Geometry, Op, Scenario};
use std::time::Instant;

/// Reads in the phase after each replay.
pub const READS: usize = 200_000;

/// The value stored under `key`.
pub fn value_of(key: u64) -> u64 {
    key.rotate_left(17) ^ 0x5bd1_e995_5bd1_e995
}

/// A generated adversarial plan with the facts its oracle needs.
pub struct Adversary {
    /// File configuration.
    pub cfg: DenseFileConfig,
    /// The paper's per-command bound `K·(3J+2)+2`.
    pub page_limit: u64,
    /// Backbone keys, ascending (bulk-loaded).
    pub backbone: Vec<u64>,
    /// The structural stream.
    pub ops: Vec<Op>,
    /// Inserted keys in stream order (ascending).
    inserts: Vec<u64>,
    /// Removes delete `backbone[..removes]` in order.
    removes: usize,
}

impl Adversary {
    /// The plan for a CONTROL 2 file of `pages` pages (d = 8, D = 80) and
    /// `ops_len` structural commands.
    pub fn new(pages: u32, ops_len: usize, seed: u64) -> Adversary {
        let cfg = DenseFileConfig::control2(pages, 8, 80);
        let rc = cfg.resolve().expect("valid adversary geometry");
        let geom = Geometry {
            slots: u64::from(rc.slots),
            slot_min: rc.slot_min,
            slot_max: rc.slot_max,
            log_slots: rc.log_slots,
        };
        let plan = scenario_plan(Scenario::Adversarial, &geom, seed, ops_len);
        let mut inserts = Vec::new();
        let mut removes = 0usize;
        for op in &plan.ops {
            match *op {
                Op::Insert(k) => inserts.push(k),
                Op::Remove(k) => {
                    // The oracle relies on the stream's documented shape:
                    // removes delete the backbone FIFO from its left end.
                    assert_eq!(k, plan.backbone[removes], "remove off the cold FIFO");
                    removes += 1;
                }
                other => panic!("adversarial stream holds a {other:?}"),
            }
        }
        assert!(
            inserts.windows(2).all(|w| w[0] < w[1]),
            "adversarial inserts not ascending"
        );
        Adversary {
            cfg,
            page_limit: u64::from(rc.k) * (3 * u64::from(rc.j) + 2) + 2,
            backbone: plan.backbone,
            ops: plan.ops,
            inserts,
            removes,
        }
    }

    /// A fresh file holding the backbone.
    pub fn load(&self) -> DenseFile<u64, u64> {
        let mut f = DenseFile::new(self.cfg).expect("valid adversary geometry");
        f.bulk_load(self.backbone.iter().map(|&k| (k, value_of(k))))
            .expect("backbone fits");
        f
    }

    /// Structural commands in the stream.
    pub fn commands(&self) -> usize {
        self.inserts.len() + self.removes
    }

    /// The stream as commands, each insert carrying `value(key)`.
    pub fn commands_with<V>(&self, value: impl Fn(u64) -> V) -> Vec<Command<u64, V>> {
        self.ops
            .iter()
            .map(|op| match *op {
                Op::Insert(k) => Command::Insert(k, value(k)),
                Op::Remove(k) => Command::Remove(k),
                _ => unreachable!("checked at plan time"),
            })
            .collect()
    }

    /// `n` get keys and `n / 9` scan starts, resident once the whole
    /// stream has run (what the ladder reads after its replay).
    pub fn final_reads(&self, n: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let res = self.resident();
        let mut rng = SplitMix::new(seed, 0x1add);
        let gets = (0..n).map(|_| res.pick(&mut rng)).collect();
        let scans = (0..n / 9).map(|_| res.pick(&mut rng)).collect();
        (gets, scans)
    }

    /// The keys resident once the whole stream has run.
    fn resident(&self) -> Resident<'_> {
        Resident {
            cold: &self.backbone[self.removes..],
            hot: &self.inserts,
        }
    }
}

/// A resident set: the backbone minus the keys the stream removed (a
/// prefix), plus the hot keys it inserted.
struct Resident<'a> {
    cold: &'a [u64],
    hot: &'a [u64],
}

impl Resident<'_> {
    fn pick(&self, rng: &mut SplitMix) -> u64 {
        let u = rng.below((self.cold.len() + self.hot.len()) as u64) as usize;
        if u < self.cold.len() {
            self.cold[u]
        } else {
            self.hot[u - self.cold.len()]
        }
    }

    /// The first `n` resident keys `≥ start`.
    fn scan(&self, start: u64, n: usize) -> Vec<u64> {
        let mut a = self.cold[self.cold.partition_point(|&k| k < start)..].iter();
        let mut b = self.hot[self.hot.partition_point(|&k| k < start)..].iter();
        let (mut x, mut y) = (a.next(), b.next());
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match (x, y) {
                (Some(&p), Some(&q)) if p < q => {
                    out.push(p);
                    x = a.next();
                }
                (_, Some(&q)) => {
                    out.push(q);
                    y = b.next();
                }
                (Some(&p), None) => {
                    out.push(p);
                    x = a.next();
                }
                (None, None) => break,
            }
        }
        out
    }
}

/// What one replay of the whole stream, and the reads after it, measured.
#[derive(Debug, Default)]
pub struct Round {
    /// `DenseFile::new` + `bulk_load`, seconds.
    pub setup_s: f64,
    /// Wall time of the replay loop, seconds.
    pub replay_s: f64,
    /// Wall time of the read phase, seconds.
    pub read_s: f64,
    /// Call latencies.
    pub samples: Samples,
    /// Process resource use over the replay.
    pub usage: Usage,
    /// `OpStats`: (commands, page accesses, worst command).
    pub pages: (u64, u64, u64),
    /// Answers and checks.
    pub tally: Tally,
}

/// Loads the backbone, replays the stream, checks the per-command bound
/// (and, when `audit`, every file invariant), then reads the final state.
pub fn run_round(adv: &Adversary, rng: &mut SplitMix, audit: bool) -> Round {
    let mut r = Round::default();
    let t0 = Instant::now();
    let mut file = adv.load();
    r.setup_s = t0.elapsed().as_secs_f64();

    r.samples.writes.reserve(adv.ops.len());
    let usage0 = Usage::now();
    let start = Instant::now();
    for (i, op) in adv.ops.iter().enumerate() {
        let t = Instant::now();
        let ok = match *op {
            Op::Insert(k) => matches!(file.insert(k, value_of(k)), Ok(None)),
            Op::Remove(k) => file.remove(&k) == Some(value_of(k)),
            _ => unreachable!("checked at plan time"),
        };
        r.samples.writes.push(ns_since(t));
        r.tally.attempted += 1;
        if !ok {
            r.tally
                .fail(|| format!("structural command {i} ({op:?}) misapplied"));
        }
    }
    r.replay_s = start.elapsed().as_secs_f64();
    r.usage = Usage::now().since(usage0);

    let st = file.op_stats();
    r.pages = (st.commands, st.total_accesses, st.max_accesses);
    r.tally.check(st.commands == adv.commands() as u64, || {
        format!(
            "{} commands counted, {} issued",
            st.commands,
            adv.commands()
        )
    });
    r.tally.check(st.max_accesses <= adv.page_limit, || {
        format!(
            "worst command {} pages > K(3J+2)+2 = {}",
            st.max_accesses, adv.page_limit
        )
    });
    if audit {
        let audit = file.check_invariants();
        r.tally
            .check(audit.is_ok(), || format!("invariant audit: {audit:?}"));
    }

    let res = adv.resident();
    let start = Instant::now();
    for _ in 0..READS {
        read_once(&file, &res, rng, &mut r);
    }
    r.read_s = start.elapsed().as_secs_f64();
    r
}

fn read_once(file: &DenseFile<u64, u64>, res: &Resident<'_>, rng: &mut SplitMix, r: &mut Round) {
    r.tally.attempted += 1;
    let key = res.pick(rng);
    if rng.below(10) == 0 {
        let t = Instant::now();
        let got: Vec<(u64, u64)> = file
            .range(key..)
            .take(SCAN_LIMIT)
            .map(|(k, v)| (*k, *v))
            .collect();
        r.samples.scans.push(ns_since(t));
        let want = res.scan(key, SCAN_LIMIT);
        let ok = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(&(k, v), &w)| k == w && v == value_of(k));
        if !ok {
            r.tally
                .fail(|| format!("scan from {key} disagrees with the plan"));
        }
    } else {
        let t = Instant::now();
        let got = file.get(&key).copied();
        r.samples.gets.push(ns_since(t));
        if got != Some(value_of(key)) {
            r.tally.fail(|| format!("get {key}: {got:?}"));
        }
    }
}
