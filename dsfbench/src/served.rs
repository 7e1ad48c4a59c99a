//! The served workloads: `Server` over `DurableKv`, driven over loopback
//! TCP by at most two closed-loop client connections.
//!
//! * `served_ingest` — each connection owns one shard's key stripe and
//!   sends Strict inserts of fresh uniform keys alternating with removes
//!   of uniformly chosen resident keys (the live set stays constant).
//!   Only once both writers have stopped does a separate read-back phase
//!   send gets and scans of the resident keys, so reads never share the
//!   write window. `served_ingest_relaxed` is the same load with Relaxed
//!   writes on a store that does not fsync until shutdown.
//! * `read_mostly` — connection 0 sends Zipf(0.99) `Get`s (90%) and
//!   `Scan{limit: 64}`s (10%) against a static read set; connection 1
//!   churns keys disjoint from it with Strict writes at depth 1.
//!
//! Every reply is checked against the client-side model. Per-shard
//! command order is fixed by the seed alone (each shard has exactly one
//! writing connection), so the exact page counts read at the checkpoint
//! repeat run to run.

use crate::util::{ns_since, percentile_us, Samples, SplitMix, Tally, Usage, Zipf, SCAN_LIMIT};
use dsf_core::{Command, DenseFile, DenseFileConfig, OpStats};
use dsf_durable::{Durability, SyncPolicy};
use dsf_server::{Client, DurableKv, KvService, Outcome, Request, Response, Server, ServerConfig};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The command type the service takes.
pub type KvCommand = Command<u64, String>;

/// `dsf serve`'s default group-commit policy, under which every Strict ack
/// waits for an fsync.
pub const POLICY: SyncPolicy = SyncPolicy::CommitWindow {
    max_frames: 64,
    max_micros: 2000,
};

/// Records per preload batch (one `KvService::apply_batch` call).
pub const PRELOAD_BATCH: usize = 4096;

/// Seed of the fixed rank → key-position scramble of `read_mostly`.
const RANK_SCRAMBLE: u64 = 0x5c4a_3b1e;

/// Seed of the fixed preloaded dataset (keys and load order).
pub const DATASET_SEED: u64 = 0;

/// Which served workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedKind {
    /// Strict churn on both shards, one connection per shard.
    Ingest,
    /// Zipf reads on one connection, Strict churn at depth 1 on the other.
    ReadMostly,
}

/// Store geometry and load shape of a served workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Shards (one `DurableFile` each).
    pub shards: u32,
    /// Pages per shard.
    pub pages: u32,
    /// Lower density `d`.
    pub min_density: u32,
    /// Upper density `D`.
    pub max_density: u32,
    /// Requests in flight on a pipelined connection.
    pub depth: usize,
    /// Preloaded records as a share of capacity.
    pub fill: f64,
    /// `read_mostly`: churn keys resident per shard (inside the fill).
    pub churn_pool: usize,
    /// Structural commands per shard after which the exact page counts
    /// are read (the connection drains its pipeline first).
    pub checkpoint_cmds: u64,
    /// `served_ingest`'s write durability.
    pub ack: Durability,
    /// The store's WAL sync policy.
    pub policy: SyncPolicy,
}

impl Shape {
    /// The geometry the benchmark measures: 2 shards of
    /// `control2(1<<14, 8, 48)`.
    pub fn standard(kind: ServedKind) -> Shape {
        match kind {
            ServedKind::Ingest => Shape {
                shards: 2,
                pages: 1 << 14,
                min_density: 8,
                max_density: 48,
                depth: 8,
                fill: 0.5,
                churn_pool: 0,
                checkpoint_cmds: 20_000,
                ack: Durability::Strict,
                policy: POLICY,
            },
            ServedKind::ReadMostly => Shape {
                fill: 0.75,
                churn_pool: 4096,
                checkpoint_cmds: 2000,
                ..Shape::standard(ServedKind::Ingest)
            },
        }
    }

    /// `shape` with Relaxed writes on a store that never fsyncs on its
    /// own (`SyncPolicy::Manual`): no ack waits for the disk, and shutdown
    /// still flushes every acknowledged command.
    pub fn relaxed(self) -> Shape {
        Shape {
            ack: Durability::Relaxed,
            policy: SyncPolicy::Manual,
            ..self
        }
    }

    /// A small geometry for the benchmark's own tests.
    pub fn tiny(kind: ServedKind) -> Shape {
        Shape {
            pages: 1 << 9,
            churn_pool: if kind == ServedKind::ReadMostly {
                256
            } else {
                0
            },
            checkpoint_cmds: 200,
            ..Shape::standard(kind)
        }
    }

    /// Per-shard file configuration.
    pub fn config(&self) -> DenseFileConfig {
        DenseFileConfig::control2(self.pages, self.min_density, self.max_density)
    }

    /// Record capacity of one shard.
    pub fn shard_capacity(&self) -> u64 {
        self.config()
            .resolve()
            .expect("valid shard config")
            .capacity()
    }

    /// The shard `key` routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        (0..self.shards as usize)
            .find(|&s| key <= self.stripe(s).1)
            .expect("the last stripe ends at u64::MAX")
    }

    /// `[lo, hi]` key range routed to shard `s` (`DurableKv`'s stripes).
    pub fn stripe(&self, s: usize) -> (u64, u64) {
        let width = (u64::MAX / u64::from(self.shards)).saturating_add(1);
        let lo = width * s as u64;
        let hi = if s + 1 == self.shards as usize {
            u64::MAX
        } else {
            lo + (width - 1)
        };
        (lo, hi)
    }
}

/// The value stored under `key` (a pure function, so any reply can be
/// checked without remembering values).
pub fn value_of(key: u64) -> String {
    format!("{key:016x}")
}

/// A resident key set supporting uniform picks, O(1) removal and
/// ordered scans.
#[derive(Debug, Clone, Default)]
pub struct Pool {
    keys: Vec<u64>,
    index: HashMap<u64, usize>,
    sorted: BTreeSet<u64>,
}

impl Pool {
    fn insert(&mut self, k: u64) -> bool {
        if self.index.contains_key(&k) {
            return false;
        }
        self.index.insert(k, self.keys.len());
        self.keys.push(k);
        self.sorted.insert(k);
        true
    }

    fn remove_random(&mut self, rng: &mut SplitMix) -> u64 {
        let i = rng.below(self.keys.len() as u64) as usize;
        let k = self.keys.swap_remove(i);
        self.index.remove(&k);
        if let Some(&moved) = self.keys.get(i) {
            self.index.insert(moved, i);
        }
        self.sorted.remove(&k);
        k
    }

    fn random(&self, rng: &mut SplitMix) -> u64 {
        self.keys[rng.below(self.keys.len() as u64) as usize]
    }

    fn contains(&self, k: u64) -> bool {
        self.index.contains_key(&k)
    }

    /// Keys in ascending order.
    pub fn sorted(&self) -> impl Iterator<Item = u64> + '_ {
        self.sorted.iter().copied()
    }
}

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// A Strict structural command.
    Write(KvCommand),
    /// A point lookup.
    Get(u64),
    /// A `Scan{start, limit: 64}`.
    Scan(u64),
}

/// The deterministic op source of one connection. Its model is the state
/// after every write it has generated.
pub enum Stream {
    /// `served_ingest`: churn on one shard's stripe, then read-back.
    Ingest {
        /// Generator.
        rng: SplitMix,
        /// Stripe `[lo, hi]`.
        lo: u64,
        /// Stripe upper end.
        hi: u64,
        /// Resident keys of the shard.
        pool: Pool,
        /// Durability of the writes.
        ack: Durability,
        /// Writes generated.
        w: u64,
        /// Read-back phase: gets and scans of `pool`, no writes.
        reading: bool,
    },
    /// `read_mostly` connection 0: Zipf gets and scans on the static set.
    Reads {
        /// Generator.
        rng: SplitMix,
        /// Zipf over `ranked`.
        zipf: Arc<Zipf>,
        /// The read set, hottest first.
        ranked: Arc<Vec<u64>>,
        /// The read set per shard, ascending.
        sorted: Arc<Vec<Vec<u64>>>,
    },
    /// `read_mostly` connection 1: churn in the upper half of each stripe.
    Churn {
        /// Generator.
        rng: SplitMix,
        /// Per shard: churn range `[lo, hi]` and resident churn keys.
        pools: Vec<(u64, u64, Pool)>,
        /// Writes generated.
        n: u64,
    },
    /// A fixed command list, sent once in order (the layer ladder's
    /// served rung).
    Replay(std::vec::IntoIter<KvCommand>),
}

impl Stream {
    /// The next op (`None` once a replay is used up).
    pub fn next_op(&mut self) -> Option<Op> {
        let op = match self {
            Stream::Ingest {
                rng,
                lo,
                hi,
                pool,
                w,
                reading,
                ..
            } => {
                if *reading {
                    // The 90/10 get/scan mix of `read_mostly`. A scan starts
                    // at a resident key with a full reply before the end of
                    // this connection's stripe.
                    if rng.below(10) == 0 {
                        for _ in 0..8 {
                            let k = pool.random(rng);
                            if pool.sorted.range(k..).nth(SCAN_LIMIT - 1).is_some() {
                                return Some(Op::Scan(k));
                            }
                        }
                    }
                    return Some(Op::Get(pool.random(rng)));
                }
                // Writes alternate insert/remove: the live set is constant.
                *w += 1;
                if *w % 2 == 1 {
                    loop {
                        let k = *lo + rng.below(*hi - *lo);
                        if pool.insert(k) {
                            break Op::Write(Command::Insert(k, value_of(k)));
                        }
                    }
                } else {
                    Op::Write(Command::Remove(pool.remove_random(rng)))
                }
            }
            Stream::Reads {
                rng,
                zipf,
                ranked,
                sorted,
            } => {
                if rng.below(10) == 0 {
                    let s = rng.below(sorted.len() as u64) as usize;
                    let keys = &sorted[s];
                    let r = rng.below((keys.len() - SCAN_LIMIT) as u64) as usize;
                    Op::Scan(keys[r])
                } else {
                    Op::Get(ranked[zipf.sample(rng)])
                }
            }
            Stream::Churn { rng, pools, n } => {
                let i = *n;
                *n += 1;
                let (lo, hi, pool) = &mut pools[((i >> 1) as usize) % 2];
                if i % 2 == 0 {
                    loop {
                        let k = *lo + rng.below(*hi - *lo);
                        if pool.insert(k) {
                            break Op::Write(Command::Insert(k, value_of(k)));
                        }
                    }
                } else {
                    Op::Write(Command::Remove(pool.remove_random(rng)))
                }
            }
            Stream::Replay(cmds) => return cmds.next().map(Op::Write),
        };
        Some(op)
    }

    /// Switches a `served_ingest` stream to its read-back phase.
    pub fn read_back(&mut self) {
        if let Stream::Ingest { reading, .. } = self {
            *reading = true;
        }
    }

    /// Switches a `served_ingest` stream from read-back back to writes.
    fn resume_writes(&mut self) {
        if let Stream::Ingest { reading, .. } = self {
            *reading = false;
        }
    }

    /// Durability of the stream's writes.
    fn ack(&self) -> Durability {
        match self {
            Stream::Ingest { ack, .. } => *ack,
            _ => Durability::Strict,
        }
    }

    /// Whether the stream issues reads (in its read-back phase, if any).
    fn issues_reads(&self) -> bool {
        matches!(self, Stream::Ingest { .. } | Stream::Reads { .. })
    }

    /// Whether `key` is resident in this stream's model, if the stream
    /// models it.
    fn model_has(&self, key: u64) -> bool {
        match self {
            Stream::Ingest { pool, .. } => pool.contains(key),
            Stream::Reads { .. } => true,
            Stream::Churn { pools, .. } => pools.iter().any(|(_, _, p)| p.contains(key)),
            Stream::Replay(_) => false,
        }
    }

    /// The first `n` model keys `≥ start` (what a scan must return, up to
    /// keys whose writes are still in flight).
    fn model_scan(&self, start: u64, n: usize) -> Vec<u64> {
        match self {
            Stream::Ingest { pool, .. } => pool.sorted.range(start..).take(n).copied().collect(),
            Stream::Reads { sorted, .. } => {
                let keys = sorted.iter().find(|v| v.binary_search(&start).is_ok());
                keys.map(|v| {
                    let i = v.partition_point(|&k| k < start);
                    v[i..].iter().take(n).copied().collect()
                })
                .unwrap_or_default()
            }
            Stream::Churn { .. } | Stream::Replay(_) => Vec::new(),
        }
    }
}

/// Everything a served workload's inputs are made from. Pure in
/// `(kind, shape, seed)`.
pub struct Plan {
    /// Workload.
    pub kind: ServedKind,
    /// Geometry.
    pub shape: Shape,
    /// Seed.
    pub seed: u64,
    /// Per shard, the preload keys in load order.
    pub preload: Vec<Vec<u64>>,
    /// `read_mostly`: the static read set, hottest first.
    ranked: Arc<Vec<u64>>,
    /// `read_mostly`: the static read set per shard, ascending.
    read_sorted: Arc<Vec<Vec<u64>>>,
    /// `read_mostly`: the initial churn keys per shard.
    churn_init: Vec<Vec<u64>>,
    zipf: Option<Arc<Zipf>>,
}

impl Plan {
    /// Generates the inputs for `seed`.
    pub fn new(kind: ServedKind, shape: Shape, seed: u64) -> Plan {
        let shards = shape.shards as usize;
        let per_shard = (shape.shard_capacity() as f64 * shape.fill) as usize;
        // The preloaded dataset is fixed, like a YCSB load phase; the seed
        // drives every request. The read view's hit rate depends on the
        // layout this load leaves (README: "the layout lottery"), so a
        // seed-dependent dataset would make read throughput a draw.
        let mut rng = SplitMix::new(DATASET_SEED, 0x9e10ad);
        let mut preload = Vec::with_capacity(shards);
        let (mut read_sorted, mut churn_init) = (Vec::new(), Vec::new());
        for s in 0..shards {
            let (lo, hi) = shape.stripe(s);
            match kind {
                ServedKind::Ingest => {
                    preload.push(distinct_keys(&mut rng, lo, hi, per_shard));
                }
                ServedKind::ReadMostly => {
                    // Read set in the lower half of the stripe, churn keys
                    // in the upper half: scans of the read set never meet
                    // a churned key.
                    let mid = lo + (hi - lo) / 2;
                    let reads = distinct_keys(&mut rng, lo, mid, per_shard - shape.churn_pool);
                    let churn = distinct_keys(&mut rng, mid + 1, hi, shape.churn_pool);
                    let mut load: Vec<u64> = reads.iter().chain(&churn).copied().collect();
                    rng.shuffle(&mut load);
                    preload.push(load);
                    let mut sorted = reads;
                    sorted.sort_unstable();
                    read_sorted.push(sorted);
                    churn_init.push(churn);
                }
            }
        }
        let (ranked, zipf) = if kind == ServedKind::ReadMostly {
            // Popularity rank → key position is a fixed scramble (as in
            // YCSB's scrambled Zipfian), not a function of the seed: the
            // hot keys then sit at the same relative places in the key
            // order on every seed, so a seed changes the requests but not
            // which part of the file the hot set lives in.
            let all: Vec<u64> = read_sorted.iter().flatten().copied().collect();
            let mut pos: Vec<usize> = (0..all.len()).collect();
            SplitMix::new(RANK_SCRAMBLE, 0).shuffle(&mut pos);
            let ranked: Vec<u64> = pos.iter().map(|&i| all[i]).collect();
            let z = Zipf::new(ranked.len(), 0.99);
            (ranked, Some(Arc::new(z)))
        } else {
            (Vec::new(), None)
        };
        Plan {
            kind,
            shape,
            seed,
            preload,
            ranked: Arc::new(ranked),
            read_sorted: Arc::new(read_sorted),
            churn_init,
            zipf,
        }
    }

    /// Fresh op streams, one per connection, with the pipeline depth each
    /// is driven at and the shards whose commands it alone issues.
    pub fn streams(&self) -> Vec<(Stream, usize, Vec<usize>)> {
        let shape = &self.shape;
        match self.kind {
            ServedKind::Ingest => (0..shape.shards as usize)
                .map(|s| {
                    let (lo, hi) = shape.stripe(s);
                    let mut pool = Pool::default();
                    for &k in &self.preload[s] {
                        pool.insert(k);
                    }
                    let stream = Stream::Ingest {
                        rng: SplitMix::new(self.seed, 1 + s as u64),
                        lo,
                        hi,
                        pool,
                        ack: shape.ack,
                        w: 0,
                        reading: false,
                    };
                    (stream, shape.depth, vec![s])
                })
                .collect(),
            ServedKind::ReadMostly => {
                let reads = Stream::Reads {
                    rng: SplitMix::new(self.seed, 0x7ead),
                    zipf: Arc::clone(self.zipf.as_ref().expect("read_mostly has a Zipf")),
                    ranked: Arc::clone(&self.ranked),
                    sorted: Arc::clone(&self.read_sorted),
                };
                let pools = (0..shape.shards as usize)
                    .map(|s| {
                        let (lo, hi) = shape.stripe(s);
                        let mid = lo + (hi - lo) / 2;
                        let mut pool = Pool::default();
                        for &k in &self.churn_init[s] {
                            pool.insert(k);
                        }
                        (mid + 1, hi, pool)
                    })
                    .collect();
                let churn = Stream::Churn {
                    rng: SplitMix::new(self.seed, 0xc4a2),
                    pools,
                    n: 0,
                };
                let all = (0..shape.shards as usize).collect();
                vec![(reads, shape.depth, Vec::new()), (churn, 1, all)]
            }
        }
    }

    /// The command stream as recorded for the layer ladder: per shard the
    /// first `writes_per_shard` structural commands in order, then about
    /// `reads` gets and scans, shared among the streams that read (on
    /// `served_ingest`, the read-back of the state those writes leave).
    pub fn recorded(&self, writes_per_shard: usize, reads: usize) -> Recorded {
        let shards = self.shape.shards as usize;
        let mut rec = Recorded {
            writes: vec![Vec::new(); shards],
            gets: Vec::new(),
            scans: Vec::new(),
        };
        let mut streams = self.streams();
        let readers = streams.iter().filter(|(s, ..)| s.issues_reads()).count();
        for (stream, _, owned) in &mut streams {
            let mut quota = if stream.issues_reads() {
                reads / readers
            } else {
                0
            };
            while owned
                .iter()
                .any(|&s| rec.writes[s].len() < writes_per_shard)
            {
                match stream.next_op() {
                    Some(Op::Write(c)) => {
                        let s = self.shape.shard_of(*c.key());
                        if rec.writes[s].len() < writes_per_shard {
                            rec.writes[s].push(c);
                        }
                    }
                    Some(op) => record_read(&mut rec, &mut quota, op),
                    None => break,
                }
            }
            stream.read_back();
            while quota > 0 {
                match stream.next_op() {
                    Some(op) => record_read(&mut rec, &mut quota, op),
                    None => break,
                }
            }
        }
        rec
    }

    /// Plain `DenseFile`s loaded exactly as the served preload loads each
    /// shard (same batches, same order), with the read view on or off.
    pub fn dense_files(&self, view: bool) -> Vec<DenseFile<u64, String>> {
        self.preload
            .iter()
            .map(|keys| {
                let mut f = DenseFile::new(self.shape.config()).expect("valid shard config");
                if view {
                    f.enable_optimistic_reads();
                }
                for cmds in preload_batches(keys) {
                    f.apply_batch(&cmds);
                }
                f
            })
            .collect()
    }
}

/// A recorded command stream (see [`Plan::recorded`]).
#[derive(Debug, Clone)]
pub struct Recorded {
    /// Per shard, structural commands in execution order.
    pub writes: Vec<Vec<KvCommand>>,
    /// Point lookups.
    pub gets: Vec<u64>,
    /// Scan start keys.
    pub scans: Vec<u64>,
}

fn record_read(rec: &mut Recorded, quota: &mut usize, op: Op) {
    if *quota == 0 {
        return;
    }
    match op {
        Op::Get(k) => rec.gets.push(k),
        Op::Scan(k) => rec.scans.push(k),
        Op::Write(_) => return,
    }
    *quota -= 1;
}

/// The request that sends `cmd`.
pub fn request(cmd: KvCommand, durability: Durability) -> Request {
    match cmd {
        Command::Insert(key, value) => Request::Insert {
            key,
            value,
            durability,
        },
        Command::Remove(key) => Request::Remove { key, durability },
    }
}

/// `keys` as the preload sends them: inserts of `value_of(key)`,
/// `PRELOAD_BATCH` per batch.
pub fn preload_batches(keys: &[u64]) -> impl Iterator<Item = Vec<KvCommand>> + '_ {
    keys.chunks(PRELOAD_BATCH).map(|chunk| {
        chunk
            .iter()
            .map(|&k| Command::Insert(k, value_of(k)))
            .collect()
    })
}

/// `n` distinct uniform keys in `[lo, hi]`.
fn distinct_keys(rng: &mut SplitMix, lo: u64, hi: u64, n: usize) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let k = lo + rng.below(hi - lo);
        if seen.insert(k) {
            out.push(k);
        }
    }
    out
}

/// Latency samples (ns) and counts of one connection's measured window.
#[derive(Debug, Default)]
pub struct ConnOut {
    /// Latencies completed inside the window.
    pub samples: Samples,
    /// Ops completed over the whole drive (warm-up included).
    pub completed: u64,
    /// Answers checked.
    pub tally: Tally,
    /// `OpStats` of each owned shard at the checkpoint.
    pub checkpoint: Vec<(usize, OpStats)>,
}

enum Check {
    Write {
        key: u64,
        insert: bool,
    },
    Get {
        key: u64,
        ambiguous: bool,
        present: bool,
    },
    Scan {
        start: u64,
        expect: Vec<u64>,
        ambiguous: Vec<u64>,
    },
}

struct Pending {
    sent: Instant,
    check: Check,
}

/// Measurement window of one round.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Samples completing before this are warm-up.
    pub start: Instant,
    /// No op is sent after this.
    pub end: Instant,
}

/// Drives one connection closed-loop at `depth` until `win.end` (or until
/// a replay is used up), checks every reply, and reads the owned shards'
/// `OpStats` once exactly `checkpoint_cmds` structural commands per owned
/// shard are acked.
pub fn drive(
    addr: std::net::SocketAddr,
    stream: &mut Stream,
    depth: usize,
    owned: &[usize],
    kv: &DurableKv,
    checkpoint_cmds: u64,
    win: Window,
) -> ConnOut {
    let mut out = ConnOut::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.check(false, || format!("connect: {e}"));
            return out;
        }
    };
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(depth);
    let checkpoint_at = checkpoint_cmds * owned.len() as u64;
    let mut writes_sent = 0u64;
    let mut checkpoint_taken = owned.is_empty();
    let mut exhausted = false;
    loop {
        let now = Instant::now();
        let holding = !checkpoint_taken && writes_sent == checkpoint_at;
        if holding && inflight.is_empty() {
            for &s in owned {
                out.checkpoint
                    .push((s, kv.with_shard(s, |f| f.op_stats().clone())));
            }
            checkpoint_taken = true;
            continue;
        }
        // Past the window a connection keeps going only until its exact
        // counts are taken (unmeasured), so a slow host cannot miss them.
        let sending = (now < win.end || !checkpoint_taken) && !exhausted;
        if inflight.len() < depth && sending && !holding {
            let Some(op) = stream.next_op() else {
                exhausted = true;
                continue;
            };
            let (req, check) = match op {
                Op::Write(cmd) => {
                    writes_sent += 1;
                    let check = Check::Write {
                        key: *cmd.key(),
                        insert: matches!(cmd, Command::Insert(..)),
                    };
                    (request(cmd, stream.ack()), check)
                }
                Op::Get(k) => (
                    Request::Get { key: k },
                    Check::Get {
                        key: k,
                        ambiguous: inflight.iter().any(|p| in_flight_key(p) == Some(k)),
                        present: stream.model_has(k),
                    },
                ),
                Op::Scan(k) => (
                    Request::Scan {
                        start: k,
                        limit: SCAN_LIMIT as u32,
                    },
                    Check::Scan {
                        start: k,
                        expect: stream.model_scan(k, SCAN_LIMIT + depth + 1),
                        ambiguous: inflight.iter().filter_map(in_flight_key).collect(),
                    },
                ),
            };
            out.tally.attempted += 1;
            let sent = Instant::now();
            if client.send(&req).and_then(|()| client.flush()).is_err() {
                out.tally.fail(|| "send failed".into());
                break;
            }
            inflight.push_back(Pending { sent, check });
            continue;
        }
        let Some(p) = inflight.pop_front() else {
            break;
        };
        let rsp = client.recv();
        let done = Instant::now();
        let lat = ns_since(p.sent);
        let rsp = match rsp {
            Ok(r) => r,
            Err(e) => {
                let lost = inflight.len() as u64 + 1;
                out.tally.failed += lost;
                out.tally.check(false, || format!("connection lost: {e}"));
                break;
            }
        };
        out.completed += 1;
        let measured = done >= win.start && done <= win.end;
        match verify(&p.check, &rsp) {
            Ok(()) => {}
            Err(why) => out.tally.fail(|| why),
        }
        if measured {
            match p.check {
                Check::Write { .. } => out.samples.writes.push(lat),
                Check::Get { .. } => out.samples.gets.push(lat),
                Check::Scan { .. } => out.samples.scans.push(lat),
            }
        }
    }
    out.tally.check(checkpoint_taken, || {
        format!("checkpoint of {checkpoint_at} commands not reached")
    });
    out
}

fn in_flight_key(p: &Pending) -> Option<u64> {
    match p.check {
        Check::Write { key, .. } => Some(key),
        _ => None,
    }
}

fn verify(check: &Check, rsp: &Response) -> Result<(), String> {
    match (check, rsp) {
        (Check::Write { insert: true, .. }, Response::Applied { outcome, .. })
            if *outcome == Outcome::Inserted =>
        {
            Ok(())
        }
        (
            Check::Write { key, insert: false },
            Response::Applied {
                outcome: Outcome::Removed(v),
                ..
            },
        ) if *v == value_of(*key) => Ok(()),
        (
            Check::Get {
                key,
                ambiguous,
                present,
            },
            Response::Value(v),
        ) => {
            let ok = match v {
                Some(v) => *v == value_of(*key) && (*present || *ambiguous),
                None => !*present || *ambiguous,
            };
            if ok {
                Ok(())
            } else {
                Err(format!("get {key:#x}: {v:?}, model present={present}"))
            }
        }
        (
            Check::Scan {
                start,
                expect,
                ambiguous,
            },
            Response::Entries(got),
        ) => check_scan(*start, expect, ambiguous, got),
        (c, r) => Err(format!("unexpected reply {r:?} to {}", check_name(c))),
    }
}

fn check_name(c: &Check) -> &'static str {
    match c {
        Check::Write { insert: true, .. } => "insert",
        Check::Write { .. } => "remove",
        Check::Get { .. } => "get",
        Check::Scan { .. } => "scan",
    }
}

/// A scan reply is right when it holds `SCAN_LIMIT` ascending records
/// `≥ start` with their values, and agrees with the model on every key up
/// to its last one except keys whose writes were in flight.
fn check_scan(
    start: u64,
    expect: &[u64],
    ambiguous: &[u64],
    got: &[(u64, String)],
) -> Result<(), String> {
    let err = |what: &str| Err(format!("scan from {start:#x}: {what}"));
    if got.len() != SCAN_LIMIT {
        return err(&format!("{} records, want {SCAN_LIMIT}", got.len()));
    }
    if got.iter().any(|(k, v)| *k < start || *v != value_of(*k)) {
        return err("record below start or with a wrong value");
    }
    if got.windows(2).any(|w| w[0].0 >= w[1].0) {
        return err("not ascending");
    }
    let last = got[got.len() - 1].0;
    if expect.last().is_none_or(|&e| e < last) {
        return err("reply runs past the modelled keys");
    }
    let got_keys: HashSet<u64> = got.iter().map(|(k, _)| *k).collect();
    let expect_set: HashSet<u64> = expect.iter().copied().collect();
    let unexplained = |k: &u64| !ambiguous.contains(k);
    if got_keys
        .iter()
        .any(|k| !expect_set.contains(k) && unexplained(k))
    {
        return err("returned a key the model does not hold");
    }
    if expect
        .iter()
        .take_while(|&&k| k <= last)
        .any(|k| !got_keys.contains(k) && unexplained(k))
    {
        return err("skipped a resident key");
    }
    Ok(())
}

/// Telemetry counter values the traced pass takes deltas of.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `dsf_server_batch_commands` count (accumulator batches).
    pub batches: u64,
    /// `dsf_server_batch_commands` sum (commands in them).
    pub batch_cmds: u64,
    /// `dsf_wal_fsyncs_total`.
    pub fsyncs: u64,
    /// `dsf_read_optimistic_hits`.
    pub read_hits: u64,
    /// `dsf_read_retries`.
    pub read_retries: u64,
    /// `dsf_read_fallbacks`.
    pub read_fallbacks: u64,
}

impl Counters {
    /// Reads the process-global registry.
    pub fn read() -> Counters {
        let r = dsf_telemetry::global();
        let batch = r.histogram("dsf_server_batch_commands", "");
        Counters {
            batches: batch.count(),
            batch_cmds: batch.sum(),
            fsyncs: r.counter("dsf_wal_fsyncs_total", "").get(),
            read_hits: r.counter("dsf_read_optimistic_hits", "").get(),
            read_retries: r.counter("dsf_read_retries", "").get(),
            read_fallbacks: r.counter("dsf_read_fallbacks", "").get(),
        }
    }

    /// Field-wise `self − earlier`.
    pub fn since(self, e: Counters) -> Counters {
        Counters {
            batches: self.batches - e.batches,
            batch_cmds: self.batch_cmds - e.batch_cmds,
            fsyncs: self.fsyncs - e.fsyncs,
            read_hits: self.read_hits - e.read_hits,
            read_retries: self.read_retries - e.read_retries,
            read_fallbacks: self.read_fallbacks - e.read_fallbacks,
        }
    }
}

/// How long the phases of one measurement window of a served round last.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    /// Unmeasured start of the write phase.
    pub warmup: Duration,
    /// Measured write window (`read_mostly`'s reads run inside it).
    pub writes: Duration,
    /// `served_ingest`: measured read-back window after the writers stop,
    /// which opens after an unmeasured `READ_SETTLE`.
    pub reads: Duration,
}

/// Unmeasured start of the read-back phase.
pub const READ_SETTLE: Duration = Duration::from_millis(200);

/// Requests in flight per connection in the read-back phase: one, so a
/// read's latency is the read path's own rather than queueing, and a
/// descheduled vCPU delays one read per connection (README).
pub const READ_BACK_DEPTH: usize = 1;

/// What one measurement window of a round measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Measured write window, seconds.
    pub write_s: f64,
    /// Measured window the reads ran in, seconds.
    pub read_s: f64,
    /// Latencies completed inside the windows.
    pub samples: Samples,
    /// Ops completed over the write phase, warm-up included.
    pub completed: u64,
    /// Process resource use over the write phase.
    pub usage: Usage,
}

/// What one round (one store) measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Store create + preload + bind, seconds.
    pub setup_s: f64,
    /// One entry per measurement window, in order.
    pub windows: Vec<Measured>,
    /// Exact counts at the checkpoint, taken in the first window:
    /// (commands, page accesses), summed over shards.
    pub pages: (u64, u64),
    /// Registry deltas over every window (meaningful when telemetry is on).
    pub counters: Counters,
    /// Median idle `Ping` round trip after the drive, µs (when asked).
    pub ping_us: Option<f64>,
    /// Answers and checks.
    pub tally: Tally,
}

/// Drives every stream on its own connection and thread until `win.end`,
/// taking the exact counts at `checkpoint_cmds` when given, at `depth` in
/// place of each stream's own when given.
fn drive_all(
    addr: std::net::SocketAddr,
    streams: &mut [(Stream, usize, Vec<usize>)],
    kv: &DurableKv,
    checkpoint_cmds: Option<u64>,
    win: Window,
    depth: Option<usize>,
) -> Vec<ConnOut> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|(stream, stream_depth, owned)| {
                let depth = depth.unwrap_or(*stream_depth);
                let owned = if checkpoint_cmds.is_some() {
                    owned.clone()
                } else {
                    Vec::new()
                };
                let at = checkpoint_cmds.unwrap_or(0);
                scope.spawn(move || drive(addr, stream, depth, &owned, kv, at, win))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn window(warmup: Duration, measured: Duration) -> Window {
    let start = Instant::now() + warmup;
    Window {
        start,
        end: start + measured,
    }
}

/// One round: create the store in `dir`, preload, bind, then for each of
/// `windows` drive every connection through the write phase (and, on
/// `served_ingest`, the read-back phase), the exact counts taken in the
/// first; shut down, then reopen the store and check that it holds
/// exactly the acknowledged state.
pub fn run_round(plan: &Plan, dir: &Path, windows: &[Phases], ping: bool) -> Round {
    let mut round = Round::default();
    let shape = plan.shape;
    let _ = std::fs::remove_dir_all(dir);

    let t0 = Instant::now();
    let kv = Arc::new(
        DurableKv::create(dir, shape.shards, shape.config(), shape.policy).expect("create store"),
    );
    let loaded = crate::ladder::load_service(kv.as_ref(), &plan.preload);
    let server = Server::bind(
        Arc::clone(&kv) as Arc<dyn KvService>,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    round.setup_s = t0.elapsed().as_secs_f64();
    round
        .tally
        .check(loaded, || "preload refused a record".into());

    let before: Vec<OpStats> = (0..shape.shards as usize)
        .map(|s| kv.with_shard(s, |f| f.op_stats().clone()))
        .collect();
    let mut streams = plan.streams();
    let addr = server.local_addr();
    let counters0 = Counters::read();
    let mut outs = Vec::new();
    for (i, phases) in windows.iter().enumerate() {
        for (stream, ..) in &mut streams {
            stream.resume_writes();
        }
        let usage0 = Usage::now();
        let writes = drive_all(
            addr,
            &mut streams,
            &kv,
            (i == 0).then_some(shape.checkpoint_cmds),
            window(phases.warmup, phases.writes),
            None,
        );
        let mut m = Measured {
            write_s: phases.writes.as_secs_f64(),
            read_s: phases.writes.as_secs_f64(),
            usage: Usage::now().since(usage0),
            completed: writes.iter().map(|o| o.completed).sum(),
            ..Measured::default()
        };
        outs.extend(writes);
        if plan.kind == ServedKind::Ingest {
            for (stream, ..) in &mut streams {
                stream.read_back();
            }
            let reads = drive_all(
                addr,
                &mut streams,
                &kv,
                None,
                window(READ_SETTLE, phases.reads),
                Some(READ_BACK_DEPTH),
            );
            m.read_s = phases.reads.as_secs_f64();
            outs.extend(reads);
        }
        for o in &mut outs {
            m.samples.extend(&std::mem::take(&mut o.samples));
        }
        round.windows.push(m);
    }
    round.counters = Counters::read().since(counters0);
    if ping {
        round.ping_us = Some(ping_rtt_us(addr, 2000));
    }

    let mut merged = (0u64, 0u64);
    for o in outs {
        for (s, st) in &o.checkpoint {
            merged.0 += st.commands - before[*s].commands;
            merged.1 += st.total_accesses - before[*s].total_accesses;
            round.tally.check(
                st.commands - before[*s].commands == shape.checkpoint_cmds,
                || format!("shard {s}: checkpoint saw a foreign command"),
            );
        }
        round.tally.absorb(o.tally);
    }
    round.pages = merged;

    round
        .tally
        .check(server.shutdown().is_ok(), || "shutdown failed".into());
    round.tally.check(Arc::strong_count(&kv) == 1, || {
        "store still referenced after shutdown".into()
    });
    drop(kv);
    let expected = expected_state(plan, &streams);
    match DurableKv::open(dir, shape.policy) {
        Ok(reopened) => {
            for (s, want) in expected.iter().enumerate() {
                let ok = reopened.with_shard(s, |f| {
                    f.len() == want.len() as u64
                        && f.iter()
                            .zip(want)
                            .all(|((k, v), w)| k == w && *v == value_of(*k))
                });
                round.tally.check(ok, || {
                    format!("shard {s} after reopen differs from the acknowledged state")
                });
            }
        }
        Err(e) => round.tally.check(false, || format!("reopen: {e}")),
    }
    let _ = std::fs::remove_dir_all(dir);
    round
}

/// Per shard, the ascending keys every acknowledged command leaves.
fn expected_state(plan: &Plan, streams: &[(Stream, usize, Vec<usize>)]) -> Vec<Vec<u64>> {
    let mut want = vec![Vec::new(); plan.shape.shards as usize];
    for (stream, _, _) in streams {
        match stream {
            Stream::Ingest { lo, pool, .. } => {
                want[plan.shape.shard_of(*lo)].extend(pool.sorted());
            }
            Stream::Reads { sorted, .. } => {
                for (s, keys) in sorted.iter().enumerate() {
                    want[s].extend_from_slice(keys);
                }
            }
            Stream::Churn { pools, .. } => {
                for (s, (_, _, pool)) in pools.iter().enumerate() {
                    want[s].extend(pool.sorted());
                }
            }
            Stream::Replay(_) => {}
        }
    }
    for w in &mut want {
        w.sort_unstable();
    }
    want
}

/// Median round trip of `n` idle `Client::call(Ping)`s, µs.
pub fn ping_rtt_us(addr: std::net::SocketAddr, n: usize) -> f64 {
    let mut c = Client::connect(addr).expect("connect for ping");
    let mut v: Vec<u32> = (0..n)
        .map(|_| {
            let t = Instant::now();
            let r = c.call(&Request::Ping).expect("ping");
            assert_eq!(r, Response::Pong, "ping answered {r:?}");
            ns_since(t)
        })
        .collect();
    percentile_us(&mut v, 0.5).expect("pings were sent")
}
