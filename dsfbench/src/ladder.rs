//! The layer ladder of the traced pass: a workload's recorded command
//! stream replayed single-threaded into each layer's public entry point,
//! one layer at a time —
//!
//! `DenseFile` → `DenseFile` with a `ReadView` → `DurableFile` →
//! `DurableKv` → `Server`/`Client` (protocol codec, idle ping)
//!
//! — timing the calls from here and reading the layers' own counters
//! (`OpStats`, `IoStats`, the `dsf_telemetry` registry). Nothing inside
//! the program is instrumented for this; counts are exact and repeat for
//! a seed, nanoseconds are wall-clock on whatever host runs it.

use crate::served::{
    drive, preload_batches, request, value_of, Counters, KvCommand, Stream, Window, POLICY,
};
use crate::util::{dir_bytes, mean, Tally, SCAN_LIMIT};
use dsf_core::{Command, CommandOutcome, DenseFile, DenseFileConfig};
use dsf_durable::{Durability, DurableFile};
use dsf_server::{DurableKv, KvService, Outcome, Request, Response, Server, ServerConfig};
use std::hint::black_box;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `DenseFile` rung results (no view).
#[derive(Debug, Clone, Default)]
pub struct CoreOut {
    /// Wall ns per command of `apply_batch` (view off).
    pub apply_ns_per_cmd: f64,
    /// `OpStats` deltas per command.
    pub shifts_per_cmd: f64,
    /// Records moved by SHIFT per command.
    pub records_shifted_per_cmd: f64,
    /// ACTIVATE calls per command.
    pub activations_per_cmd: f64,
    /// Roll-backs per command.
    pub rollbacks_per_cmd: f64,
    /// `IoStats` page reads per command.
    pub page_reads_per_cmd: f64,
    /// `IoStats` page writes per command.
    pub page_writes_per_cmd: f64,
    /// `OpStats` (commands, page accesses) delta.
    pub pages: (u64, u64),
    /// Mean ns of a locked-path `DenseFile::get`.
    pub get_ns: f64,
    /// Wall ns per command with the view on.
    pub view_apply_ns_per_cmd: f64,
    /// Mean ns of `ReadView::try_get`.
    pub try_get_ns: f64,
    /// Share of gets the view answered.
    pub get_hit_ratio: f64,
    /// Share of scans the view answered (asked as the server asks:
    /// `Included(start)` to `Unbounded`).
    pub scan_hit_ratio: f64,
}

/// Calls `f(shard, batch)` for per-shard command lists cut into batches of
/// `batch`, shards interleaved batch by batch as the accumulator's
/// workers would run them.
fn interleaved<C>(writes: &[Vec<C>], batch: usize, mut f: impl FnMut(usize, &[C])) {
    let mut chunks: Vec<_> = writes.iter().map(|w| w.chunks(batch.max(1))).collect();
    loop {
        let mut any = false;
        for (s, it) in chunks.iter_mut().enumerate() {
            if let Some(chunk) = it.next() {
                any = true;
                f(s, chunk);
            }
        }
        if !any {
            return;
        }
    }
}

/// Total wall ns spent inside `DenseFile::apply_batch` over `writes`.
fn replay<V: Clone>(
    files: &mut [DenseFile<u64, V>],
    writes: &[Vec<Command<u64, V>>],
    batch: usize,
) -> f64 {
    let mut ns = 0.0;
    interleaved(writes, batch, |s, chunk| {
        let t = Instant::now();
        black_box(files[s].apply_batch(chunk));
        ns += t.elapsed().as_nanos() as f64;
    });
    ns
}

/// Applies each shard's `writes` to `files` one command at a time:
/// (commands, page accesses, worst command) of the stream alone, whatever
/// the files ran before it.
pub fn stream_pages<V: Clone>(
    files: &mut [DenseFile<u64, V>],
    writes: &[Vec<Command<u64, V>>],
) -> (u64, u64, u64) {
    let (mut cmds, mut acc, mut worst) = (0u64, 0u64, 0u64);
    for (f, w) in files.iter_mut().zip(writes) {
        for cmd in w {
            let before = f.op_stats().clone();
            f.apply_batch(std::slice::from_ref(cmd));
            let st = f.op_stats();
            let a = st.total_accesses - before.total_accesses;
            cmds += st.commands - before.commands;
            acc += a;
            worst = worst.max(a);
        }
    }
    (cmds, acc, worst)
}

/// The `DenseFile` rung and the `DenseFile`-with-`ReadView` rung.
///
/// `build(view)` returns freshly loaded shards with the view on or off;
/// `route` maps a key to its shard.
pub fn core_and_view<V: Clone>(
    build: &dyn Fn(bool) -> Vec<DenseFile<u64, V>>,
    route: &dyn Fn(u64) -> usize,
    writes: &[Vec<Command<u64, V>>],
    batch: usize,
    gets: &[u64],
    scans: &[u64],
) -> CoreOut {
    let mut out = CoreOut::default();
    let mut files = build(false);
    let ops0: Vec<_> = files.iter().map(|f| f.op_stats().clone()).collect();
    let io0: Vec<_> = files.iter().map(|f| f.io_stats().snapshot()).collect();
    let ns = replay(&mut files, writes, batch);
    let (mut d_cmds, mut d_acc) = (0u64, 0u64);
    let (mut shifts, mut moved, mut act, mut rb, mut rd, mut wr) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (s, f) in files.iter().enumerate() {
        let st = f.op_stats();
        d_cmds += st.commands - ops0[s].commands;
        d_acc += st.total_accesses - ops0[s].total_accesses;
        shifts += st.shifts - ops0[s].shifts;
        moved += st.records_shifted - ops0[s].records_shifted;
        act += st.activations - ops0[s].activations;
        rb += st.rollbacks - ops0[s].rollbacks;
        let io = f.io_stats().since(io0[s]);
        rd += io.reads;
        wr += io.writes;
    }
    let per = |x: u64| x as f64 / d_cmds.max(1) as f64;
    out.apply_ns_per_cmd = ns / d_cmds.max(1) as f64;
    out.shifts_per_cmd = per(shifts);
    out.records_shifted_per_cmd = per(moved);
    out.activations_per_cmd = per(act);
    out.rollbacks_per_cmd = per(rb);
    out.page_reads_per_cmd = per(rd);
    out.page_writes_per_cmd = per(wr);
    out.pages = (d_cmds, d_acc);
    let t = Instant::now();
    for &k in gets {
        black_box(files[route(k)].get(&k));
    }
    out.get_ns = t.elapsed().as_nanos() as f64 / gets.len().max(1) as f64;
    drop(files);

    let mut files = build(true);
    let views: Vec<_> = files
        .iter()
        .map(|f| f.read_view().expect("view enabled by build(true)"))
        .collect();
    let ns = replay(&mut files, writes, batch);
    out.view_apply_ns_per_cmd = ns / d_cmds.max(1) as f64;
    let mut hits = 0u64;
    let t = Instant::now();
    for &k in gets {
        hits += u64::from(black_box(views[route(k)].try_get(&k)).is_ok());
    }
    out.try_get_ns = t.elapsed().as_nanos() as f64 / gets.len().max(1) as f64;
    out.get_hit_ratio = hits as f64 / gets.len().max(1) as f64;
    let scan_hits = scans
        .iter()
        .filter(|&&k| {
            views[route(k)]
                .try_collect_range(Bound::Included(k), Bound::Unbounded)
                .is_ok()
        })
        .count();
    out.scan_hit_ratio = scan_hits as f64 / scans.len().max(1) as f64;
    out
}

/// `DurableFile` rung results.
#[derive(Debug, Clone, Default)]
pub struct DurableOut {
    /// ns per command of `apply_batch_durable(.., Relaxed)`.
    pub relaxed_ns_per_cmd: f64,
    /// Mean µs of the `sync` after each batch.
    pub sync_us: f64,
    /// WAL growth per command, bytes.
    pub wal_bytes_per_cmd: f64,
}

/// One `DurableFile` per shard under `dir` (view on, as `DurableKv` has
/// it), preloaded with `preload`; each recorded batch is applied Relaxed
/// and then synced.
pub fn durable_rung(
    cfg: DenseFileConfig,
    preload: &[Vec<u64>],
    writes: &[Vec<KvCommand>],
    batch: usize,
    dir: &Path,
) -> DurableOut {
    let mut files: Vec<DurableFile<u64, String>> = preload
        .iter()
        .enumerate()
        .map(|(s, keys)| {
            let mut f = DurableFile::create(dir.join(format!("shard-{s}")), cfg, POLICY)
                .expect("create durable shard");
            f.enable_optimistic_reads();
            for cmds in preload_batches(keys) {
                f.apply_batch_durable(&cmds, Durability::Relaxed)
                    .expect("durable preload");
            }
            f.sync().expect("durable preload sync");
            f
        })
        .collect();
    let bytes0: u64 = files.iter().map(|f| dir_bytes(f.dir())).sum();
    let (mut apply_ns, mut syncs, mut cmds) = (0.0, Vec::new(), 0u64);
    interleaved(writes, batch, |s, chunk| {
        let t0 = Instant::now();
        files[s]
            .apply_batch_durable(chunk, Durability::Relaxed)
            .expect("durable replay");
        let t1 = Instant::now();
        files[s].sync().expect("durable sync");
        apply_ns += (t1 - t0).as_nanos() as f64;
        syncs.push(t1.elapsed().as_nanos() as f64 / 1e3);
        cmds += chunk.len() as u64;
    });
    let bytes1: u64 = files.iter().map(|f| dir_bytes(f.dir())).sum();
    DurableOut {
        relaxed_ns_per_cmd: apply_ns / cmds.max(1) as f64,
        sync_us: mean(&syncs),
        wal_bytes_per_cmd: bytes1.saturating_sub(bytes0) as f64 / cmds.max(1) as f64,
    }
}

/// `DurableKv` rung results.
#[derive(Debug, Clone, Default)]
pub struct ServiceOut {
    /// Mean µs of one Strict `KvService::apply_batch`.
    pub apply_us_per_batch: f64,
    /// Mean ns of `KvService::get`.
    pub get_ns: f64,
    /// Mean µs of `KvService::scan(start, 64)`.
    pub scan_us: f64,
}

/// Loads `preload` (per shard, in order) through `KvService::apply_batch`
/// and flushes. Returns whether every record was new and accepted.
pub fn load_service(kv: &dyn KvService, preload: &[Vec<u64>]) -> bool {
    let mut ok = true;
    for (s, keys) in preload.iter().enumerate() {
        for cmds in preload_batches(keys) {
            ok &= kv
                .apply_batch(s, &cmds, Durability::Relaxed, &mut |_, _, _| {})
                .is_ok_and(|outs| outs.iter().all(|o| matches!(o, CommandOutcome::Inserted)));
        }
    }
    ok && kv.flush().is_ok()
}

/// A `DurableKv` under `dir` with the served policy: recorded batches
/// applied Strict per shard, then the recorded gets and scans.
pub fn service_rung(
    cfg: DenseFileConfig,
    preload: &[Vec<u64>],
    writes: &[Vec<KvCommand>],
    batch: usize,
    gets: &[u64],
    scans: &[u64],
    dir: &Path,
) -> ServiceOut {
    let kv = DurableKv::create(dir, preload.len() as u32, cfg, POLICY).expect("create store");
    assert!(
        load_service(&kv, preload),
        "service preload refused a record"
    );
    let mut per_batch = Vec::new();
    interleaved(writes, batch, |s, chunk| {
        let t = Instant::now();
        kv.apply_batch(s, chunk, Durability::Strict, &mut |_, _, _| {})
            .expect("service replay");
        per_batch.push(t.elapsed().as_nanos() as f64 / 1e3);
    });
    let t = Instant::now();
    for &k in gets {
        black_box(kv.get(k));
    }
    let get_ns = t.elapsed().as_nanos() as f64 / gets.len().max(1) as f64;
    let t = Instant::now();
    for &k in scans {
        black_box(kv.scan(k, SCAN_LIMIT));
    }
    let scan_us = t.elapsed().as_nanos() as f64 / 1e3 / scans.len().max(1) as f64;
    ServiceOut {
        apply_us_per_batch: mean(&per_batch),
        get_ns,
        scan_us,
    }
}

/// Mean ns to encode and decode one recorded request and its reply.
pub fn protocol_ns_per_req(writes: &[Vec<KvCommand>], gets: &[u64], scans: &[u64]) -> f64 {
    let mut pairs: Vec<(Request, Response)> = Vec::new();
    for cmd in writes.iter().flatten() {
        let outcome = match cmd {
            Command::Insert(..) => Outcome::Inserted,
            Command::Remove(k) => Outcome::Removed(value_of(*k)),
        };
        pairs.push((
            request(cmd.clone(), Durability::Strict),
            Response::Applied { outcome, seq: 0 },
        ));
    }
    for &k in gets {
        pairs.push((Request::Get { key: k }, Response::Value(Some(value_of(k)))));
    }
    for &k in scans {
        let entries = (k..k.saturating_add(SCAN_LIMIT as u64))
            .map(|x| (x, value_of(x)))
            .collect();
        pairs.push((
            Request::Scan {
                start: k,
                limit: SCAN_LIMIT as u32,
            },
            Response::Entries(entries),
        ));
    }
    let mut buf = Vec::with_capacity(8192);
    let t = Instant::now();
    for (req, rsp) in &pairs {
        buf.clear();
        req.encode(&mut buf);
        black_box(Request::decode(&buf).expect("request round-trips"));
        buf.clear();
        rsp.encode(&mut buf);
        black_box(Response::decode(&buf).expect("response round-trips"));
    }
    t.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64
}

/// What a served replay of a recorded stream measured.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Registry deltas over the replay.
    pub counters: Counters,
    /// Median idle ping round trip, µs.
    pub ping_us: f64,
    /// Answers checked.
    pub tally: Tally,
}

/// Serves a 1-shard `DurableKv` loaded with `preload` and sends the
/// recorded writes over one connection, Strict, pipelined at `depth`:
/// the `Server` rung for a workload that is not itself served.
pub fn served_replay(
    cfg: DenseFileConfig,
    preload: &[u64],
    writes: Vec<KvCommand>,
    depth: usize,
    dir: &Path,
) -> ReplayOut {
    let mut out = ReplayOut::default();
    let kv = Arc::new(DurableKv::create(dir, 1, cfg, POLICY).expect("create store"));
    out.tally
        .check(load_service(kv.as_ref(), &[preload.to_vec()]), || {
            "replay preload refused a record".into()
        });
    let server = Server::bind(
        Arc::clone(&kv) as Arc<dyn KvService>,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let c0 = Counters::read();
    let now = Instant::now();
    let win = Window {
        start: now,
        end: now + std::time::Duration::from_secs(3600),
    };
    let sent = writes.len() as u64;
    let mut stream = Stream::Replay(writes.into_iter());
    let conn = drive(addr, &mut stream, depth, &[], &kv, 0, win);
    out.tally.absorb(conn.tally);
    out.tally.check(conn.completed == sent, || {
        format!("{} of {sent} replayed writes acked", conn.completed)
    });
    out.counters = Counters::read().since(c0);
    out.ping_us = crate::served::ping_rtt_us(addr, 2000);
    out.tally
        .check(server.shutdown().is_ok(), || "shutdown failed".into());
    out
}
