//! # E19 — trace: wire-to-fsync waterfalls with tail-latency attribution
//!
//! Request tracing (`dsf_flight::request`) promises three things, and
//! this experiment hard-asserts all of them against a real loopback
//! server. Timelines are read back from the flight recorder, whose log
//! also holds every command's page cost:
//!
//! 1. **Reconciliation** — a timeline is built by telescoping checkpoints
//!    (`sum(phases) == ack − start` by construction), so the meaningful
//!    claim is *containment*: every server-side timeline total must fit
//!    inside the latency the client measured for that same trace id.
//!    The join is exact — the client propagates the id on the wire and
//!    the server records it — and must cover 100% of traced requests;
//!    each timeline's seq must also name a command in the same log.
//! 2. **Bounded overhead** — the recorder on (every request traced, every
//!    phase stamped, every command's flight frames recorded) must not
//!    move the client-perceived p50 by more than [`OVERHEAD_BOUND`] vs
//!    the identical workload with it off. The ratio is the median of
//!    per-pair p50 ratios over alternating off/on runs: one pair of
//!    ~0.05 s runs moves by up to 1.48× on a 2-vCPU host with no code
//!    change, while the median of several pairs does not.
//!    Strict-durability latency is fsync-dominated, and this keeps the
//!    recording cost noise.
//! 3. **Attribution** — when the disk is genuinely slow, the waterfalls
//!    must say so. A [`Vfs`] wrapper that sleeps inside `sync_data`
//!    simulates a degraded device; the aggregate report and the p99
//!    exemplar must both name `fsync` as the dominant phase.
//!
//! The three headline metrics (`trace_overhead_ratio`,
//! `trace_reconcile_ok`, `trace_fsync_dominant`) are gated by
//! `dsf bench-gate`. Writes `BENCH_trace.json` into the current
//! directory.
//!
//! Run: `cargo run --release -p dsf-bench --bin exp_trace`
//! (add `--quick` for the CI profile).

use dsf_bench::{f, median, Table};
use dsf_core::DenseFileConfig;
use dsf_durable::{Durability, StdFs, SyncPolicy, Vfs, VfsFile};
use dsf_flight::request::{Phase, TraceReport};
use dsf_flight::FlightLog;
use dsf_server::{
    protocol::Outcome, Client, DurableKv, KvService, Request, Response, Server, ServerConfig,
};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests each client keeps in flight (the E18 posture).
const PIPELINE: usize = 4;
/// Accumulator shards (and WALs).
const SHARDS: u32 = 2;
/// Hard ceiling on traced-p50 / untraced-p50. The recorder stamps eight
/// monotonic clock reads per request and pushes its timeline and its
/// command's frames into the flight ring, against a latency floor set by
/// a 2ms commit window — generous headroom for CI runner noise while
/// still catching any accidentally heavy stamp path.
const OVERHEAD_BOUND: f64 = 1.5;
/// Alternating off/on pairs the overhead ratio is the median over
/// (odd, so the median is one pair's ratio).
const PAIRS_QUICK: usize = 5;
const PAIRS_FULL: usize = 7;
/// Injected `sync_data` latency for the degraded-disk phase.
const SLOW_FSYNC: Duration = Duration::from_millis(3);

// ---------------------------------------------------------------------
// SlowFs: StdFs with an artificially slow fsync.
// ---------------------------------------------------------------------

/// The real filesystem, except `sync_data` sleeps first — a degraded
/// device the waterfalls must attribute correctly. Injected through
/// [`DurableKv::create_on`]; everything above (server, accumulator,
/// WAL) runs unmodified.
#[derive(Clone)]
struct SlowFs {
    sleep: Duration,
}

struct SlowFile {
    inner: std::fs::File,
    sleep: Duration,
}

impl io::Write for SlowFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl VfsFile for SlowFile {
    fn sync_data(&mut self) -> io::Result<()> {
        std::thread::sleep(self.sleep);
        VfsFile::sync_data(&mut self.inner)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        VfsFile::sync_all(&mut self.inner)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        VfsFile::set_len(&mut self.inner, len)
    }
    fn seek_end(&mut self) -> io::Result<u64> {
        VfsFile::seek_end(&mut self.inner)
    }
}

impl Vfs for SlowFs {
    type File = SlowFile;
    type Reader = <StdFs as Vfs>::Reader;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdFs.create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        StdFs.exists(path)
    }
    fn open_read(&self, path: &Path) -> io::Result<Self::Reader> {
        StdFs.open_read(path)
    }
    fn create(&self, path: &Path) -> io::Result<SlowFile> {
        Ok(SlowFile {
            inner: StdFs.create(path)?,
            sleep: self.sleep,
        })
    }
    fn open_rw(&self, path: &Path) -> io::Result<SlowFile> {
        Ok(SlowFile {
            inner: StdFs.open_rw(path)?,
            sleep: self.sleep,
        })
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdFs.rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        StdFs.sync_dir(dir)
    }
}

// ---------------------------------------------------------------------
// Workload driver.
// ---------------------------------------------------------------------

struct RunStats {
    /// Client-perceived e2e latency per ack, sorted ascending (µs).
    lat_us: Vec<u64>,
    /// (trace id, e2e nanos) per request — empty on untraced runs.
    by_id: Vec<(u64, u64)>,
    wall: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn tempdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dsf-exp-trace-{}-{tag}", std::process::id()))
}

/// Drives `clients` pipelining threads of Strict inserts against
/// `service` over a real loopback socket; traced runs join each ack back
/// to the id its request carried.
fn drive(
    service: Arc<dyn KvService>,
    clients: usize,
    keys_per_client: u64,
    traced: bool,
    pipeline: usize,
) -> RunStats {
    let server = Server::bind(service, ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let stripe = (u64::MAX / u64::from(SHARDS)).saturating_add(1);
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut cl = Client::connect(addr).expect("connect");
                let base = (c as u64 % u64::from(SHARDS)) * stripe + (c as u64) * 1_000_000;
                // (id, t0) in request order; t0 is taken *before* the send
                // so the server-side timeline is strictly contained in the
                // client-measured interval even if the buffer auto-flushes
                // mid-send.
                let mut sent: VecDeque<(u64, Instant)> = VecDeque::with_capacity(pipeline);
                let mut lat: Vec<(u64, u64)> = Vec::with_capacity(keys_per_client as usize);
                let recv_one = |cl: &mut Client,
                                sent: &mut VecDeque<(u64, Instant)>,
                                lat: &mut Vec<(u64, u64)>| {
                    match cl.recv().expect("recv") {
                        Response::Applied {
                            outcome: Outcome::Inserted,
                            ..
                        } => {}
                        other => panic!("unexpected response: {other:?}"),
                    }
                    let (id, t0) = sent.pop_front().expect("ack without send");
                    lat.push((
                        id,
                        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    ));
                };
                for j in 0..keys_per_client {
                    let req = Request::Insert {
                        key: base + j,
                        value: format!("v{j}"),
                        durability: Durability::Strict,
                    };
                    let t0 = Instant::now();
                    let id = if traced {
                        cl.send_traced(&req).expect("send")
                    } else {
                        cl.send(&req).expect("send");
                        0
                    };
                    sent.push_back((id, t0));
                    if cl.in_flight() >= pipeline {
                        recv_one(&mut cl, &mut sent, &mut lat);
                    }
                }
                while cl.in_flight() > 0 {
                    recv_one(&mut cl, &mut sent, &mut lat);
                }
                lat
            })
        })
        .collect();
    let per_req: Vec<(u64, u64)> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    // Joining the connection threads here is what makes the later flight
    // snapshot complete: every ack's `finish_trace` has run.
    server.shutdown().expect("graceful shutdown");

    assert_eq!(
        per_req.len() as u64,
        clients as u64 * keys_per_client,
        "every insert acked exactly once"
    );
    let mut lat_us: Vec<u64> = per_req.iter().map(|&(_, ns)| ns / 1_000).collect();
    lat_us.sort_unstable();
    RunStats {
        lat_us,
        by_id: if traced { per_req } else { Vec::new() },
        wall,
    }
}

/// Every shard's configuration.
fn shard_config() -> DenseFileConfig {
    DenseFileConfig::control2(1 << 14, 8, 48)
}

/// Stops the flight recorder and snapshots what it holds.
fn stop_and_snapshot() -> FlightLog {
    dsf_flight::disable();
    let rc = shard_config().resolve().expect("valid config");
    dsf_flight::snapshot_log(rc.flight_budget())
}

/// One run of the workload on a fresh store, with the recorder on or
/// off; a traced run returns what it recorded.
fn run(clients: usize, keys: u64, traced: bool) -> (RunStats, Option<FlightLog>) {
    dsf_flight::disable();
    dsf_flight::clear();
    if traced {
        dsf_flight::enable();
    }
    let dir = tempdir(if traced { "on" } else { "off" });
    let stats = drive(Arc::new(std_store(&dir)), clients, keys, traced, PIPELINE);
    let _ = std::fs::remove_dir_all(&dir);
    if !traced {
        assert_eq!(
            dsf_flight::ring().total(),
            0,
            "disabled tracing must record nothing"
        );
        return (stats, None);
    }
    (stats, Some(stop_and_snapshot()))
}

/// Joins every client-measured latency of a traced run to its
/// server-side timeline by trace id: coverage must be total and
/// containment must never fail. Each timeline's seq must name a command
/// whose page cost the same log holds: the join `dsf explain` makes.
/// Returns the timelines joined.
fn reconcile(on: &RunStats, log: &FlightLog) -> u64 {
    assert_eq!(log.dropped, 0, "the flight ring must retain every frame");
    let attr = log.replay();
    let by_id: std::collections::HashMap<u64, _> = log.requests().map(|r| (r.id, r)).collect();
    for &(id, client_ns) in &on.by_id {
        let rec = by_id
            .get(&id)
            .unwrap_or_else(|| panic!("no timeline for trace id {id:#x}"));
        assert!(
            attr.find(rec.seq).is_some(),
            "timeline {id:#x} names seq {}, which is no command in the log",
            rec.seq
        );
        assert!(
            rec.total() <= client_ns,
            "timeline {id:#x} claims {}ns but the client measured only {client_ns}ns \
             end-to-end — phase sums must be contained in the e2e latency",
            rec.total(),
        );
    }
    on.by_id.len() as u64
}

/// A fresh StdFs-backed store in a scratch dir (removed by the caller).
fn std_store(dir: &Path) -> DurableKv {
    let _ = std::fs::remove_dir_all(dir);
    DurableKv::create(
        dir,
        SHARDS,
        shard_config(),
        SyncPolicy::CommitWindow {
            max_frames: 64,
            max_micros: 2_000,
        },
    )
    .expect("create store")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("=== E19: dsf trace — wire-to-fsync waterfalls, tail attribution ===");
    println!("profile: {}", if quick { "quick (CI)" } else { "full" });
    println!();
    println!("real loopback sockets, Strict durability-on-ack, {PIPELINE}-deep");
    println!("pipelining, {SHARDS} shards; every request in the traced runs carries");
    println!("a client-assigned trace id the server's timeline is joined on.\n");

    let clients = if quick { 4 } else { 8 };
    let keys = if quick { 400 } else { 1_500 };
    let slow_keys = if quick { 60 } else { 150 };

    // -- Phases 1-2: alternating off/on pairs — overhead and
    // reconciliation. Every traced run must reconcile; the overhead
    // ratio is the median of the per-pair p50 ratios.
    let pairs = if quick { PAIRS_QUICK } else { PAIRS_FULL };
    let mut ratios = Vec::with_capacity(pairs);
    let (mut p50s_off, mut p50s_on, mut p99s_on) = (Vec::new(), Vec::new(), Vec::new());
    let mut covered = 0u64;
    let mut last = None;
    for pair in 1..=pairs {
        let (off, _) = run(clients, keys, false);
        let (on, log) = run(clients, keys, true);
        let log = log.expect("a traced run records");
        covered += reconcile(&on, &log);
        let (p50_off, p50_on) = (percentile(&off.lat_us, 0.50), percentile(&on.lat_us, 0.50));
        let ratio = p50_on as f64 / p50_off.max(1) as f64;
        println!(
            "pair {pair}: off {:>5} cmds in {:>5.2}s p50 {:>6} us | on {:>5} cmds in {:>5.2}s \
             p50 {:>6} us p99 {:>6} us | ratio {ratio:.3}",
            off.lat_us.len(),
            off.wall,
            p50_off,
            on.lat_us.len(),
            on.wall,
            p50_on,
            percentile(&on.lat_us, 0.99),
        );
        ratios.push(ratio);
        p50s_off.push(p50_off);
        p50s_on.push(p50_on);
        p99s_on.push(percentile(&on.lat_us, 0.99));
        last = Some((off, on, log));
    }
    let (off, on, log) = last.expect("at least one pair");
    let overhead = median(&mut ratios.clone());
    let (p50_off, p50_on, p99_on) = (
        median(&mut p50s_off),
        median(&mut p50s_on),
        median(&mut p99s_on),
    );
    assert!(
        overhead <= OVERHEAD_BOUND,
        "recording overhead out of bounds: median p50 ratio {overhead:.3}x over {pairs} \
         pairs > {OVERHEAD_BOUND}x (pairs: {ratios:.3?})"
    );
    let report = TraceReport::from_log(&log, 3);
    println!(
        "\nreconciliation: all {covered} timelines of {pairs} traced runs joined, every \
         phase sum contained in its client-measured e2e; overhead {overhead:.3}x (median of \
         {pairs} pairs, bound {OVERHEAD_BOUND}x)\n",
    );
    println!("{}", report.render_text());

    // -- Phase 3: degraded disk — the tail must blame fsync. -----------
    // Unpipelined, one client per shard, fsync-per-command: queueing and
    // group-commit sharing are taken out of the picture so every
    // microsecond the slow device costs lands on the request that paid
    // it — the *direct* attribution claim, rather than the head-of-line
    // shadow a slow fsync also casts on queue_wait under pipelining.
    dsf_flight::clear();
    dsf_flight::enable();
    let dir = tempdir("slow");
    let _ = std::fs::remove_dir_all(&dir);
    let slow_kv = DurableKv::create_on(
        SlowFs { sleep: SLOW_FSYNC },
        &dir,
        SHARDS,
        shard_config(),
        SyncPolicy::EveryCommand,
    )
    .expect("create slow store");
    slow_kv.enable_optimistic_reads();
    let slow = drive(Arc::new(slow_kv), SHARDS as usize, slow_keys, true, 1);
    let _ = std::fs::remove_dir_all(&dir);
    let slow_report = TraceReport::from_log(&stop_and_snapshot(), 3);

    let (dom, share) = slow_report
        .dominant_phase()
        .expect("slow run recorded timelines");
    assert_eq!(
        dom,
        Phase::Fsync,
        "a {SLOW_FSYNC:?} sync_data must make fsync the dominant phase, got {} at {:.0}%",
        dom.name(),
        share * 100.0
    );
    // And the attribution must hold at the tail, not just on average: the
    // slowest request's own waterfall blames fsync too.
    let exemplar = &slow_report.exemplars[0];
    assert_eq!(
        Phase::dominant(exemplar),
        Phase::Fsync,
        "p99 exemplar {:#x} must attribute its latency to fsync",
        exemplar.id
    );
    println!(
        "degraded disk ({SLOW_FSYNC:?} sync_data): fsync dominant at {:.0}% of total \
         time; slowest request {:#x} spends {:.1}us of {:.1}us in fsync",
        share * 100.0,
        exemplar.id,
        exemplar.phases[Phase::Fsync as usize] as f64 / 1_000.0,
        exemplar.total() as f64 / 1_000.0,
    );
    println!("\n{}", TraceReport::render_waterfall(exemplar));

    let mut t = Table::new(["run", "cmds", "p50 us", "p99 us", "dominant", "share"]);
    for (name, stats, rep) in [
        ("untraced", &off, None),
        ("traced", &on, Some(&report)),
        ("slow-fsync", &slow, Some(&slow_report)),
    ] {
        let (dom, share) = rep
            .and_then(|r| r.dominant_phase())
            .map(|(p, s)| (p.name().to_string(), format!("{:.0}%", s * 100.0)))
            .unwrap_or_else(|| ("-".into(), "-".into()));
        t.row([
            name.to_string(),
            stats.lat_us.len().to_string(),
            percentile(&stats.lat_us, 0.50).to_string(),
            percentile(&stats.lat_us, 0.99).to_string(),
            dom,
            share,
        ]);
    }
    t.print("trace runs — overhead, reconciliation, and attribution");

    let mut json = String::from("{\n  \"experiment\": \"trace\",\n");
    json.push_str(&format!("  \"quick\": {},\n", u8::from(quick)));
    json.push_str(&format!("  \"trace_p50_off_us\": {p50_off},\n"));
    json.push_str(&format!("  \"trace_p50_on_us\": {p50_on},\n"));
    json.push_str(&format!("  \"trace_p99_on_us\": {p99_on},\n"));
    json.push_str(&format!("  \"trace_overhead_ratio\": {overhead:.4},\n"));
    json.push_str(&format!(
        "  \"trace_overhead_pair_ratios\": [{}],\n",
        ratios
            .iter()
            .map(|r| format!("{r:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str("  \"trace_coverage\": 1.0000,\n");
    json.push_str(&format!("  \"trace_fsync_share\": {:.4},\n", share));
    json.push_str(&format!(
        "  \"trace_throughput\": {},\n",
        f(on.lat_us.len() as f64 / on.wall)
    ));
    // The binary only reaches this line if every hard assert above held,
    // so the two claim gates are literal.
    json.push_str("  \"trace_reconcile_ok\": 1,\n");
    json.push_str("  \"trace_fsync_dominant\": 1,\n");
    json.push_str("  \"claims_ok\": 1\n}\n");
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");
    println!("\nwrote BENCH_trace.json");
}
