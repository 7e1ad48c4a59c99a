//! E16 — async disk engine: group-commit latency under durable ingest,
//! background-writeback attribution, and shard ingest feeding the
//! I/O scheduler.
//!
//! The paper de-amortizes the *structural* cost per command; this
//! experiment measures de-amortizing the *disk* cost around it. Three
//! phases:
//!
//! * **Latency (phase L).** An open-loop arrival process (one command every
//!   `fsync/4` microseconds — deliberately oversubscribing a synchronous
//!   engine by 4×) ingests the same key stream into two [`DurableFile`]s:
//!   `SyncPolicy::EveryCommand` (fsync per command, durable on ack) vs
//!   `SyncPolicy::CommitWindow` with `Durability::Relaxed` commands (ack at
//!   buffer, durable at the window's fsync). Latency is measured to the
//!   point the *same contract* is met — command durable — so the comparison
//!   is apples-to-apples with the synchronous engine's durability-on-ack:
//!   for the window engine a command completes when `durable_lsn` passes
//!   its LSN, never earlier (hard-asserted while the window is open). The
//!   oversubscribed synchronous engine queues; the window engine amortizes
//!   the fsync over `WINDOW_FRAMES` commands and keeps up. Headline:
//!   `p99_speedup` = sync p99 / window p99-to-durable, asserted ≥ 5×.
//!   Both files must finish bit-identical (hard assert) and the window
//!   file must survive a reopen with nothing lost.
//!
//! * **Writeback attribution (phase W).** With the flight recorder on, a
//!   command stream dirties pages in a [`BufferPool`] over an
//!   [`AsyncBackend`]; writeback happens on scheduler workers. Flight
//!   replay must attribute every written-back page to the command seq that
//!   dirtied it — `total_writeback_pages()` equals the inner backend's
//!   page-write count exactly (no unattributed charges), and per-command
//!   frames still reconcile. The raw log is saved as `BENCH_async.flight`
//!   for the CI artifact.
//!
//! * **Shard spill overlap (phase S).** Parallel shard ingest
//!   ([`ShardedFile::apply_batch`]) alternates with spilling shard pages to
//!   a slow (busy-wait) backend: synchronously the spill serializes with
//!   the next chunk's CPU work; through the [`AsyncBackend`] the enqueue
//!   returns immediately and workers absorb the device latency while the
//!   next chunk ingests. Reported as `shard_overlap_ratio` (sync wall /
//!   async wall).
//!
//! Run: `cargo run --release -p dsf-bench --bin exp_async_engine`
//! (`--quick` for the CI-sized variant). Writes `BENCH_async.json` and
//! `BENCH_async.flight` into the current directory.

use std::time::{Duration, Instant};

use dsf_concurrent::ShardedFile;
use dsf_core::{Command, DenseFileConfig};
use dsf_durable::{Durability, DurableFile, SyncPolicy};
use dsf_flight::{BoundBudget, CommandKind};
use dsf_pagestore::{AsyncBackend, BufferPool, MemBackend, PageBackend};

/// Frames per commit window — the fsync amortization factor.
const WINDOW_FRAMES: u32 = 64;

fn cfg(pages: u32) -> DenseFileConfig {
    DenseFileConfig::control2(pages, 6, 8)
}

/// Unique, well-spread keys (odd multiplier ⇒ bijection on `u64`).
fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx]
}

/// Median per-command cost of append+fsync on this machine, measured on a
/// throwaway file. Everything in phase L is scaled off this number so the
/// experiment expresses *oversubscription*, not an absolute device speed.
fn measure_fsync_micros(scratch: &std::path::Path) -> f64 {
    let dir = scratch.join("probe");
    let mut f: DurableFile<u64, u64> =
        DurableFile::create(&dir, cfg(256), SyncPolicy::EveryCommand).unwrap();
    let mut samples: Vec<f64> = (0..50u64)
        .map(|i| {
            let t = Instant::now();
            f.insert(key(i), i).unwrap();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn spin_until(start: Instant, deadline: Duration) -> Duration {
    loop {
        let now = start.elapsed();
        if now >= deadline {
            return now;
        }
        std::hint::spin_loop();
    }
}

struct LatencyOutcome {
    p99_micros: f64,
    p50_micros: f64,
    fsyncs: u64,
    records: Vec<(u64, u64)>,
}

/// Open-loop ingest of `n` commands, one arriving every `arrival_micros`.
/// Per-command latency runs from scheduled arrival to the moment the
/// command's durability contract is met.
fn run_sync_engine(dir: &std::path::Path, n: usize, arrival_micros: f64) -> LatencyOutcome {
    let reg = dsf_telemetry::global();
    let fsyncs = reg.counter("dsf_wal_fsyncs_total", "");
    let base = fsyncs.get();
    let mut f: DurableFile<u64, u64> =
        DurableFile::create(dir, cfg(1024), SyncPolicy::EveryCommand).unwrap();
    let mut lat = Vec::with_capacity(n);
    let start = Instant::now();
    for i in 0..n as u64 {
        let arrival = Duration::from_secs_f64(i as f64 * arrival_micros * 1e-6);
        spin_until(start, arrival);
        f.insert(key(i), i).unwrap();
        // EveryCommand: the ack IS the durability point.
        lat.push((start.elapsed() - arrival).as_secs_f64() * 1e6);
    }
    lat.sort_by(f64::total_cmp);
    LatencyOutcome {
        p99_micros: percentile(&lat, 99.0),
        p50_micros: percentile(&lat, 50.0),
        fsyncs: fsyncs.get() - base,
        records: f.iter().map(|(k, v)| (*k, *v)).collect(),
    }
}

fn run_window_engine(dir: &std::path::Path, n: usize, arrival_micros: f64) -> LatencyOutcome {
    let reg = dsf_telemetry::global();
    let window_fsyncs = reg.counter("dsf_commit_window_fsyncs", "");
    let base = window_fsyncs.get();
    let policy = SyncPolicy::CommitWindow {
        max_frames: WINDOW_FRAMES,
        // Age trigger at 4 windows' worth of arrivals: a stalled stream
        // still drains, a saturated one closes on the size trigger.
        max_micros: (4.0 * f64::from(WINDOW_FRAMES) * arrival_micros) as u64,
    };
    let mut f: DurableFile<u64, u64> = DurableFile::create(dir, cfg(1024), policy).unwrap();
    let mut arrivals = Vec::with_capacity(n);
    let mut durable_at = vec![f64::NAN; n];
    let mut completed = 0usize;
    let start = Instant::now();
    for i in 0..n as u64 {
        let arrival = Duration::from_secs_f64(i as f64 * arrival_micros * 1e-6);
        arrivals.push(arrival.as_secs_f64() * 1e6);
        spin_until(start, arrival);
        f.insert_with(key(i), i, Durability::Relaxed).unwrap();
        // The durability contract: a Relaxed ack means *buffered*, never
        // durable — while its window is open, the command's LSN must sit
        // strictly above the durable watermark.
        if f.window_frames() > 0 {
            assert!(
                f.durable_lsn() < f.appended_lsn(),
                "Relaxed command reported durable before its window's fsync"
            );
        }
        // A close (size or age trigger) advances the watermark; commands
        // at or below it became durable *now*.
        let now = start.elapsed().as_secs_f64() * 1e6;
        while completed < f.durable_lsn() as usize {
            durable_at[completed] = now - arrivals[completed];
            completed += 1;
        }
    }
    f.sync().unwrap();
    let now = start.elapsed().as_secs_f64() * 1e6;
    assert_eq!(
        f.durable_lsn(),
        n as u64,
        "final sync must drain the window"
    );
    while completed < n {
        durable_at[completed] = now - arrivals[completed];
        completed += 1;
    }
    let mut lat = durable_at;
    lat.sort_by(f64::total_cmp);
    LatencyOutcome {
        p99_micros: percentile(&lat, 99.0),
        p50_micros: percentile(&lat, 50.0),
        fsyncs: window_fsyncs.get() - base,
        records: f.iter().map(|(k, v)| (*k, *v)).collect(),
    }
}

/// Phase W: every page written back by the scheduler must be attributed to
/// the flight seq of the command that dirtied it. Returns the page count.
fn phase_writeback_attribution() -> u64 {
    const COMMANDS: u64 = 48;
    const PAGES_PER_CMD: u64 = 3;
    dsf_flight::enable();
    dsf_flight::clear();
    let mut pool = BufferPool::new(AsyncBackend::new(MemBackend::new(256), 2, 16), 64);
    for c in 0..COMMANDS {
        dsf_flight::begin_command(CommandKind::Insert, c);
        for j in 0..PAGES_PER_CMD {
            let p = c * PAGES_PER_CMD + j;
            pool.get_mut(p).unwrap()[0] = c as u8;
        }
        dsf_flight::end_command(0, 0);
    }
    pool.flush_all().unwrap();
    pool.backend().drain().unwrap();
    let mem = pool
        .into_backend()
        .and_then(AsyncBackend::into_inner)
        .unwrap();
    let budget = BoundBudget {
        j: 1,
        k: 1,
        log_slots: 8,
        gap: 1,
    };
    dsf_flight::save("BENCH_async.flight", budget).unwrap();
    let log = dsf_flight::snapshot_log(budget);
    dsf_flight::disable();

    let attr = log.replay();
    assert_eq!(attr.dropped, 0, "ring evicted events; segment must fit");
    assert_eq!(attr.command_count(), COMMANDS);
    assert!(attr.reconciles(), "per-command frames must reconcile");
    assert_eq!(
        attr.total_writeback_pages(),
        mem.pages_written,
        "background writeback has unattributed page charges"
    );
    mem.pages_written
}

/// A backend whose writes block like a device (sleeping, not spinning, so
/// the caller's CPU is free to overlap — the point of the scheduler).
/// Reads stay free so the phase isolates write-path overlap.
struct SlowBackend {
    inner: MemBackend,
    write_micros: u64,
}

impl PageBackend for SlowBackend {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn read_run(&mut self, first_page: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.inner.read_run(first_page, buf)
    }
    fn write_run(&mut self, first_page: u64, data: &[u8]) -> std::io::Result<()> {
        std::thread::sleep(Duration::from_micros(self.write_micros));
        self.inner.write_run(first_page, data)
    }
}

/// Phase S: sharded ingest alternating with page spills. Returns
/// (sync wall ms, async wall ms).
fn phase_shard_ingest(quick: bool) -> (f64, f64) {
    const SHARDS: u32 = 4;
    const SPILL_MICROS: u64 = 200;
    let chunks = if quick { 8 } else { 24 };
    let per_chunk = 256usize;

    let stream: Vec<Vec<Command<u64, u64>>> = (0..chunks as u64)
        .map(|c| {
            (0..per_chunk as u64)
                .map(|i| Command::Insert(key(c * per_chunk as u64 + i), i))
                .collect()
        })
        .collect();

    let slow = || SlowBackend {
        inner: MemBackend::new(256),
        write_micros: SPILL_MICROS,
    };
    // Writes go straight to the backend: the spill path is append-shaped
    // (never re-reads what it wrote), and a read through the scheduler is
    // a drain barrier that would serialize exactly the overlap under test.
    type SpillWriter<'a> = Box<dyn FnMut(u64, &[u8]) + 'a>;
    let run = |mut backend: SpillWriter<'_>, finish: Box<dyn FnOnce()>| -> f64 {
        let sf: ShardedFile<u64> = ShardedFile::new(SHARDS, cfg(1024)).unwrap();
        let page = vec![0u8; 256];
        let start = Instant::now();
        for (c, chunk) in stream.iter().enumerate() {
            // Parallel-sharded CPU ingest...
            for out in sf.apply_batch(chunk) {
                assert!(out.is_effective());
            }
            // ...then spill one page per shard for this chunk. The sync
            // backend pays the device inline; the scheduler enqueues and
            // its workers absorb it under the next chunk's ingest.
            for s in 0..SHARDS as usize {
                backend((c * SHARDS as usize + s) as u64, &page);
            }
        }
        finish();
        start.elapsed().as_secs_f64() * 1e3
    };

    let mut direct = slow();
    let sync_ms = run(
        Box::new(move |p, data| direct.write_run(p, data).unwrap()),
        Box::new(|| {}),
    );
    let sched = std::rc::Rc::new(std::cell::RefCell::new(AsyncBackend::new(slow(), 2, 32)));
    let writer = std::rc::Rc::clone(&sched);
    let async_ms = run(
        Box::new(move |p, data| writer.borrow_mut().write_run(p, data).unwrap()),
        Box::new(move || sched.borrow().drain().unwrap()),
    );
    (sync_ms, async_ms)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let scratch = std::env::temp_dir().join(format!("dsf-async-engine-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let reg = dsf_telemetry::global();
    reg.enable();

    let fsync_micros = measure_fsync_micros(&scratch);
    // 4× oversubscribed arrivals, and a command count that keeps the
    // synchronous run's wall time bounded on slow devices while leaving
    // percentiles meaningful.
    let arrival_micros = (fsync_micros / 4.0).max(1.0);
    let budget_micros = if quick { 1.5e6 } else { 4.0e6 };
    let cap = if quick { 1000 } else { 4000 };
    let n = ((budget_micros / fsync_micros) as usize).clamp(300, cap);

    println!(
        "E16 — async disk engine (fsync ≈ {fsync_micros:.0} µs, arrival {arrival_micros:.1} µs, \
         {n} commands, window {WINDOW_FRAMES})"
    );

    let sync = run_sync_engine(&scratch.join("sync"), n, arrival_micros);
    let window = run_window_engine(&scratch.join("window"), n, arrival_micros);
    let p99_speedup = sync.p99_micros / window.p99_micros;
    println!(
        "  latency: sync p50/p99 {:.0}/{:.0} µs vs window-to-durable p50/p99 {:.0}/{:.0} µs \
         ({p99_speedup:.1}× at p99); {} fsyncs vs {} window closes",
        sync.p50_micros,
        sync.p99_micros,
        window.p50_micros,
        window.p99_micros,
        sync.fsyncs,
        window.fsyncs
    );

    // Hard asserts: same records either way, and the window file's
    // durability survives a real reopen.
    assert_eq!(
        sync.records, window.records,
        "async engine end state diverged from synchronous engine"
    );
    let reopened: DurableFile<u64, u64> =
        DurableFile::open(scratch.join("window"), SyncPolicy::EveryCommand).unwrap();
    assert!(
        reopened
            .iter()
            .map(|(k, v)| (*k, *v))
            .eq(sync.records.iter().copied()),
        "window engine lost records across reopen"
    );
    reopened.check_invariants().expect("reopened invariants");
    drop(reopened);
    assert!(
        p99_speedup >= 5.0,
        "commit window must improve durable-ingest p99 ≥5×, got {p99_speedup:.2}×"
    );
    assert!(
        window.fsyncs <= sync.fsyncs / 4,
        "window engine barely amortized fsyncs: {} vs {}",
        window.fsyncs,
        sync.fsyncs
    );

    let writeback_pages = phase_writeback_attribution();
    println!("  flight: {writeback_pages} background writeback pages, all attributed, reconciled");

    let (shard_sync_ms, shard_async_ms) = phase_shard_ingest(quick);
    let shard_overlap_ratio = shard_sync_ms / shard_async_ms;
    println!(
        "  shards: spill inline {shard_sync_ms:.1} ms vs through scheduler {shard_async_ms:.1} ms \
         ({shard_overlap_ratio:.2}× overlap win)"
    );

    reg.disable();
    std::fs::remove_dir_all(&scratch).ok();

    let json = format!(
        "{{\n  \"experiment\": \"async_engine\",\n  \"quick\": {quick},\n  \"commands\": {n},\n  \"fsync_micros\": {fsync_micros:.1},\n  \"arrival_micros\": {arrival_micros:.1},\n  \"window_frames\": {WINDOW_FRAMES},\n  \"sync_p50_micros\": {:.1},\n  \"sync_p99_micros\": {:.1},\n  \"window_p50_micros\": {:.1},\n  \"window_p99_micros\": {:.1},\n  \"p99_speedup\": {p99_speedup:.2},\n  \"sync_fsyncs\": {},\n  \"window_fsyncs\": {},\n  \"writeback_pages_attributed\": {writeback_pages},\n  \"shard_sync_ms\": {shard_sync_ms:.2},\n  \"shard_async_ms\": {shard_async_ms:.2},\n  \"shard_overlap_ratio\": {shard_overlap_ratio:.2},\n  \"async_state_equals_sync\": true,\n  \"flight_attribution_reconciles\": true\n}}\n",
        sync.p50_micros,
        sync.p99_micros,
        window.p50_micros,
        window.p99_micros,
        sync.fsyncs,
        window.fsyncs,
    );
    std::fs::write("BENCH_async.json", json).unwrap();
    println!("wrote BENCH_async.json, BENCH_async.flight");
}
