//! End-to-end telemetry reconciliation against the *global* spine.
//!
//! This file holds exactly one test on purpose: it enables the
//! process-wide registry and asserts exact global counter values, so it
//! must not share a process with other tests that might also record into
//! the spine (cargo gives each `tests/*.rs` its own binary, which is the
//! isolation we need).

use willard_dsf::pagestore::{AsyncBackend, BufferPool, MemBackend};
use willard_dsf::telemetry;
use willard_dsf::{
    Command, DenseFile, DenseFileConfig, Durability, DurableFile, SyncPolicy, READ_MAX_ATTEMPTS,
};

#[test]
fn global_spine_mirrors_op_stats_and_exports_valid_prometheus() {
    let reg = telemetry::global();
    reg.reset();
    reg.enable();

    let mut f: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(256, 6, 8)).unwrap();
    let capacity = f.capacity();
    let backbone = capacity * 3 / 5;
    let stride = u64::MAX / (backbone + 1);
    f.bulk_load((0..backbone).map(|i| (i * stride, i))).unwrap();

    let mut inserted = Vec::new();
    for i in 0..(capacity - backbone).saturating_sub(4) {
        let k = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1) | 1;
        if f.insert(k, i).is_ok() {
            inserted.push(k);
        }
    }
    for &k in inserted.iter().step_by(3) {
        f.remove(&k).unwrap();
    }
    f.refresh_telemetry_gauges();
    reg.disable();

    let stats = f.op_stats();
    assert!(stats.commands > 100, "workload too small to be meaningful");

    // The ISSUE's acceptance criterion: the spine's per-command histogram
    // IS OpStats' histogram — count, sum, max, and every bucket.
    let hist = reg.histogram(
        "dsf_command_page_accesses",
        "page accesses per insert/delete command",
    );
    assert_eq!(hist.count(), stats.commands);
    assert_eq!(hist.sum(), stats.total_accesses);
    assert_eq!(hist.max(), stats.max_accesses);
    assert_eq!(hist.bucket_counts(), stats.histogram.bucket_counts());

    // Command-kind counters split the same total.
    let ins = reg.counter_with("dsf_commands_total", &[("kind", "insert")], "");
    let del = reg.counter_with("dsf_commands_total", &[("kind", "delete")], "");
    assert_eq!(ins.get() + del.get(), stats.commands);
    assert_eq!(del.get(), (inserted.len() as u64).div_ceil(3));

    // Gauges refreshed from live structure state.
    let records = reg.gauge("dsf_records", "");
    assert_eq!(records.get() as u64, f.len());
    let headroom = reg.gauge("dsf_balance_headroom_worst", "");
    assert!(
        headroom.get().is_finite(),
        "headroom gauge must be computed, got {}",
        headroom.get()
    );

    // The Prometheus rendering must parse as well-formed 0.0.4 exposition
    // with no duplicate samples and every family typed.
    let text = reg.render_prometheus();
    let summary = telemetry::parse_exposition(&text).expect("exposition must parse");
    assert!(summary.families >= 5, "families: {}", summary.families);
    assert!(summary.samples > summary.families);
    assert!(text.contains("dsf_command_page_accesses_count"));
    assert!(text.contains(&format!(
        "dsf_command_page_accesses_max {}",
        stats.max_accesses
    )));

    // ----- batch pipeline metrics reconcile exactly -----
    reg.enable();
    let mut bf: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
    let batches: Vec<Vec<Command<u64, u64>>> = (0..5u64)
        .map(|b| {
            (0..(8 + b * 4))
                .map(|i| {
                    if i % 7 == 6 {
                        Command::Remove(b * 1000 + i - 1)
                    } else {
                        Command::Insert(b * 1000 + i, i)
                    }
                })
                .collect()
        })
        .collect();
    let submitted: u64 = batches.iter().map(|b| b.len() as u64).sum();
    for b in &batches {
        bf.apply_batch(b);
    }

    // Group commit: a durable file fed the same batches must observe one
    // `dsf_wal_group_commit_frames` entry per batch, whose sum is exactly
    // the number of effective (frame-producing) commands.
    let dir = std::env::temp_dir().join(format!("dsf-tel-reconcile-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut df: DurableFile<u64, u64> = DurableFile::create(
        &dir,
        DenseFileConfig::control2(64, 6, 8),
        SyncPolicy::EveryCommand,
    )
    .unwrap();
    let mut effective = 0u64;
    for b in &batches {
        effective += df
            .apply_batch(b)
            .unwrap()
            .iter()
            .filter(|o| o.is_effective())
            .count() as u64;
    }
    reg.disable();
    std::fs::remove_dir_all(&dir).ok();

    let batch_cmds = reg.counter("dsf_batch_commands", "");
    assert_eq!(batch_cmds.get(), 2 * submitted, "dsf_batch_commands");
    let batch_size = reg.histogram("dsf_batch_size", "");
    assert_eq!(batch_size.count(), 2 * batches.len() as u64);
    assert_eq!(batch_size.sum(), 2 * submitted);
    let gc = reg.histogram("dsf_wal_group_commit_frames", "");
    assert_eq!(gc.count(), batches.len() as u64, "one entry per batch");
    assert_eq!(gc.sum(), effective, "frames == effective commands");
    // Every group commit paid exactly one fsync under EveryCommand.
    let fsyncs = reg.counter("dsf_wal_fsyncs_total", "");
    assert_eq!(fsyncs.get(), batches.len() as u64);

    // ----- async I/O engine metrics reconcile exactly -----
    // Every backend page write goes through the scheduler's workers, so
    // `dsf_writeback_pages` must equal the inner backend's page-write
    // count, and after a drain the queue-depth gauge must read zero.
    reg.enable();
    let mut pool = BufferPool::new(AsyncBackend::new(MemBackend::new(64), 2, 8), 4);
    for p in 0..12u64 {
        pool.get_mut(p).unwrap()[0] = p as u8; // cap 4: evictions write back
    }
    pool.flush_all().unwrap();
    pool.backend().drain().unwrap();
    let mem = pool
        .into_backend()
        .and_then(AsyncBackend::into_inner)
        .unwrap();
    reg.disable();
    let depth = reg.gauge("dsf_io_queue_depth", "");
    assert_eq!(depth.get(), 0.0, "queue depth after drain");
    let wb = reg.counter("dsf_writeback_pages", "");
    assert!(wb.get() > 0, "workload produced no background writeback");
    assert_eq!(wb.get(), mem.pages_written, "dsf_writeback_pages");

    // ----- commit-window metrics reconcile exactly -----
    // 10 Relaxed inserts under max_frames=4: size triggers close at 4 and
    // 8, the explicit sync closes the 2-frame remainder — three window
    // fsyncs covering every effective command exactly once.
    reg.enable();
    let wdir = std::env::temp_dir().join(format!("dsf-tel-window-{}", std::process::id()));
    std::fs::remove_dir_all(&wdir).ok();
    let mut wf: DurableFile<u64, u64> = DurableFile::create(
        &wdir,
        DenseFileConfig::control2(64, 6, 8),
        SyncPolicy::CommitWindow {
            max_frames: 4,
            max_micros: u64::MAX,
        },
    )
    .unwrap();
    for i in 0..10u64 {
        wf.insert_with(i * 31, i, Durability::Relaxed).unwrap();
    }
    wf.sync().unwrap();
    reg.disable();
    std::fs::remove_dir_all(&wdir).ok();
    let wfsyncs = reg.counter("dsf_commit_window_fsyncs", "");
    assert_eq!(wfsyncs.get(), 3, "dsf_commit_window_fsyncs");
    let wframes = reg.histogram("dsf_commit_window_frames", "");
    assert_eq!(wframes.count(), 3, "one observation per closed window");
    assert_eq!(
        wframes.sum(),
        10,
        "every frame durable in exactly one window"
    );

    // ----- optimistic-read counters reconcile exactly -----
    // The read path accounts for itself unsampled: a read that validates on
    // its first attempt is one hit and nothing else; a read that loses the
    // epoch race every attempt burns exactly READ_MAX_ATTEMPTS - 1 retries
    // plus one fallback and is never a hit.
    reg.enable();
    let mut of: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
    let n = 40u64;
    let rstride = u64::MAX / (n + 1);
    of.bulk_load((0..n).map(|i| (i * rstride, i))).unwrap();
    let view = of.enable_optimistic_reads();
    let hits = reg.counter("dsf_read_optimistic_hits", "");
    let retries = reg.counter("dsf_read_retries", "");
    let fallbacks = reg.counter("dsf_read_fallbacks", "");
    let (h0, r0, f0) = (hits.get(), retries.get(), fallbacks.get());

    // Quiescent file: every get — present key or definitive miss — and the
    // range collection validate first try.
    for i in 0..n {
        assert_eq!(view.try_get(&(i * rstride)).unwrap(), Some(i));
    }
    assert_eq!(view.try_get(&(rstride / 2)).unwrap(), None);
    let range = view
        .try_collect_range(
            std::ops::Bound::Included(0),
            std::ops::Bound::Included(3 * rstride),
        )
        .unwrap();
    assert_eq!(range.len(), 4);
    assert_eq!(hits.get(), h0 + n + 2, "one hit per validated read");
    assert_eq!(retries.get(), r0, "quiescent reads never retry");
    assert_eq!(fallbacks.get(), f0, "quiescent reads never fall back");

    // Poisoned epoch: a permanently odd epoch fails every attempt, so each
    // read's accounting is deterministic — no sampling, no slack.
    view.poison_epoch_for_test();
    let m = 7u64;
    for _ in 0..m {
        assert!(view.try_get(&0).is_err(), "poisoned epoch must conflict");
    }
    view.unpoison_epoch_for_test();
    assert_eq!(hits.get(), h0 + n + 2, "fallbacks are not hits");
    assert_eq!(retries.get(), r0 + m * u64::from(READ_MAX_ATTEMPTS - 1));
    assert_eq!(fallbacks.get(), f0 + m, "one fallback per abandoned read");

    // Recovery: the first read after unpoisoning is an ordinary hit.
    assert_eq!(view.try_get(&0).unwrap(), Some(0));
    reg.disable();
    assert_eq!(hits.get(), h0 + n + 3);
    assert_eq!(retries.get(), r0 + m * u64::from(READ_MAX_ATTEMPTS - 1));
    assert_eq!(fallbacks.get(), f0 + m);

    // Layout never declines a get: incremental ingest packs records into
    // a slot prefix, and a probe past them descends the published min keys
    // like any other read. One attempt, one hit.
    let mut packed: DenseFile<u64, u64> =
        DenseFile::new(DenseFileConfig::control2(1024, 8, 48)).unwrap();
    let pview = packed.enable_optimistic_reads();
    for i in 0..200u64 {
        packed.insert(i, i).unwrap();
    }
    reg.enable();
    assert_eq!(pview.try_get(&1_000_000), Ok(None), "packed layout routes");
    reg.disable();
    assert_eq!(packed.get(&1_000_000), None);
    assert_eq!(hits.get(), h0 + n + 4, "the packed get is one hit");
    assert_eq!(retries.get(), r0 + m * u64::from(READ_MAX_ATTEMPTS - 1));
    assert_eq!(fallbacks.get(), f0 + m);

    // A validated decline is not a race: an unbounded collection over more
    // occupied slots than one validated window may collect (SCAN_SLOT_LIMIT,
    // 1024) declines the same way on every attempt against that
    // generation, so it falls back after one attempt: a fallback, no
    // retries, and the counter identities still hold.
    let mut wide: DenseFile<u64, u64> =
        DenseFile::new(DenseFileConfig::control2(4096, 8, 48)).unwrap();
    wide.bulk_load((0..20_000u64).map(|i| (i, i))).unwrap();
    assert!(wide.slot_counts().iter().filter(|&&c| c > 0).count() > 1024);
    let wview = wide.enable_optimistic_reads();
    reg.enable();
    assert!(
        wview
            .try_collect_range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .is_err(),
        "a collection of every occupied slot declines"
    );
    reg.disable();
    assert_eq!(hits.get(), h0 + n + 4);
    assert_eq!(retries.get(), r0 + m * u64::from(READ_MAX_ATTEMPTS - 1));
    assert_eq!(fallbacks.get(), f0 + m + 1, "the decline is one fallback");
}
