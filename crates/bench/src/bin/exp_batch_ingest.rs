//! E15 — batched command pipeline: `apply_batch` vs one-at-a-time.
//!
//! Batching cannot improve the paper's *per-command* worst case — every
//! command inside a batch still pays at most the CONTROL 2
//! `O(log²M/(D−d))` page bound — but it amortizes everything *around* that
//! bound. This experiment measures the three amortizations the batch
//! pipeline ships, each in its own phase, on the same command stream:
//!
//! * **State equivalence (phase A).** The whole design rests on batching
//!   being a pure reordering of *work*, never of *effects*: applying the
//!   stream in batches of 64 must leave a [`DenseFile`] bit-identical to
//!   one-at-a-time application — same records, same slot layout, same
//!   `OpStats` down to the worst command — with every outcome equal to
//!   its sequential counterpart. Checked with hard asserts, and
//!   `batched_state_equals_sequential` lands in the JSON. A flight-recorder
//!   segment re-checks causal attribution: per-command costs recorded
//!   *inside* `apply_batch` still reconcile exactly and pass the live
//!   worst-case bound audit.
//!
//! * **Buffer-pool syscalls (phase B).** The same per-command page trace is
//!   replayed through a write-back [`BufferPool`] under two disciplines:
//!   flush-per-command (the unbatched service loop) vs
//!   [`BufferPool::pin_run`] over each batch's touched span + one flush per
//!   batch. Same logical accesses; the batched discipline turns page-in
//!   stretches into single `read_run` calls and writebacks into maximal
//!   dirty runs. Reported as `io_call_ratio` (target ≥ 1.5×).
//!
//! * **WAL fsyncs (phase C).** Two [`DurableFile`]s under
//!   `SyncPolicy::EveryCommand` ingest the same commands, one-at-a-time vs
//!   `apply_batch(64)` group commit (all frames appended, one
//!   `sync_data`). Counted from the live `dsf_wal_fsyncs_total` telemetry
//!   counter. Reported as `fsync_ratio` (target ≥ 3×; in practice ≈ batch
//!   size).
//!
//! Run: `cargo run --release -p dsf-bench --bin exp_batch_ingest`
//! (pass `--quick` for the CI-sized variant). Writes `BENCH_batch.json`
//! into the current directory.

use std::time::Instant;

use dsf_core::{Command, CommandOutcome, DenseFile, DenseFileConfig, DsfError};
use dsf_durable::{DurableFile, SyncPolicy};
use dsf_pagestore::{AccessEvent, BufferPool, MemBackend};

/// Commands per batch — the pipeline's unit of amortization.
const BATCH: usize = 64;
/// Pool frames for the phase-B replay; big enough for one batch's span,
/// far too small for the whole file.
const POOL_CAPACITY: usize = 128;

fn cfg(pages: u32) -> DenseFileConfig {
    DenseFileConfig::control2(pages, 6, 8)
}

/// The shared command stream: batches of `BATCH` commands, each batch
/// clustered in its own key region (the realistic ingest shape batching
/// targets, and what keeps a batch's page span pinnable), with duplicate
/// keys, replaces, hitting and missing removes mixed in.
#[allow(clippy::type_complexity)]
fn command_stream(pages: u32) -> (Vec<(u64, u64)>, Vec<Command<u64, u64>>) {
    let capacity = cfg(pages).resolve().unwrap().capacity();
    let backbone_len = capacity * 3 / 5;
    let stride = u64::MAX / (backbone_len + 1);
    let backbone: Vec<(u64, u64)> = (0..backbone_len).map(|i| (i * stride, i)).collect();

    let budget = (capacity - backbone_len) * 7 / 10;
    let batches = (budget as usize) / BATCH;
    let mut cmds = Vec::with_capacity(batches * BATCH);
    let mut rng: u64 = 0x5eed_cafe;
    let mut next = move || {
        // xorshift64* — deterministic, no external entropy.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    for b in 0..batches as u64 {
        // Each batch works a narrow region of the backbone.
        let region = (next() % backbone_len) * stride;
        for i in 0..BATCH as u64 {
            let roll = next() % 100;
            let key = region + 1 + (next() % 4096);
            cmds.push(if roll < 70 {
                Command::Insert(key, b * 1000 + i)
            } else if roll < 85 {
                // Re-insert a backbone key: a replace, no structural work.
                Command::Insert((next() % backbone_len) * stride, i)
            } else if roll < 93 {
                // Remove a key this region may or may not have gained.
                Command::Remove(region + 1 + (next() % 4096))
            } else {
                // Remove a key that was never inserted.
                Command::Remove(region + 4097 + (next() % 4096))
            });
        }
    }
    (backbone, cmds)
}

/// Applies one command the pre-batch way and folds the result into the
/// outcome shape, so sequential and batched runs compare exactly.
fn apply_one(
    f: &mut DenseFile<u64, u64>,
    cmd: &Command<u64, u64>,
) -> Result<CommandOutcome<u64>, DsfError> {
    Ok(match cmd {
        Command::Insert(k, v) => match f.insert(*k, *v) {
            Ok(None) => CommandOutcome::Inserted,
            Ok(Some(old)) => CommandOutcome::Replaced(old),
            Err(e) => return Err(e),
        },
        Command::Remove(k) => match f.remove(k) {
            Some(old) => CommandOutcome::Removed(old),
            None => CommandOutcome::NotFound,
        },
    })
}

/// Phase A: batched application must be observationally identical to
/// sequential application. Returns (commands, max per-command accesses,
/// batched wall ms, sequential wall ms). The wall times are best-of-N over
/// fresh files (the apply loops run in well under a millisecond, so a
/// single sample is mostly scheduler noise; the minimum is the standard
/// noise-robust estimator for a deterministic workload).
fn phase_state_equivalence(pages: u32, reps: usize) -> (usize, u64, f64, f64) {
    let (backbone, cmds) = command_stream(pages);

    let build = |pages: u32| {
        let mut f: DenseFile<u64, u64> = DenseFile::new(cfg(pages)).unwrap();
        f.bulk_load(backbone.iter().copied()).unwrap();
        f
    };

    let mut seq = build(pages);
    let mut seq_ms = f64::INFINITY;
    let mut seq_outcomes = Vec::new();
    for _ in 0..reps {
        seq = build(pages);
        let start = Instant::now();
        seq_outcomes = cmds
            .iter()
            .map(|c| apply_one(&mut seq, c).unwrap_or_else(CommandOutcome::Rejected))
            .collect();
        seq_ms = seq_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }

    let mut bat = build(pages);
    let mut bat_ms = f64::INFINITY;
    let mut bat_outcomes = Vec::new();
    for _ in 0..reps {
        bat = build(pages);
        let start = Instant::now();
        bat_outcomes = cmds
            .chunks(BATCH)
            .flat_map(|chunk| bat.apply_batch(chunk))
            .collect();
        bat_ms = bat_ms.min(start.elapsed().as_secs_f64() * 1e3);
    }

    assert_eq!(seq_outcomes, bat_outcomes, "per-command outcomes diverged");
    assert!(
        seq.iter().eq(bat.iter()),
        "record contents diverged between sequential and batched application"
    );
    assert_eq!(
        seq.slot_counts(),
        bat.slot_counts(),
        "physical slot layout diverged"
    );
    assert_eq!(
        seq.op_stats(),
        bat.op_stats(),
        "cost accounting diverged (batching must not change per-command work)"
    );
    seq.check_invariants().expect("sequential invariants");
    bat.check_invariants().expect("batched invariants");

    (cmds.len(), bat.op_stats().max_accesses, bat_ms, seq_ms)
}

/// Phase A': the flight recorder still attributes per-command costs
/// exactly when commands arrive through `apply_batch`, and every batched
/// command stays inside the live worst-case page bound.
fn phase_flight_attribution() {
    let mut f: DenseFile<u64, u64> = DenseFile::new(cfg(128)).unwrap();
    let capacity = f.capacity();
    let stride = u64::MAX / capacity;
    f.bulk_load((0..capacity / 2).map(|i| (i * stride, i)))
        .unwrap();

    let before = f.op_stats().clone();
    dsf_flight::enable();
    dsf_flight::clear();
    let mut applied = 0u64;
    for b in 0..4u64 {
        let batch: Vec<Command<u64, u64>> = (0..BATCH as u64)
            .map(|i| Command::Insert(b * stride * 7 + i * 31 + 1, i))
            .collect();
        for out in f.apply_batch(&batch) {
            assert!(out.is_effective(), "fresh-key insert must be effective");
            applied += 1;
        }
    }
    let rc = f.config();
    let budget = rc.flight_budget();
    let log = dsf_flight::snapshot_log(budget);
    dsf_flight::disable();

    let attr = log.replay();
    assert_eq!(attr.dropped, 0, "ring evicted events; segment must fit");
    assert_eq!(attr.command_count(), applied);
    assert!(
        attr.reconciles(),
        "flight frames must reconcile per command"
    );
    let delta = f.op_stats().total_accesses - before.total_accesses;
    assert_eq!(
        attr.total_accesses(),
        delta,
        "flight attribution must equal OpStats access accounting"
    );
    let audit = attr.audit();
    assert!(
        audit.ok(),
        "batched commands broke the live bound audit: {:?}",
        audit.violations
    );
    println!(
        "  flight: {} batched commands attributed, {} accesses reconciled, bound audit clean",
        applied, delta
    );
}

/// Captures the per-command page traces of the stream (shared by both
/// phase-B disciplines).
fn per_command_traces(pages: u32) -> Vec<Vec<AccessEvent>> {
    let (backbone, cmds) = command_stream(pages);
    let mut f: DenseFile<u64, u64> = DenseFile::new(cfg(pages)).unwrap();
    f.bulk_load(backbone.iter().copied()).unwrap();
    f.io_trace().set_enabled(true);
    let mut traces = Vec::with_capacity(cmds.len());
    for cmd in &cmds {
        let _ = apply_one(&mut f, cmd);
        traces.push(f.io_trace().take());
        f.io_trace().take_runs();
    }
    f.io_trace().set_enabled(false);
    traces
}

/// Phase B, discipline 1: the unbatched service loop — replay each
/// command's trace, then flush its dirty pages before acknowledging.
fn replay_per_command(traces: &[Vec<AccessEvent>], reps: usize) -> (u64, f64) {
    let mut calls = 0;
    let mut wall_ms = f64::INFINITY;
    for _ in 0..reps {
        let mut pool = BufferPool::new(MemBackend::new(64), POOL_CAPACITY);
        pool.set_coalescing(false);
        let start = Instant::now();
        for t in traces {
            pool.replay(t).unwrap();
            pool.flush_all().unwrap();
        }
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        calls = pool.into_backend_lossy().io_calls();
    }
    (calls, wall_ms)
}

/// Phase B, discipline 2: the batch pipeline — pin the batch's touched
/// page span up front (coalesced page-in, no mid-batch eviction), replay
/// the batch, unpin, flush once per batch.
fn replay_batched(traces: &[Vec<AccessEvent>], reps: usize) -> (u64, f64) {
    let mut calls = 0;
    let mut wall_ms = f64::INFINITY;
    // One page buffer for the whole run: the per-batch sort is on the
    // timed path, so reallocating it per batch would bill the allocator,
    // not the pipeline.
    let mut pages: Vec<u64> = Vec::new();
    for _ in 0..reps {
        let mut pool = BufferPool::new(MemBackend::new(64), POOL_CAPACITY);
        let start = Instant::now();
        for group in traces.chunks(BATCH) {
            // Pin the densest page window of the batch's trace (its
            // clustered key region); scattered outliers stay unpinned so
            // the remaining frames can absorb them.
            pages.clear();
            pages.extend(group.iter().flatten().map(|e| e.page));
            pages.sort_unstable();
            let window = (POOL_CAPACITY as u64) * 3 / 4;
            let mut best: Option<(usize, u64, u64)> = None; // (hits, lo, len)
            let mut j = 0;
            for i in 0..pages.len() {
                while pages[i] - pages[j] + 1 > window {
                    j += 1;
                }
                let cand = (i - j + 1, pages[j], pages[i] - pages[j] + 1);
                if best.is_none_or(|b| cand.0 > b.0) {
                    best = Some(cand);
                }
            }
            let pinned = best.filter(|&(_, lo, len)| pool.pin_run(lo, len).is_ok());
            for t in group {
                pool.replay(t).unwrap();
            }
            if let Some((_, lo, len)) = pinned {
                pool.unpin_run(lo, len);
            }
            pool.flush_all().unwrap();
        }
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        calls = pool.into_backend_lossy().io_calls();
    }
    (calls, wall_ms)
}

/// Phase C: fsyncs per command under `EveryCommand`, one-at-a-time vs
/// group commit. Returns (seq_fsyncs, batch_fsyncs, seq_ms, batch_ms).
fn phase_fsync(pages: u32) -> (u64, u64, f64, f64) {
    let (backbone, cmds) = command_stream(pages);
    let reg = dsf_telemetry::global();
    reg.enable();
    let fsyncs = reg.counter("dsf_wal_fsyncs_total", "WAL sync_data calls");

    let scratch = std::env::temp_dir().join(format!("dsf-batch-ingest-{}", std::process::id()));
    let mut result = (0u64, 0u64, 0f64, 0f64);
    for batched in [false, true] {
        let dir = scratch.join(if batched { "batched" } else { "seq" });
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(pages), SyncPolicy::Manual).unwrap();
        for (k, v) in &backbone {
            f.insert(*k, *v).unwrap();
        }
        f.checkpoint().unwrap();
        drop(f);
        let mut f: DurableFile<u64, u64> =
            DurableFile::open(&dir, SyncPolicy::EveryCommand).unwrap();

        let base = fsyncs.get();
        let start = Instant::now();
        if batched {
            for chunk in cmds.chunks(BATCH) {
                f.apply_batch(chunk).unwrap();
            }
        } else {
            for cmd in &cmds {
                match cmd {
                    Command::Insert(k, v) => {
                        f.insert(*k, *v).unwrap();
                    }
                    Command::Remove(k) => {
                        f.remove(k).unwrap();
                    }
                }
            }
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let count = fsyncs.get() - base;
        if batched {
            result.1 = count;
            result.3 = wall_ms;
        } else {
            result.0 = count;
            result.2 = wall_ms;
        }
    }
    reg.disable();
    std::fs::remove_dir_all(&scratch).ok();
    result
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let pages: u32 = if quick { 256 } else { 1024 };
    let reps: usize = if quick { 3 } else { 7 };

    println!("E15 — batched command pipeline (M={pages}, d=6, D=8, batch={BATCH})");

    let (commands, max_accesses, bat_core_ms, seq_core_ms) = phase_state_equivalence(pages, reps);
    let core_wall_ratio = seq_core_ms / bat_core_ms;
    println!(
        "  state: {commands} commands, batched ≡ sequential (records, layout, OpStats); \
         worst command {max_accesses} accesses; core {seq_core_ms:.2} ms → {bat_core_ms:.2} ms"
    );
    phase_flight_attribution();

    let traces = per_command_traces(pages);
    let (seq_io, seq_pool_ms) = replay_per_command(&traces, reps);
    let (bat_io, bat_pool_ms) = replay_batched(&traces, reps);
    let io_ratio = seq_io as f64 / bat_io as f64;
    let pool_wall_ratio = seq_pool_ms / bat_pool_ms;
    println!(
        "  pool:  {seq_io} syscalls flush-per-command vs {bat_io} pinned+flush-per-batch \
         ({io_ratio:.1}× fewer), {seq_pool_ms:.2} ms → {bat_pool_ms:.2} ms"
    );

    let (seq_fsync, bat_fsync, seq_wal_ms, bat_wal_ms) = phase_fsync(pages);
    let fsync_ratio = seq_fsync as f64 / bat_fsync as f64;
    let wal_wall_ratio = seq_wal_ms / bat_wal_ms;
    println!(
        "  wal:   {seq_fsync} fsyncs one-at-a-time vs {bat_fsync} group commit \
         ({fsync_ratio:.1}× fewer), {seq_wal_ms:.0} ms → {bat_wal_ms:.0} ms"
    );

    assert!(
        io_ratio >= 1.5,
        "expected ≥1.5× fewer pool syscalls, got {io_ratio:.2}×"
    );
    assert!(
        fsync_ratio >= 3.0,
        "expected ≥3× fewer fsyncs, got {fsync_ratio:.2}×"
    );
    // Batching must not cost wall time either: the pool replay has to be
    // outright faster than flush-per-command, and the core apply loop may
    // pay at most 10% for its hint bookkeeping. (Full size only — the
    // quick variant's loops are too short to bound tightly.)
    if !quick {
        assert!(
            bat_pool_ms <= seq_pool_ms,
            "batched pool replay slower than per-command: {bat_pool_ms:.2} ms vs {seq_pool_ms:.2} ms"
        );
        assert!(
            bat_core_ms <= 1.1 * seq_core_ms,
            "batched core apply regressed: {bat_core_ms:.2} ms vs {seq_core_ms:.2} ms sequential"
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"batch_ingest\",\n  \"quick\": {quick},\n  \"m_pages\": {pages},\n  \"batch_size\": {BATCH},\n  \"commands\": {commands},\n  \"max_accesses\": {max_accesses},\n  \"seq_core_wall_ms\": {seq_core_ms:.2},\n  \"batch_core_wall_ms\": {bat_core_ms:.2},\n  \"core_wall_ratio\": {core_wall_ratio:.2},\n  \"seq_io_calls\": {seq_io},\n  \"batch_io_calls\": {bat_io},\n  \"seq_pool_wall_ms\": {seq_pool_ms:.2},\n  \"batch_pool_wall_ms\": {bat_pool_ms:.2},\n  \"pool_wall_ratio\": {pool_wall_ratio:.2},\n  \"io_call_ratio\": {io_ratio:.2},\n  \"seq_fsyncs\": {seq_fsync},\n  \"batch_fsyncs\": {bat_fsync},\n  \"seq_wal_wall_ms\": {seq_wal_ms:.2},\n  \"batch_wal_wall_ms\": {bat_wal_ms:.2},\n  \"wal_wall_ratio\": {wal_wall_ratio:.2},\n  \"fsync_ratio\": {fsync_ratio:.2},\n  \"batched_state_equals_sequential\": true,\n  \"flight_attribution_reconciles\": true\n}}\n",
    );
    std::fs::write("BENCH_batch.json", json).unwrap();
    println!("wrote BENCH_batch.json");
}
