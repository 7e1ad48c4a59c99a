//! E14 — telemetry overhead and reconciliation.
//!
//! The observability spine (`dsf-telemetry`) promises two things: when
//! disabled its hot-path cost is a single relaxed-load branch per
//! instrumentation site, and when enabled its `dsf_command_page_accesses`
//! histogram is *exactly* the per-command access histogram `OpStats`
//! already keeps — same count, same max, same 33 power-of-two buckets.
//!
//! This experiment measures the first claim and proves the second. It runs
//! one deterministic insert/delete workload twice over fresh files —
//! spine disabled, then spine enabled — takes the best-of-R wall time for
//! each, and then reconciles the enabled run's global histogram against
//! the file's own `OpStats` bucket for bucket. The reconciliation is a
//! hard assertion (it is the ISSUE's acceptance criterion); the overhead
//! ratio is reported, not asserted, because wall-clock noise on shared CI
//! machines dwarfs a branch.
//!
//! Run: `cargo run --release -p dsf-bench --bin exp_telemetry`
//! (pass `--quick` for the CI-sized variant). Writes
//! `BENCH_telemetry.json` into the current directory.

use std::time::Instant;

use dsf_core::{DenseFile, DenseFileConfig, OpStats};

/// One full workload pass over a fresh file: bulk-load a backbone, insert
/// a deterministic uniform key stream, then delete every other inserted
/// key. Returns the wall seconds and the file's own command statistics.
fn run_workload(pages: u32) -> (f64, OpStats) {
    let start = Instant::now();
    let mut f: DenseFile<u64, u64> =
        DenseFile::new(DenseFileConfig::control2(pages, 6, 8)).unwrap();
    let capacity = f.capacity();
    let backbone = capacity * 3 / 5;
    let stride = u64::MAX / (backbone + 1);
    f.bulk_load((0..backbone).map(|i| (i * stride, i))).unwrap();

    let budget = (capacity - backbone).saturating_sub(8) as usize;
    let keys = dsf_workloads::uniform_unique(0xD5F7E1, budget, 1, u64::MAX - 1);
    let mut inserted = Vec::with_capacity(keys.len());
    for (i, &k) in keys.iter().enumerate() {
        if f.insert(k, i as u64).is_ok() {
            inserted.push(k);
        }
    }
    for &k in inserted.iter().step_by(2) {
        f.remove(&k).unwrap();
    }
    (start.elapsed().as_secs_f64(), f.op_stats().clone())
}

fn best_of(reps: usize, pages: u32, before_each: impl Fn()) -> (f64, OpStats) {
    let mut best = f64::INFINITY;
    let mut last_stats = None;
    for _ in 0..reps {
        before_each();
        let (secs, stats) = run_workload(pages);
        best = best.min(secs);
        last_stats = Some(stats);
    }
    (best, last_stats.expect("reps >= 1"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let pages: u32 = if quick { 256 } else { 1024 };
    let reps: usize = if quick { 3 } else { 5 };

    println!("E14 — telemetry overhead & reconciliation (M={pages}, d=6, D=8, best of {reps})");

    let reg = dsf_telemetry::global();

    // Path 1: spine disabled (the default) — every instrumentation site
    // must reduce to one relaxed load and a not-taken branch.
    reg.disable();
    let (off_secs, off_stats) = best_of(reps, pages, || {});

    // Path 2: spine enabled, registry wiped before each rep so the last
    // rep's global counters describe exactly one workload pass.
    let (on_secs, on_stats) = best_of(reps, pages, || {
        reg.reset();
        reg.enable();
    });
    reg.disable();

    // Identical logical work on both paths.
    assert_eq!(off_stats.commands, on_stats.commands, "paths diverged");
    assert_eq!(off_stats.total_accesses, on_stats.total_accesses);

    // Reconciliation (the acceptance criterion): the global histogram is
    // OpStats' histogram, sample for sample.
    let hist = reg.histogram(
        "dsf_command_page_accesses",
        "page accesses per insert/delete command",
    );
    assert_eq!(hist.count(), on_stats.commands, "histogram count");
    assert_eq!(hist.sum(), on_stats.total_accesses, "histogram sum");
    assert_eq!(hist.max(), on_stats.max_accesses, "histogram max");
    assert_eq!(
        hist.bucket_counts(),
        on_stats.histogram.bucket_counts(),
        "per-bucket counts"
    );
    println!(
        "reconciled: {} commands, {} total accesses, worst {} — global histogram == OpStats",
        on_stats.commands, on_stats.total_accesses, on_stats.max_accesses
    );

    let ratio = on_secs / off_secs;
    println!(
        "  disabled  {:>8.1} ms  (spine off: one branch per site)",
        off_secs * 1e3
    );
    println!(
        "  enabled   {:>8.1} ms  (counters + histograms)",
        on_secs * 1e3
    );
    println!("  overhead  {ratio:>8.3}×");

    let json = format!(
        "{{\n  \"experiment\": \"telemetry\",\n  \"quick\": {quick},\n  \"m_pages\": {pages},\n  \"reps\": {reps},\n  \"commands\": {},\n  \"total_accesses\": {},\n  \"max_accesses\": {},\n  \"disabled_ms\": {:.3},\n  \"enabled_ms\": {:.3},\n  \"overhead_ratio\": {:.4},\n  \"histogram_reconciles_with_op_stats\": true\n}}\n",
        on_stats.commands,
        on_stats.total_accesses,
        on_stats.max_accesses,
        off_secs * 1e3,
        on_secs * 1e3,
        ratio,
    );
    std::fs::write("BENCH_telemetry.json", json).unwrap();
    println!("wrote BENCH_telemetry.json");
}
