//! # E17 — scenario matrix at scale
//!
//! Two claims, one binary:
//!
//! * **The worst-case bound survives production scale and an adversary.**
//!   Every scenario of the matrix (adversarial, zipfian, time-series,
//!   delete-churn, scan-while-write) replays against a CONTROL 2 dense
//!   file at up to millions of pages with the flight recorder capturing
//!   every page charge. The run audits itself in chunks small enough that
//!   the ring never evicts a frame: after every chunk the captured log is
//!   replayed and each command is checked against the `J`-SHIFT budget
//!   and the `K·(3J+2)+2` page bound — so *every single command* of the
//!   run is individually certified, not just the max. The adversarial
//!   stream (see `dsf_workloads::scenario` for the density argument) is
//!   built to pin a subtree inside the calibrator's warning band and
//!   collect the full `J`-step budget on every command; its delete-side
//!   twin aims the same pressure at CONTROL 2's lower thresholds. A
//!   second pass replays every scenario through [`ShardedFile`] — all
//!   stripes streaming at once, batches applied in parallel — proving the
//!   shard layer preserves the per-command audit.
//!
//! * **The update-cost vs stream-retrieval trade-off, head-to-head.** The
//!   same op streams replay through the B+-tree, amortized PMA, naive
//!   file, and overflow-chaining baselines at a moderate geometry, then
//!   each structure serves a fixed stream-retrieval pass — the paper's
//!   central trade-off measured per scenario.
//!
//! Writes `BENCH_scenarios.json` (flat, `dsf bench-gate`-compatible) into
//! the current directory; per-scenario `max_accesses_<name>` keys and the
//! head-to-head `hh_<scenario>_<structure>_{update,retrieval}_mean` page
//! means are gated by `bench-gate` at **0% slack** since the streams and
//! structures are fully deterministic.
//!
//! Run: `cargo run --release -p dsf-bench --bin exp_scenario_matrix`
//! (add `--quick` for the CI profile).

use dsf_bench::{f, replay_ops, scenario_geometry, Driver, Table};
use dsf_bench::{BTreeDriver, DenseDriver, NaiveDriver, OverflowDriver, PmaDriver};
use dsf_concurrent::ShardedFile;
use dsf_core::{Command, CommandOutcome, DenseFile, DenseFileConfig};
use dsf_flight::BoundBudget;
use dsf_workloads::{scenario_plan, Op, Scenario, SCENARIO_STRIDE};
use std::time::Instant;

const SEED: u64 = 0xE17;
/// Commands per audit chunk — sized so even all-worst-case commands
/// (~2 KB of frames each) stay far under the 1 MB flight ring.
const AUDIT_CHUNK: u64 = 128;

struct ScaleRow {
    name: &'static str,
    pages: u32,
    commands: u64,
    worst: u64,
    limit: u64,
    mean: f64,
    wall_ms: f64,
}

/// Snapshot-audit-clear one chunk of the flight ring: every completed
/// command must reconcile and pass both bound checks, and nothing may
/// have been evicted or left open (that would mean unaudited commands).
fn audit_chunk(budget: BoundBudget, audited: &mut u64, total: &mut u64, worst: &mut u64) {
    let log = dsf_flight::snapshot_log(budget);
    let att = log.replay();
    assert_eq!(att.dropped, 0, "flight ring evicted frames mid-chunk");
    assert_eq!(att.incomplete, 0, "command left open at audit point");
    assert_eq!(att.cancelled, 0, "scenario streams never replace/refuse");
    let report = att.audit();
    assert!(
        report.ok(),
        "live bound audit failed: {:?}",
        report.violations
    );
    *audited += att.command_count();
    *total += att.total_accesses();
    *worst = (*worst).max(att.max_accesses());
    dsf_flight::clear();
}

/// Replays one scenario against a CONTROL 2 dense file of `pages` pages
/// with the live flight audit enabled throughout.
fn run_at_scale(s: Scenario, pages: u32, ops_len: usize) -> ScaleRow {
    let cfg = DenseFileConfig::control2(pages, 8, 80);
    let rc = cfg.resolve().expect("valid scale config");
    let geom = scenario_geometry(&rc);
    let plan = scenario_plan(s, &geom, SEED, ops_len);

    let mut file: DenseFile<u64, u64> = DenseFile::new(cfg).expect("valid scale config");
    file.bulk_load(plan.backbone.iter().map(|&k| (k, k)))
        .expect("backbone fits");

    let budget = rc.flight_budget();
    dsf_flight::clear();
    dsf_flight::enable();

    let started = Instant::now();
    let (mut audited, mut total, mut worst) = (0u64, 0u64, 0u64);
    let mut in_chunk = 0u64;
    for op in &plan.ops {
        match *op {
            Op::Insert(k) => {
                file.insert(k, k).expect("in-plan insert fits");
                in_chunk += 1;
            }
            Op::Remove(k) => {
                assert!(file.remove(&k).is_some(), "in-plan remove present");
                in_chunk += 1;
            }
            Op::Get(k) => {
                file.get(&k);
            }
            Op::Scan { start, limit } => {
                file.range(start..).take(limit).count();
            }
        }
        if in_chunk >= AUDIT_CHUNK {
            audit_chunk(budget, &mut audited, &mut total, &mut worst);
            in_chunk = 0;
        }
    }
    audit_chunk(budget, &mut audited, &mut total, &mut worst);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    dsf_flight::disable();
    dsf_flight::clear();

    // Completeness: the chunked audit saw every structural command, and
    // the recorder's view agrees exactly with the file's own accounting.
    let stats = file.op_stats();
    let structural = plan
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Insert(_) | Op::Remove(_)))
        .count() as u64;
    assert_eq!(audited, structural, "audit missed commands");
    assert_eq!(worst, stats.max_accesses, "flight vs OpStats disagree");
    assert!(
        worst <= budget.page_limit(),
        "worst command {worst} exceeds K(3J+2)+2 = {}",
        budget.page_limit()
    );
    file.check_invariants().expect("invariants after scenario");

    ScaleRow {
        name: s.name(),
        pages,
        commands: audited,
        worst,
        limit: budget.page_limit(),
        mean: total as f64 / audited.max(1) as f64,
        wall_ms,
    }
}

struct ShardRow {
    name: &'static str,
    commands: u64,
    worst: u64,
    limit: u64,
    mean: f64,
    wall_ms: f64,
}

/// Replays one scenario through [`ShardedFile`]: every stripe streams the
/// same plan, keys offset into its own key range, with commands from all
/// stripes interleaved into `apply_batch` groups that the shard layer
/// partitions and applies **in parallel** — and the live flight audit on
/// throughout. This is the audit claim one layer up: concurrent shard
/// threads record page charges into the one flight ring, and every
/// command of every stripe must still reconcile individually against the
/// per-shard `J` budget and `K·(3J+2)+2`.
fn run_sharded(s: Scenario, shards: u32, pages: u32, ops_len: usize) -> ShardRow {
    let cfg = DenseFileConfig::control2(pages, 8, 80);
    let rc = cfg.resolve().expect("valid shard config");
    let geom = scenario_geometry(&rc);
    let plan = scenario_plan(s, &geom, SEED, ops_len);
    // Mirrors the router's stripe math: stripe `sh` owns keys starting at
    // `sh · ceil(2^64 / shards)`, and scenario keys are far smaller than
    // one stripe's width — so `offset(sh, k)` lands exactly on shard `sh`.
    let stripe = (u64::MAX / u64::from(shards)).saturating_add(1);
    let offset = |sh: u64, k: u64| sh * stripe + k;

    let file: ShardedFile<u64> = ShardedFile::new(shards, cfg).expect("valid shard config");
    for sh in 0..u64::from(shards) {
        file.bulk_load(plan.backbone.iter().map(|&k| (offset(sh, k), k)))
            .expect("backbone fits per stripe");
        assert_eq!(file.shard_of(offset(sh, plan.backbone[0])), sh as usize);
    }

    let budget = rc.flight_budget();
    dsf_flight::clear();
    dsf_flight::enable();

    let started = Instant::now();
    let (mut audited, mut total, mut worst) = (0u64, 0u64, 0u64);
    let mut batch: Vec<Command<u64, u64>> = Vec::with_capacity(AUDIT_CHUNK as usize);
    let flush = |batch: &mut Vec<Command<u64, u64>>,
                 audited: &mut u64,
                 total: &mut u64,
                 worst: &mut u64| {
        if batch.is_empty() {
            return;
        }
        for (i, outcome) in file.apply_batch(batch).into_iter().enumerate() {
            assert!(
                matches!(
                    outcome,
                    CommandOutcome::Inserted | CommandOutcome::Removed(_)
                ),
                "sharded replay: command {i} did not apply structurally: {outcome:?}"
            );
        }
        audit_chunk(budget, audited, total, worst);
        batch.clear();
    };
    for op in &plan.ops {
        match *op {
            Op::Insert(k) => {
                for sh in 0..u64::from(shards) {
                    batch.push(Command::Insert(offset(sh, k), k));
                }
            }
            Op::Remove(k) => {
                for sh in 0..u64::from(shards) {
                    batch.push(Command::Remove(offset(sh, k)));
                }
            }
            Op::Get(k) => {
                for sh in 0..u64::from(shards) {
                    file.get(offset(sh, k));
                }
            }
            Op::Scan { start, limit } => {
                // Stays inside stripe 0: `stripe - 1` is its last key.
                file.collect_range(start, stripe - 1, limit);
            }
        }
        if batch.len() as u64 >= AUDIT_CHUNK {
            flush(&mut batch, &mut audited, &mut total, &mut worst);
        }
    }
    flush(&mut batch, &mut audited, &mut total, &mut worst);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    dsf_flight::disable();
    dsf_flight::clear();

    // Completeness: the chunked audit saw every stripe's copy of every
    // structural command, and the flight recorder's worst agrees with the
    // shards' own merged accounting.
    let stats = file.merged_op_stats();
    let structural = plan
        .ops
        .iter()
        .filter(|op| matches!(op, Op::Insert(_) | Op::Remove(_)))
        .count() as u64
        * u64::from(shards);
    assert_eq!(audited, structural, "sharded audit missed commands");
    assert_eq!(
        worst, stats.max_accesses,
        "flight vs merged OpStats disagree"
    );
    assert!(
        worst <= budget.page_limit(),
        "worst sharded command {worst} exceeds K(3J+2)+2 = {}",
        budget.page_limit()
    );
    assert!(
        file.check_invariants().is_ok(),
        "shard invariants after scenario"
    );

    ShardRow {
        name: s.name(),
        commands: audited,
        worst,
        limit: budget.page_limit(),
        mean: total as f64 / audited.max(1) as f64,
        wall_ms,
    }
}

struct HeadToHead {
    structure: &'static str,
    update_mean: f64,
    update_p99: u64,
    update_worst: u64,
    retrieval_mean: f64,
    final_len: u64,
}

/// Replays one scenario stream through a structure, then serves a fixed
/// stream-retrieval pass (100 scans of 256 records) against the result.
fn run_head_to_head<D: Driver + ?Sized>(d: &mut D, backbone: &[u64], ops: &[Op]) -> HeadToHead {
    d.bulk_backbone(backbone);
    let profile = replay_ops(d, ops);
    assert_eq!(profile.refused, 0, "{}: in-plan insert refused", d.name());
    let universe = backbone.len() as u64 * SCENARIO_STRIDE;
    let retrieval = replay_ops(
        d,
        &dsf_workloads::scan_points(SEED ^ 0x5ca, 100, universe, 256),
    );
    HeadToHead {
        structure: d.name(),
        update_mean: profile.updates.mean,
        update_p99: profile.updates.p99,
        update_worst: profile.updates.max,
        retrieval_mean: retrieval.scans.mean,
        final_len: d.len(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("=== E17: scenario matrix at scale ===");
    println!("profile: {}", if quick { "quick (CI)" } else { "full" });

    // ---- Phase 1: dense file at scale, live-audited. ------------------
    // The adversarial scenario always runs at M ≥ 2^20 pages (the
    // headline claim); friendlier scenarios use a lighter quick geometry.
    let ops_scale = if quick { 40_000 } else { 120_000 };
    let other_pages: u32 = if quick { 1 << 18 } else { 1 << 20 };
    println!("\n-- worst-case bound at scale (CONTROL 2, d=8, D=80) --");
    println!("every command audited live against the J budget and K(3J+2)+2;");
    println!("chunked snapshots keep the flight ring from ever evicting.\n");

    let mut rows = Vec::new();
    for s in Scenario::ALL {
        let pages = if matches!(s, Scenario::Adversarial | Scenario::AdversarialDelete) {
            if quick {
                1 << 20
            } else {
                1 << 21
            }
        } else {
            other_pages
        };
        let row = run_at_scale(s, pages, ops_scale);
        println!(
            "  {:<16} M={:>8}  worst {:>4} / limit {:<4}  ok",
            row.name, row.pages, row.worst, row.limit
        );
        rows.push(row);
    }

    let mut t = Table::new([
        "scenario", "pages", "commands", "worst", "limit", "mean", "wall ms",
    ]);
    for r in &rows {
        t.row([
            r.name.to_string(),
            r.pages.to_string(),
            r.commands.to_string(),
            r.worst.to_string(),
            r.limit.to_string(),
            f(r.mean),
            f(r.wall_ms),
        ]);
    }
    println!();
    t.print("scenario matrix — worst-case audit at scale");

    // ---- Phase 1b: the same audit through the shard layer. ------------
    let shards: u32 = 4;
    let shard_pages: u32 = if quick { 1 << 12 } else { 1 << 14 };
    let ops_shard = if quick { 4_000 } else { 12_000 };
    println!(
        "-- per-command audit through ShardedFile ({shards} stripes, M={shard_pages} each) --"
    );
    println!("every stripe streams the scenario; batches apply in parallel;");
    println!("the one flight ring still certifies every command individually.\n");

    let mut shard_rows = Vec::new();
    for s in Scenario::ALL {
        let row = run_sharded(s, shards, shard_pages, ops_shard);
        println!(
            "  {:<18} worst {:>3} / limit {:<3}  {:>6} commands  ok",
            row.name, row.worst, row.limit, row.commands
        );
        shard_rows.push(row);
    }
    let mut t = Table::new(["scenario", "commands", "worst", "limit", "mean", "wall ms"]);
    for r in &shard_rows {
        t.row([
            r.name.to_string(),
            r.commands.to_string(),
            r.worst.to_string(),
            r.limit.to_string(),
            f(r.mean),
            f(r.wall_ms),
        ]);
    }
    println!();
    t.print("scenario matrix — audited through the shard layer");
    println!();

    // ---- Phase 2: head-to-head baselines. -----------------------------
    let hh_pages: u32 = 1 << 10;
    let hh_cfg = DenseFileConfig::control2(hh_pages, 8, 40);
    let hh_rc = hh_cfg.resolve().expect("valid head-to-head config");
    let hh_geom = scenario_geometry(&hh_rc);
    let headroom = (hh_geom.capacity() / 2) as usize;
    let ops_hh = if quick { 2_000 } else { 5_000 }.min(headroom);
    println!("-- head-to-head: update cost vs stream retrieval (M={hh_pages}, d=8, D=40) --");
    println!("same stream through every structure, then 100 scans x 256 records.\n");

    let mut hh_json = String::new();
    for s in Scenario::ALL {
        let plan = scenario_plan(s, &hh_geom, SEED, ops_hh);
        let mut drivers: Vec<Box<dyn Driver>> = vec![
            Box::new(DenseDriver::new("dense-c2", hh_cfg)),
            Box::new(BTreeDriver::new(40)),
            Box::new(PmaDriver::new(hh_pages, 40, 8)),
            Box::new(NaiveDriver::new(40)),
            Box::new(OverflowDriver::new(hh_pages, 40)),
        ];
        let mut t = Table::new([
            "structure",
            "upd mean",
            "upd p99",
            "upd worst",
            "retrieval mean",
            "records",
        ]);
        for d in &mut drivers {
            let h = run_head_to_head(d.as_mut(), &plan.backbone, &plan.ops);
            hh_json.push_str(&format!(
                "  \"hh_{}_{}_update_mean\": {:.3},\n  \"hh_{}_{}_retrieval_mean\": {:.3},\n",
                s.name(),
                h.structure,
                h.update_mean,
                s.name(),
                h.structure,
                h.retrieval_mean,
            ));
            t.row([
                h.structure.to_string(),
                f(h.update_mean),
                h.update_p99.to_string(),
                h.update_worst.to_string(),
                f(h.retrieval_mean),
                h.final_len.to_string(),
            ]);
        }
        t.print(&format!("head-to-head — {}", s.name()));
        println!();
    }

    // ---- JSON for bench-gate. -----------------------------------------
    let mut json = String::from("{\n  \"experiment\": \"scenario_matrix\",\n");
    json.push_str(&format!("  \"quick\": {},\n", u8::from(quick)));
    for r in &rows {
        json.push_str(&format!(
            "  \"max_accesses_{}\": {},\n  \"mean_accesses_{}\": {:.3},\n  \"commands_{}\": {},\n  \"page_limit_{}\": {},\n  \"wall_ms_{}\": {:.1},\n",
            r.name, r.worst, r.name, r.mean, r.name, r.commands, r.name, r.limit, r.name, r.wall_ms,
        ));
    }
    for r in &shard_rows {
        json.push_str(&format!(
            "  \"max_accesses_shard_{}\": {},\n  \"mean_accesses_shard_{}\": {:.3},\n  \"commands_shard_{}\": {},\n",
            r.name, r.worst, r.name, r.mean, r.name, r.commands,
        ));
    }
    json.push_str(&hh_json);
    json.push_str("  \"audit_ok\": 1\n}\n");
    std::fs::write("BENCH_scenarios.json", &json).expect("write BENCH_scenarios.json");
    println!("wrote BENCH_scenarios.json");
}
