//! The benchmark's own checks: exact counts repeat for a seed, every
//! reply of a short run is right, and the layer ladder reconciles with
//! the served checkpoint.

use dsfbench::inproc::{self, Adversary};
use dsfbench::ladder;
use dsfbench::served::{self, Phases, Plan, ServedKind, Shape};
use dsfbench::util::SplitMix;
use std::path::PathBuf;
use std::time::Duration;

fn test_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("dsfbench-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const PHASES: Phases = Phases {
    warmup: Duration::ZERO,
    writes: Duration::from_millis(1500),
    reads: Duration::from_millis(500),
};

fn round(kind: ServedKind, shape: Shape, seed: u64, dir: &std::path::Path) -> served::Round {
    let plan = Plan::new(kind, shape, seed);
    served::run_round(&plan, dir, &[PHASES, PHASES], false)
}

#[test]
fn served_counts_repeat_and_every_reply_checks_out() {
    let ingest = Shape::tiny(ServedKind::Ingest);
    for (kind, shape) in [
        (ServedKind::Ingest, ingest),
        (ServedKind::Ingest, ingest.relaxed()),
        (ServedKind::ReadMostly, Shape::tiny(ServedKind::ReadMostly)),
    ] {
        let dir = test_dir(&format!("{kind:?}-{:?}", shape.ack));
        let a = round(kind, shape, 7, &dir);
        let b = round(kind, shape, 7, &dir);
        for r in [&a, &b] {
            assert!(r.tally.correct(), "{kind:?}: {:?}", r.tally.reasons);
            assert!(r.tally.attempted > 0);
            assert_eq!(r.windows.len(), 2);
            for m in &r.windows {
                assert!(!m.samples.writes.is_empty() && !m.samples.gets.is_empty());
            }
        }
        let cmds = shape.checkpoint_cmds * u64::from(shape.shards);
        assert_eq!(a.pages.0, cmds, "{kind:?}: checkpoint command count");
        assert_eq!(
            a.pages, b.pages,
            "{kind:?}: exact counts differ for one seed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recorded_streams_are_pure_in_the_seed() {
    let kind = ServedKind::Ingest;
    let rec = |seed| Plan::new(kind, Shape::tiny(kind), seed).recorded(300, 200);
    let (a, b, c) = (rec(3), rec(3), rec(4));
    assert_eq!(a.writes, b.writes);
    assert_eq!((&a.gets, &a.scans), (&b.gets, &b.scans));
    assert_ne!(a.writes, c.writes, "the seed drives the requests");
    assert!(a.writes.iter().all(|w| w.len() == 300));
}

#[test]
fn ladder_core_counts_repeat_and_match_the_served_checkpoint() {
    let kind = ServedKind::Ingest;
    let shape = Shape::tiny(kind);
    let plan = Plan::new(kind, shape, 11);
    let dir = test_dir("ladder");
    let served = served::run_round(&plan, &dir, &[PHASES], false);
    assert!(served.tally.correct(), "{:?}", served.tally.reasons);
    let rec = plan.recorded(shape.checkpoint_cmds as usize, 100);
    let build = |view: bool| plan.dense_files(view);
    let route = |k: u64| shape.shard_of(k);
    let a = ladder::core_and_view(&build, &route, &rec.writes, 3, &rec.gets, &rec.scans);
    let b = ladder::core_and_view(&build, &route, &rec.writes, 7, &rec.gets, &rec.scans);
    assert_eq!(a.pages, served.pages, "ladder replay vs served checkpoint");
    assert_eq!(a.pages, b.pages, "batch size changed exact counts");
    let (cmds, acc, worst) = ladder::stream_pages(&mut plan.dense_files(false), &rec.writes);
    assert_eq!((cmds, acc), a.pages, "one command at a time vs batched");
    assert!(worst > 0 && worst * cmds >= acc, "worst below the mean");
    assert_eq!(
        (
            a.shifts_per_cmd,
            a.page_reads_per_cmd,
            a.page_writes_per_cmd
        ),
        (
            b.shifts_per_cmd,
            b.page_reads_per_cmd,
            b.page_writes_per_cmd
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adversary_counts_repeat_and_stay_within_the_bound() {
    let adv = Adversary::new(1 << 14, 20_000, 5);
    let a = inproc::run_round(&adv, &mut SplitMix::new(5, 1), true);
    let b = inproc::run_round(&adv, &mut SplitMix::new(6, 1), false);
    assert!(a.tally.correct(), "{:?}", a.tally.reasons);
    assert!(b.tally.correct(), "{:?}", b.tally.reasons);
    assert_eq!(a.pages, b.pages, "reads changed the structural counts");
    assert!(a.pages.2 <= adv.page_limit);
    assert_eq!(a.pages.0, adv.commands() as u64);
}
