//! The optimistic read view's publication contract, end to end through
//! the facade.
//!
//! A [`ReadView`] generation is always the state at a batch boundary: a
//! [`DenseFile::apply_batch`] publishes once at its end, a single command
//! publishes at once, and [`DenseFile::hold_publication`] defers
//! publication (nesting) until the outermost release. On a
//! [`DurableFile`] a call becomes visible when its outcome is known — a
//! call answered `Err` never does. Published images are recycled between
//! generations, so the checks here also pin that recycling never leaks a
//! stale or half-copied record into the view.
//!
//! Every file here is small (at most 64 slots), far narrower than a
//! collection the view declines as too wide, and routing never declines:
//! any `Err(ReadConflict)` outside the concurrent tests is a failure.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use willard_dsf::durable::{FaultFs, FaultPlan, SyscallKind};
use willard_dsf::server::{DurableKv, KvService};
use willard_dsf::{
    Command, CommandOutcome, DenseFile, DenseFileConfig, Durability, DurableFile, ReadView, Record,
    ShardedFile, SyncPolicy,
};

/// Records `0, 10, 20, …` spread evenly over a 64-page CONTROL 2 file,
/// with the view enabled.
fn spread_file(n: u64) -> (DenseFile<u64, u64>, ReadView<u64, u64>) {
    spread_file_with(DenseFileConfig::control2(64, 8, 40), n)
}

fn spread_file_with(cfg: DenseFileConfig, n: u64) -> (DenseFile<u64, u64>, ReadView<u64, u64>) {
    let mut f: DenseFile<u64, u64> = DenseFile::new(cfg).unwrap();
    f.bulk_load((0..n).map(|i| (i * 10, i))).unwrap();
    let view = f.enable_optimistic_reads();
    (f, view)
}

/// Everything the view holds, in key order.
fn published<K: Ord + Copy + std::fmt::Debug + Into<u64>, V: Clone>(
    view: &ReadView<K, V>,
) -> Vec<(K, V)> {
    view.try_collect_range(Bound::Unbounded, Bound::Unbounded)
        .expect("no writer is running")
}

fn locked<V: Clone>(f: &DenseFile<u64, V>) -> Vec<(u64, V)> {
    f.iter().map(|(k, v)| (*k, v.clone())).collect()
}

/// A batch mixing fresh inserts, replaces and removes of existing keys.
fn mixed_batch(round: u64) -> Vec<Command<u64, u64>> {
    (0..48u64)
        .map(|i| match (i + round) % 3 {
            0 => Command::Insert(i * 40 + 3 + round, i),
            1 => Command::Insert(i * 40, 1_000 + round),
            _ => Command::Remove(i * 40 + 20),
        })
        .collect()
}

fn view_matches_locked_state_after_batches(cfg: DenseFileConfig) {
    let (mut f, view) = spread_file_with(cfg, 200);
    for round in 0..6 {
        f.apply_batch(&mixed_batch(round));
        assert_eq!(published(&view), locked(&f), "round {round}");
        assert_eq!(view.records(), f.len(), "round {round}");
    }
    f.check_invariants().unwrap();
}

// ----------------------------------------------------------------------
// DenseFile: once per batch, holds, offline passes.
// ----------------------------------------------------------------------

#[test]
fn batch_inserts_are_invisible_until_the_batch_returns() {
    let (mut f, view) = spread_file(200);
    let cmds: Vec<Command<u64, u64>> = (0..32u64).map(|i| Command::Insert(i * 50 + 5, i)).collect();
    let inside = view.clone();
    f.apply_batch_with(&cmds, |i, outcome| {
        assert_eq!(*outcome, CommandOutcome::Inserted);
        for done in &cmds[..=i] {
            assert_eq!(
                inside.try_get(done.key()).unwrap(),
                None,
                "command {i}: key {} published mid-batch",
                done.key()
            );
        }
    });
    for (i, cmd) in cmds.iter().enumerate() {
        assert_eq!(view.try_get(cmd.key()).unwrap(), Some(i as u64));
    }
}

#[test]
fn batch_removes_stay_visible_until_the_batch_returns() {
    let (mut f, view) = spread_file(200);
    let cmds: Vec<Command<u64, u64>> = (0..32u64).map(|i| Command::Remove(i * 60)).collect();
    let inside = view.clone();
    f.apply_batch_with(&cmds, |i, outcome| {
        assert!(matches!(outcome, CommandOutcome::Removed(_)));
        let k = *cmds[i].key();
        assert_eq!(inside.try_get(&k).unwrap(), Some(k / 10), "key {k}");
    });
    for cmd in &cmds {
        assert_eq!(view.try_get(cmd.key()).unwrap(), None);
    }
    assert_eq!(view.records(), 200 - 32);
}

#[test]
fn view_matches_locked_state_after_control1_batches() {
    view_matches_locked_state_after_batches(DenseFileConfig::control1(64, 8, 40));
}

#[test]
fn view_matches_locked_state_after_control2_batches() {
    view_matches_locked_state_after_batches(DenseFileConfig::control2(64, 8, 40));
}

#[test]
fn view_matches_locked_state_after_macro_blocked_batches() {
    // A tiny gap D − d puts the file in the macro-block regime (K > 1).
    let cfg = DenseFileConfig::control2(64, 6, 8);
    assert!(DenseFile::<u64, u64>::new(cfg).unwrap().config().k > 1);
    view_matches_locked_state_after_batches(cfg);
}

#[test]
fn single_commands_publish_at_once() {
    let (mut f, view) = spread_file(100);
    f.insert(55, 1).unwrap();
    assert_eq!(view.try_get(&55).unwrap(), Some(1));
    f.insert(55, 2).unwrap();
    assert_eq!(view.try_get(&55).unwrap(), Some(2));
    f.remove(&55).unwrap();
    assert_eq!(view.try_get(&55).unwrap(), None);
    f.remove(&10).unwrap();
    assert_eq!(view.try_get(&10).unwrap(), None);
    assert_eq!(view.records(), 99);
}

#[test]
fn nested_holds_publish_only_at_the_outermost_release() {
    let (mut f, view) = spread_file(100);
    let before = published(&view);
    f.hold_publication();
    f.insert(5, 50).unwrap();
    f.hold_publication();
    f.apply_batch(&[Command::Insert(15, 150), Command::Remove(20)]);
    f.release_publication();
    f.remove(&30);
    f.vacuum();
    assert_eq!(published(&view), before, "visible while a hold is open");
    assert_eq!(view.records(), 100);
    f.release_publication();
    assert_eq!(published(&view), locked(&f));
    for (k, v) in [(5, Some(50)), (15, Some(150)), (20, None), (30, None)] {
        assert_eq!(view.try_get(&k).unwrap(), v, "key {k}");
    }
}

#[test]
#[should_panic(expected = "release_publication without a matching hold")]
fn release_without_a_hold_panics() {
    let (mut f, _view) = spread_file(10);
    f.hold_publication();
    f.release_publication();
    f.release_publication();
}

#[test]
fn holds_on_a_file_without_a_view_are_free() {
    let mut f: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
    f.bulk_load((0..100u64).map(|i| (i * 10, i))).unwrap();
    f.hold_publication();
    f.insert(5, 50).unwrap();
    f.apply_batch(&[Command::Remove(10), Command::Insert(25, 250)]);
    f.release_publication();
    assert!(f.read_view().is_none());
    // Enabling later seeds the view from the current state in full.
    let view = f.enable_optimistic_reads();
    assert_eq!(published(&view), locked(&f));
    assert_eq!(view.try_get(&5).unwrap(), Some(50));
    assert_eq!(view.try_get(&10).unwrap(), None);
}

#[test]
fn vacuum_publishes_the_redistributed_file() {
    let (mut f, view) = spread_file(0);
    // Ascending single inserts pack into a prefix of the slots; the vacuum
    // moves nearly every record, so nearly every slot republishes.
    for i in 0..300u64 {
        f.insert(i, i * 3).unwrap();
    }
    f.vacuum();
    assert_eq!(published(&view), locked(&f));
    assert_eq!(view.records(), 300);
    for i in (0..300u64).step_by(7) {
        assert_eq!(view.try_get(&i).unwrap(), Some(i * 3));
    }
}

#[test]
fn a_batch_of_misses_changes_nothing_visible() {
    let (mut f, view) = spread_file(100);
    let before = published(&view);
    let cmds: Vec<Command<u64, u64>> = (0..20u64).map(|i| Command::Remove(i * 10 + 1)).collect();
    let outcomes = f.apply_batch(&cmds);
    assert!(outcomes.iter().all(|o| *o == CommandOutcome::NotFound));
    f.apply_batch(&[]);
    assert_eq!(published(&view), before);
    assert_eq!(view.records(), 100);
}

#[test]
fn a_key_rewritten_within_one_batch_publishes_its_last_value() {
    let (mut f, view) = spread_file(100);
    f.apply_batch(&[
        Command::Insert(33, 1),
        Command::Insert(33, 2),
        Command::Remove(33),
        Command::Insert(33, 3),
        Command::Remove(40),
        Command::Insert(40, 4),
        Command::Remove(50),
    ]);
    assert_eq!(view.try_get(&33).unwrap(), Some(3));
    assert_eq!(view.try_get(&40).unwrap(), Some(4));
    assert_eq!(view.try_get(&50).unwrap(), None);
    assert_eq!(published(&view), locked(&f));
}

#[test]
fn string_payloads_stay_exact_across_recycled_images() {
    let mut f: DenseFile<u64, String> =
        DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
    f.bulk_load((0..200u64).map(|i| (i * 10, format!("seed {i}"))))
        .unwrap();
    let view = f.enable_optimistic_reads();
    // Payloads grow and shrink from round to round, so a recycled image is
    // refilled both over longer and over shorter strings than it held.
    for round in 0..12usize {
        let len = [1, 40, 3, 0, 25, 7][round % 6];
        for i in (round as u64 % 3..200).step_by(3) {
            f.insert(i * 10, format!("{i}:{}", "x".repeat(len)))
                .unwrap();
        }
        let cmds: Vec<Command<u64, String>> = (0..20u64)
            .map(|i| Command::Insert(i * 100 + 5, "y".repeat(len + round)))
            .collect();
        f.apply_batch(&cmds);
        assert_eq!(published(&view), locked(&f), "round {round}");
    }
}

#[test]
fn view_snapshot_equals_locked_snapshot_after_a_batch() {
    let mut f: DenseFile<u64, String> =
        DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
    f.bulk_load((0..150u64).map(|i| (i * 10, format!("v{i}"))))
        .unwrap();
    let view = f.enable_optimistic_reads();
    let cmds: Vec<Command<u64, String>> = (0..40u64)
        .map(|i| match i % 2 {
            0 => Command::Insert(i * 30 + 1, format!("new {i}")),
            _ => Command::Remove(i * 30),
        })
        .collect();
    f.apply_batch(&cmds);
    let mut bytes = Vec::new();
    f.write_snapshot(&mut bytes).unwrap();
    assert_eq!(view.try_snapshot_bytes().unwrap(), bytes);
}

#[test]
fn record_clone_from_equals_clone_as_payloads_grow_and_shrink() {
    let mut dst = Record::new(0u64, Vec::<u8>::new());
    for (k, len) in [(1u64, 5usize), (2, 64), (3, 0), (4, 17), (5, 300), (6, 2)] {
        let src = Record::new(k, vec![k as u8; len]);
        dst.clone_from(&src);
        assert_eq!(dst, src.clone());
    }
}

// ----------------------------------------------------------------------
// Concurrent readers see whole batches only.
// ----------------------------------------------------------------------

const GROUP: u64 = 8;

/// The keys one batch inserts or removes together.
fn group(base: u64, g: u64) -> impl Iterator<Item = u64> {
    (0..GROUP).map(move |j| base + g * 100 + j + 1)
}

#[test]
fn a_lock_free_scan_never_sees_half_a_batch() {
    let (mut f, view) = spread_file(200);
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (view, done) = (view.clone(), done.clone());
        std::thread::spawn(move || {
            let mut seen = 0u64;
            while !done.load(Ordering::Acquire) || seen == 0 {
                for g in 0..10u64 {
                    let lo = g * 100;
                    let Ok(part) = view
                        .try_collect_range(Bound::Included(lo + 1), Bound::Included(lo + GROUP))
                    else {
                        continue; // lost every race: a locked reader's case
                    };
                    assert!(
                        part.is_empty() || part.len() as u64 == GROUP,
                        "group {g}: a scan saw {} of {GROUP} keys of one batch",
                        part.len()
                    );
                    seen += 1;
                }
            }
            seen
        })
    };
    for round in 0..400u64 {
        let g = round % 10;
        let cmds: Vec<Command<u64, u64>> = if (round / 10) % 2 == 0 {
            group(0, g).map(|k| Command::Insert(k, round)).collect()
        } else {
            group(0, g).map(Command::Remove).collect()
        };
        f.apply_batch(&cmds);
    }
    done.store(true, Ordering::Release);
    assert!(reader.join().unwrap() > 0);
    assert_eq!(published(&view), locked(&f));
}

#[test]
fn sharded_range_reads_see_whole_per_shard_batches() {
    let file: Arc<ShardedFile<u64>> =
        Arc::new(ShardedFile::new(2, DenseFileConfig::control2(64, 8, 40)).unwrap());
    let high = u64::MAX / 2 + 1;
    file.bulk_load(
        (0..100u64)
            .map(|i| (i * 10, i))
            .chain((0..100u64).map(|i| (high + i * 10, i))),
    )
    .unwrap();
    file.enable_optimistic_reads();
    assert_ne!(file.shard_of(0), file.shard_of(high));
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let (file, done) = (file.clone(), done.clone());
        std::thread::spawn(move || {
            let mut reads = 0u64;
            while !done.load(Ordering::Acquire) || reads == 0 {
                for base in [0, high] {
                    for g in 0..5u64 {
                        let lo = base + g * 100;
                        let n = file.collect_range(lo + 1, lo + GROUP, 64).len() as u64;
                        assert!(n == 0 || n == GROUP, "saw {n} of {GROUP} keys of one batch");
                        reads += 1;
                    }
                }
            }
            reads
        })
    };
    for round in 0..200u64 {
        let g = round % 5;
        // One batch spans both shards; each shard's half must appear whole.
        let cmds: Vec<Command<u64, u64>> = [0, high]
            .into_iter()
            .flat_map(|base| group(base, g))
            .map(|k| {
                if (round / 5) % 2 == 0 {
                    Command::Insert(k, round)
                } else {
                    Command::Remove(k)
                }
            })
            .collect();
        file.apply_batch(&cmds);
    }
    done.store(true, Ordering::Release);
    assert!(reader.join().unwrap() > 0);
    assert_eq!(file.len(), 200);
}

// ----------------------------------------------------------------------
// DurableFile: a call is visible once its outcome is known.
// ----------------------------------------------------------------------

const DIR: &str = "/views";

fn durable(
    fs: &FaultFs,
    policy: SyncPolicy,
) -> (DurableFile<u64, u64, FaultFs>, ReadView<u64, u64>) {
    let mut f = DurableFile::create_with(
        fs.clone(),
        DIR,
        DenseFileConfig::control2(64, 8, 40),
        policy,
    )
    .unwrap();
    let base: Vec<_> = (0..100u64).map(|i| Command::Insert(i * 10, i)).collect();
    f.apply_batch(&base).unwrap();
    let view = f.enable_optimistic_reads();
    (f, view)
}

/// Arms a transient `EIO` on the next commit's fsync: a commit writes the
/// buffered frames, then syncs them. Returns the syscall number.
fn fail_next_fsync(fs: &FaultFs) -> u64 {
    let n = fs.syscalls() + 2;
    fs.set_plan(FaultPlan::eio_at(n, n));
    n
}

fn window() -> SyncPolicy {
    SyncPolicy::CommitWindow {
        max_frames: 1_000,
        max_micros: u64::MAX,
    }
}

/// Spawns a reader that calls `check` on the view until `done`, counting
/// the calls that return `false`; joins to `(reads, violations)`.
fn watch(
    view: &ReadView<u64, u64>,
    done: &Arc<AtomicBool>,
    check: impl Fn(&ReadView<u64, u64>) -> Option<bool> + Send + 'static,
) -> std::thread::JoinHandle<(u64, u64)> {
    let (view, done) = (view.clone(), done.clone());
    std::thread::spawn(move || {
        let (mut reads, mut violations) = (0u64, 0u64);
        while !done.load(Ordering::Acquire) || reads == 0 {
            // `None`: the read lost every race; a locked reader's case.
            if let Some(ok) = check(&view) {
                reads += 1;
                violations += u64::from(!ok);
            }
        }
        (reads, violations)
    })
}

#[test]
fn a_single_insert_whose_fsync_fails_is_never_visible() {
    let fs = FaultFs::new(FaultPlan::default());
    let (mut f, view) = durable(&fs, SyncPolicy::EveryCommand);
    let done = Arc::new(AtomicBool::new(false));
    let reader = watch(&view, &done, |v| {
        v.try_get(&5).ok().map(|hit| hit.is_none())
    });
    for round in 0..200u64 {
        let n = fail_next_fsync(&fs);
        assert!(f.insert(5, round).is_err());
        assert_eq!(fs.kind_log()[n as usize - 1], SyscallKind::SyncData);
        assert_eq!(view.try_get(&5).unwrap(), None);
    }
    done.store(true, Ordering::Release);
    let (reads, leaks) = reader.join().unwrap();
    assert!(reads > 0);
    assert_eq!(leaks, 0, "a reader saw an insert answered with Err");
    assert_eq!(published(&view), locked(&f));
    // The fault was transient: the same insert now commits and shows.
    assert!(!f.log_poisoned());
    f.insert(5, 51).unwrap();
    assert_eq!(view.try_get(&5).unwrap(), Some(51));
}

#[test]
fn a_single_remove_whose_fsync_fails_leaves_the_key_visible() {
    let fs = FaultFs::new(FaultPlan::default());
    let (mut f, view) = durable(&fs, SyncPolicy::EveryCommand);
    let n = fail_next_fsync(&fs);
    assert!(f.remove(&40).is_err());
    assert_eq!(fs.kind_log()[n as usize - 1], SyscallKind::SyncData);
    assert_eq!(view.try_get(&40).unwrap(), Some(4));
    assert_eq!(view.records(), 100);
}

#[test]
fn manual_policy_acks_are_visible_before_any_fsync() {
    let fs = FaultFs::new(FaultPlan::default());
    let (mut f, view) = durable(&fs, SyncPolicy::Manual);
    let syncs = |fs: &FaultFs| {
        fs.kind_log()
            .iter()
            .filter(|k| **k == SyscallKind::SyncData)
            .count()
    };
    let before = syncs(&fs);
    f.insert(5, 50).unwrap();
    f.apply_batch_durable(
        &[Command::Insert(15, 150), Command::Remove(20)],
        Durability::Strict,
    )
    .unwrap();
    assert_eq!(syncs(&fs), before, "Manual must not fsync on its own");
    assert_eq!(view.try_get(&5).unwrap(), Some(50));
    assert_eq!(view.try_get(&15).unwrap(), Some(150));
    assert_eq!(view.try_get(&20).unwrap(), None);
}

#[test]
fn a_failed_window_leaves_the_view_at_once() {
    let fs = FaultFs::new(FaultPlan::default());
    let (mut f, view) = durable(&fs, window());
    // Each round fills the window with three acknowledged Relaxed batches
    // of one group of keys each, then fails its commit. A reader checks
    // that groups only ever appear and leave whole.
    let keys: Vec<u64> = (0..3u64).flat_map(|b| group(0, b)).collect();
    let done = Arc::new(AtomicBool::new(false));
    let reader = watch(&view, &done, |v| {
        let part = v
            .try_collect_range(Bound::Included(1), Bound::Included(299))
            .ok()?;
        let fresh = part.iter().filter(|(k, _)| k % 10 != 0).count() as u64;
        Some(fresh.is_multiple_of(GROUP))
    });
    for round in 0..50u64 {
        for b in 0..3u64 {
            let cmds: Vec<_> = group(0, b).map(|k| Command::Insert(k, round)).collect();
            f.apply_batch_durable(&cmds, Durability::Relaxed).unwrap();
        }
        for k in &keys {
            assert_eq!(view.try_get(k).unwrap(), Some(round), "Relaxed ack {k}");
        }
        fail_next_fsync(&fs);
        assert!(f.close_window().is_err());
        for k in &keys {
            assert_eq!(view.try_get(k).unwrap(), None, "undone key {k}");
        }
    }
    done.store(true, Ordering::Release);
    let (reads, torn) = reader.join().unwrap();
    assert!(reads > 0);
    assert_eq!(torn, 0, "a reader saw a half-undone window");
    assert_eq!(published(&view), locked(&f));
}

#[test]
fn a_reopened_file_publishes_exactly_the_recovered_state() {
    let fs = FaultFs::new(FaultPlan::default());
    let mut model: BTreeMap<u64, u64> = (0..100u64).map(|i| (i * 10, i)).collect();
    {
        let (mut f, view) = durable(&fs, window());
        for b in 0..4u64 {
            let cmds: Vec<_> = group(0, b).map(|k| Command::Insert(k, b)).collect();
            f.apply_batch_durable(&cmds, Durability::Strict).unwrap();
            model.extend(group(0, b).map(|k| (k, b)));
        }
        // Acknowledged but never fsynced: lost in the power cut.
        f.apply_batch_durable(&[Command::Insert(55, 7)], Durability::Relaxed)
            .unwrap();
        assert_eq!(view.try_get(&55).unwrap(), Some(7));
    }
    fs.power_cycle();
    let mut f: DurableFile<u64, u64, FaultFs> =
        DurableFile::open_with(fs.clone(), DIR, window()).unwrap();
    let view = f.enable_optimistic_reads();
    let expect: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(published(&view), expect);
    assert_eq!(view.try_get(&55).unwrap(), None);
}

#[test]
fn a_served_store_never_answers_from_a_failed_strict_batch() {
    let fs = FaultFs::new(FaultPlan::default());
    let kv = DurableKv::create_on(
        fs.clone(),
        "/kv",
        1,
        DenseFileConfig::control2(64, 8, 40),
        window(),
    )
    .unwrap();
    kv.enable_optimistic_reads();
    let insert = |b: u64| -> Vec<Command<u64, String>> {
        group(0, b)
            .map(|k| Command::Insert(k, format!("batch {b}")))
            .collect()
    };
    kv.apply_batch(0, &insert(0), Durability::Strict, &mut |_, _, _| {})
        .unwrap();
    fail_next_fsync(&fs);
    assert!(kv
        .apply_batch(0, &insert(1), Durability::Strict, &mut |_, _, _| {})
        .is_err());
    kv.apply_batch(0, &insert(2), Durability::Strict, &mut |_, _, _| {})
        .unwrap();
    for (b, visible) in [(0, true), (1, false), (2, true)] {
        for k in group(0, b) {
            let want = visible.then(|| format!("batch {b}"));
            assert_eq!(kv.get(k).map(String::from), want, "batch {b}, key {k}");
        }
    }
    assert_eq!(kv.len(), 2 * GROUP);
}

// ----------------------------------------------------------------------
// The contract as a property, and its registration.
// ----------------------------------------------------------------------

fn command_strategy() -> impl Strategy<Value = Command<u16, u8>> {
    prop_oneof![
        3 => (0u16..200, any::<u8>()).prop_map(|(k, v)| Command::Insert(k, v)),
        2 => (0u16..200).prop_map(Command::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// After every batch the view shows exactly the model — unless a hold
    /// is open, in which case it still shows the state the hold began at.
    #[test]
    fn view_tracks_the_model_at_every_unheld_batch_boundary(
        batches in prop::collection::vec(prop::collection::vec(command_strategy(), 0..16), 1..24),
        holds in prop::collection::vec(0u8..4, 24..25),
    ) {
        let mut f: DenseFile<u16, u8> = DenseFile::new(DenseFileConfig::control2(32, 4, 12)).unwrap();
        let view = f.enable_optimistic_reads();
        let mut model: BTreeMap<u16, u8> = BTreeMap::new();
        let mut frozen: Option<Vec<(u16, u8)>> = None;
        for (batch, hold) in batches.iter().zip(&holds) {
            if *hold == 0 && frozen.is_none() {
                f.hold_publication();
                frozen = Some(model.clone().into_iter().collect());
            }
            for (cmd, outcome) in batch.iter().zip(f.apply_batch(batch)) {
                match (cmd, outcome) {
                    (Command::Insert(k, v), CommandOutcome::Inserted | CommandOutcome::Replaced(_)) => {
                        model.insert(*k, *v);
                    }
                    (Command::Remove(k), _) => {
                        model.remove(k);
                    }
                    _ => {}
                }
            }
            let shown = published(&view);
            match &frozen {
                Some(before) => prop_assert_eq!(&shown, before),
                None => prop_assert_eq!(shown, model.clone().into_iter().collect::<Vec<_>>()),
            }
            if *hold == 1 && frozen.take().is_some() {
                f.release_publication();
                prop_assert_eq!(published(&view), model.clone().into_iter().collect::<Vec<_>>());
            }
        }
        if frozen.is_some() {
            f.release_publication();
        }
        prop_assert_eq!(published(&view), model.clone().into_iter().collect::<Vec<_>>());
        prop_assert_eq!(view.records(), model.len() as u64);
    }
}

/// The property above registers as exactly one test, `#[test]` and all.
#[test]
fn the_property_registers_exactly_once() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .arg("--list")
        .output()
        .unwrap();
    assert!(out.status.success());
    let listing = String::from_utf8(out.stdout).unwrap();
    let name = "view_tracks_the_model_at_every_unheld_batch_boundary: test";
    let n = listing.lines().filter(|l| *l == name).count();
    assert_eq!(n, 1, "{name} registered {n} times in:\n{listing}");
}
