//! The optimistic read view's visibility contract on a `DurableFile`.
//!
//! A batch becomes visible to lock-free readers once, when its call
//! returns: after the fsync for a Strict (or `EveryCommand`) batch, once
//! its frames are buffered for a Relaxed batch. A batch answered with
//! `Err` — here, a transient `EIO` injected into its commit's fsync — is
//! never visible, neither while it executes in memory nor after its
//! rollback, and a failed window commit takes the window's acknowledged
//! Relaxed commands out of the view along with it.
//!
//! Two checks enforce it. The per-command observer reads the view from
//! inside the batch (after each command executed in memory, before any
//! syscall), which pins the deferral deterministically; a concurrent
//! reader thread hammers every key of every failing batch for the whole
//! run and must never get a hit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dsf_core::{Command, DenseFileConfig, ReadView};
use dsf_durable::{Durability, DurableFile, FaultFs, FaultPlan, SyncPolicy, SyscallKind};

const DIR: &str = "/db";
const BATCHES: u64 = 120;
const PER_BATCH: u64 = 8;
/// Every `FAIL_EVERY`th batch gets an `EIO` on its fsync.
const FAIL_EVERY: u64 = 3;

fn keys(batch: u64) -> impl Iterator<Item = u64> {
    (0..PER_BATCH).map(move |j| batch * 1_000 + j * 7 + 1)
}

fn fails(batch: u64) -> bool {
    batch % FAIL_EVERY == 1
}

/// Arms a transient `EIO` on the next commit's fsync. A group commit's
/// syscalls are one `write` of the buffered frames, then `sync_data`.
fn fail_next_fsync(fs: &FaultFs) -> u64 {
    let n = fs.syscalls() + 2;
    fs.set_plan(FaultPlan::eio_at(n, n));
    n
}

/// A file on `fs` holding one base record between every two batches' key
/// ranges, loaded in one batch. `BATCHES` records.
fn spread_file(fs: &FaultFs, policy: SyncPolicy) -> DurableFile<u64, u64, FaultFs> {
    let mut f = DurableFile::create_with(
        fs.clone(),
        DIR,
        DenseFileConfig::control2(256, 8, 40),
        policy,
    )
    .unwrap();
    let base: Vec<_> = (0..BATCHES)
        .map(|b| Command::Insert(b * 1_000 + 500, 0))
        .collect();
    f.apply_batch(&base).unwrap();
    f
}

/// Runs `BATCHES` Strict batches of fresh keys against `policy`, failing
/// every `FAIL_EVERY`th at its fsync, with a reader thread watching the
/// failing batches' keys throughout.
fn strict_batches_with_fsync_eio(policy: SyncPolicy) {
    let fs = FaultFs::new(FaultPlan::default());
    let mut f = spread_file(&fs, policy);
    let view: ReadView<u64, u64> = f.enable_optimistic_reads();

    let done = Arc::new(AtomicBool::new(false));
    let leaks = Arc::new(AtomicU64::new(0));
    let reader = {
        let (view, done, leaks) = (view.clone(), done.clone(), leaks.clone());
        std::thread::spawn(move || {
            let watched: Vec<u64> = (0..BATCHES).filter(|&b| fails(b)).flat_map(keys).collect();
            let mut reads = 0u64;
            while !done.load(Ordering::Acquire) || reads == 0 {
                for k in &watched {
                    if let Ok(Some(_)) = view.try_get(k) {
                        leaks.fetch_add(1, Ordering::Relaxed);
                    }
                    reads += 1;
                }
            }
            reads
        })
    };

    for b in 0..BATCHES {
        let cmds: Vec<Command<u64, u64>> = keys(b).map(|k| Command::Insert(k, b)).collect();
        let eio_at = fails(b).then(|| fail_next_fsync(&fs));
        let inside = view.clone();
        let result = f.apply_batch_durable_with(&cmds, Durability::Strict, |i, _, _| {
            let Command::Insert(k, _) = cmds[i] else {
                unreachable!()
            };
            assert_eq!(
                inside.try_get(&k).unwrap(),
                None,
                "batch {b}: key {k} visible before its commit's outcome"
            );
        });
        match eio_at {
            Some(n) => {
                assert!(result.is_err(), "batch {b}: injected EIO not reported");
                assert_eq!(fs.kind_log()[n as usize - 1], SyscallKind::SyncData);
                for k in keys(b) {
                    assert_eq!(view.try_get(&k).unwrap(), None, "batch {b}: undone key {k}");
                }
            }
            None => {
                result.unwrap();
                for k in keys(b) {
                    assert_eq!(
                        view.try_get(&k).unwrap(),
                        Some(b),
                        "batch {b}: acked key {k}"
                    );
                }
            }
        }
        assert!(!f.log_poisoned());
    }
    done.store(true, Ordering::Release);
    let reads = reader.join().unwrap();
    assert!(reads > 0);
    assert_eq!(
        leaks.load(Ordering::Relaxed),
        0,
        "a reader returned a key from a batch answered with Err"
    );
    // The view ends equal to the locked state.
    let locked: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(
        view.try_collect_range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            .unwrap(),
        locked
    );
    assert_eq!(
        locked.len() as u64,
        BATCHES + (0..BATCHES).filter(|&b| !fails(b)).count() as u64 * PER_BATCH
    );
}

#[test]
fn strict_window_batches_are_visible_only_after_their_fsync() {
    strict_batches_with_fsync_eio(SyncPolicy::CommitWindow {
        max_frames: 1_000,
        max_micros: u64::MAX,
    });
}

#[test]
fn every_command_batches_are_visible_only_after_their_fsync() {
    strict_batches_with_fsync_eio(SyncPolicy::EveryCommand);
}

/// Relaxed batches are visible at their ack (frames buffered, no fsync);
/// a later failed window commit undoes them, and the view with them.
#[test]
fn relaxed_acks_are_visible_and_leave_with_a_failed_window() {
    let fs = FaultFs::new(FaultPlan::default());
    let mut f = spread_file(
        &fs,
        SyncPolicy::CommitWindow {
            max_frames: 1_000,
            max_micros: u64::MAX,
        },
    );
    let view = f.enable_optimistic_reads();
    f.apply_batch(&keys(0).map(|k| Command::Insert(k, 0)).collect::<Vec<_>>())
        .unwrap();
    for b in 1..4u64 {
        let cmds: Vec<_> = keys(b).map(|k| Command::Insert(k, b)).collect();
        f.apply_batch_durable(&cmds, Durability::Relaxed).unwrap();
        assert!(f.window_frames() > 0, "Relaxed must not close the window");
        for k in keys(b) {
            assert_eq!(
                view.try_get(&k).unwrap(),
                Some(b),
                "Relaxed ack not visible"
            );
        }
    }
    // The Strict batch closes the window; its fsync fails, undoing the
    // whole window: this batch and the three acknowledged Relaxed ones.
    fail_next_fsync(&fs);
    let cmds: Vec<_> = keys(4).map(|k| Command::Insert(k, 4)).collect();
    assert!(f.apply_batch_durable(&cmds, Durability::Strict).is_err());
    for b in 1..5u64 {
        for k in keys(b) {
            assert_eq!(view.try_get(&k).unwrap(), None, "batch {b}: undone key {k}");
        }
    }
    for k in keys(0) {
        assert_eq!(view.try_get(&k).unwrap(), Some(0), "durable batch lost");
    }
    assert_eq!(view.records(), BATCHES + PER_BATCH);
}
