//! Property: optimistic reads are linearizable prefixes of the applied
//! command sequence, on either shard type.
//!
//! A writer thread applies an arbitrary generated history to a real
//! [`ShardedFile`] one command at a time — in memory through `insert` /
//! `remove` or through one-command `apply_shard_batch` calls, or over
//! [`DurableFile`] shards in a temporary directory through
//! `apply_shard_batch` — while reader threads hammer the lock-free
//! [`ReadView`] path with point gets and range collections. Two
//! watermarks bound every read: `applied` (commands fully applied before
//! the read began) and `started` (commands begun by the time it finished).
//! Each observed value must equal the key's state after some command count
//! inside that window — i.e. the read saw a genuine prefix of the history,
//! never a torn or time-travelling state. The per-key state at every
//! command count is precomputed from the generated ops, so the check is
//! exact, not statistical.

use dsf_concurrent::{Shard, ShardedFile};
use dsf_core::{Command, DenseFileConfig};
use dsf_durable::{Durability, DurableFile, SyncPolicy};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

const SHARDS: u32 = 2;
const UNIVERSE: u64 = 48;
/// Initial values live far above any command index so the two namespaces
/// can never collide in the history oracle.
const INIT_BASE: u64 = 1 << 32;

/// Spreads compact key ids over the full `u64` space so both shards and
/// many slots participate.
fn key_of(id: u64) -> u64 {
    id * (u64::MAX / UNIVERSE)
}

#[derive(Debug, Clone, Copy)]
enum WOp {
    Insert(u8),
    Remove(u8),
}

impl WOp {
    fn key_id(self) -> u64 {
        match self {
            WOp::Insert(k) | WOp::Remove(k) => u64::from(k) % UNIVERSE,
        }
    }
}

fn op_strategy() -> impl Strategy<Value = WOp> {
    prop_oneof![
        3 => any::<u8>().prop_map(WOp::Insert),
        1 => any::<u8>().prop_map(WOp::Remove),
    ]
}

/// Per-key transition list: `(count, value)` means "after `count` commands
/// the key's state is `value`". The first entry is the bulk-loaded state
/// at count 0.
type History = Vec<Vec<(u64, Option<u64>)>>;

/// Replays the generated ops against a model to precompute every key's
/// state at every command count. Insert values are the 1-based command
/// index, so each write is unique and the oracle can name the exact
/// command a read observed.
fn build_history(ops: &[WOp]) -> History {
    let mut hist: History = (0..UNIVERSE)
        .map(|k| {
            let init = (k % 2 == 0).then_some(INIT_BASE + k);
            vec![(0u64, init)]
        })
        .collect();
    for (i, op) in ops.iter().enumerate() {
        let count = i as u64 + 1;
        let k = op.key_id() as usize;
        let next = match op {
            WOp::Insert(_) => Some(count),
            WOp::Remove(_) => None,
        };
        if hist[k].last().map(|&(_, v)| v) != Some(next) {
            hist[k].push((count, next));
        }
    }
    hist
}

/// Whether `obs` equals the key's state after some command count in
/// `[a, s]` — the windowed-prefix condition.
fn valid_in_window(transitions: &[(u64, Option<u64>)], a: u64, s: u64, obs: Option<u64>) -> bool {
    let mut at_a = None;
    for &(count, v) in transitions {
        if count <= a {
            at_a = v;
        } else if count <= s {
            if v == obs {
                return true;
            }
        } else {
            break;
        }
    }
    obs == at_a
}

/// Tiny deterministic per-reader PRNG (xorshift64*) so the two readers
/// walk different key sequences without sharing state.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn cfg() -> DenseFileConfig {
    DenseFileConfig::control2(256, 6, 8)
}

/// The bulk-loaded state at command count 0: every even key id.
fn initial() -> impl Iterator<Item = (u64, u64)> {
    (0..UNIVERSE)
        .filter(|k| k % 2 == 0)
        .map(|k| (key_of(k), INIT_BASE + k))
}

/// Runs `ops` on `file` (loaded with [`initial`], views enabled) from a
/// writer thread, handing each command to `write` (which applies it to
/// `file`), while two readers check every optimistic get and range
/// collection against the windowed-prefix oracle; then checks the
/// quiescent state exactly.
fn check_prefix_property<S, W>(file: &ShardedFile<u64, S>, reader_seed: u64, ops: &[WOp], write: W)
where
    S: Shard<u64> + Send + Sync,
    W: Fn(Command<u64, u64>) + Sync,
{
    let hist = build_history(ops);
    let applied = AtomicU64::new(0);
    let started = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let total = ops.len() as u64;

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (i, op) in ops.iter().enumerate() {
                started.store(i as u64 + 1, Ordering::Release);
                let key = key_of(op.key_id());
                write(match op {
                    WOp::Insert(_) => Command::Insert(key, i as u64 + 1),
                    WOp::Remove(_) => Command::Remove(key),
                });
                applied.store(i as u64 + 1, Ordering::Release);
            }
            done.store(true, Ordering::Release);
        });

        for reader in 0..2u64 {
            let violations = &violations;
            let hist = &hist;
            let applied = &applied;
            let started = &started;
            let done = &done;
            let mut rng = reader_seed ^ (reader.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let dice = next_rand(&mut rng);
                    let id = dice % UNIVERSE;
                    let key = key_of(id);
                    let a = applied.load(Ordering::Acquire);
                    if dice.is_multiple_of(8) {
                        // Range collection: every returned pair must be
                        // individually window-valid and in key order.
                        let hi_id = (id + 8).min(UNIVERSE - 1);
                        let pairs = file.collect_range(key, key_of(hi_id), 64);
                        let s = started.load(Ordering::Acquire);
                        let mut last = None;
                        for &(k, v) in &pairs {
                            if last.is_some_and(|p| p >= k) {
                                violations
                                    .lock()
                                    .unwrap()
                                    .push(format!("range out of order at key {k}"));
                            }
                            last = Some(k);
                            let kid = (k / (u64::MAX / UNIVERSE)) as usize;
                            if !valid_in_window(&hist[kid], a, s, Some(v)) {
                                violations.lock().unwrap().push(format!(
                                    "range pair ({kid}, {v}) invalid in window [{a}, {s}]"
                                ));
                            }
                        }
                    } else {
                        // Point get: prefer the raw lock-free view so the
                        // optimistic path itself is on trial; a lost race
                        // falls back to the (also linearizable) locked get.
                        let shard = file.shard_of(key);
                        let view = file.shard_view(shard).expect("views enabled");
                        let obs = match view.try_get(&key) {
                            Ok(v) => v,
                            Err(_) => file.get(key),
                        };
                        let s = started.load(Ordering::Acquire);
                        if !valid_in_window(&hist[id as usize], a, s, obs) {
                            violations
                                .lock()
                                .unwrap()
                                .push(format!("get({id}) = {obs:?} invalid in window [{a}, {s}]"));
                        }
                    }
                    if !violations.lock().unwrap().is_empty() {
                        return;
                    }
                }
            });
        }
    });

    let found = violations.into_inner().unwrap();
    prop_assert!(found.is_empty(), "windowed-prefix violations: {found:?}");

    // Quiescent epilogue: the view, the locked path, and the precomputed
    // final state must all agree exactly.
    for id in 0..UNIVERSE {
        let expect = hist[id as usize].last().map(|&(_, v)| v).unwrap();
        let key = key_of(id);
        let shard = file.shard_of(key);
        let view = file.shard_view(shard).expect("views enabled");
        prop_assert_eq!(view.try_get(&key).expect("quiescent read"), expect);
        prop_assert_eq!(file.get(key), expect);
    }
    prop_assert_eq!(applied.load(Ordering::Acquire), total);
    prop_assert!(file.check_invariants().is_ok());
}

/// Applies `cmd` as a one-command batch through the shard-batch path the
/// served store uses.
fn apply_one<S: Shard<u64>>(file: &ShardedFile<u64, S>, cmd: Command<u64, u64>) {
    file.apply_shard_batch(
        file.shard_of(*cmd.key()),
        &[cmd],
        Durability::Relaxed,
        |_, _, _| {},
    )
    .expect("universe fits");
}

fn loaded_memory_file() -> ShardedFile<u64> {
    let file: ShardedFile<u64> = ShardedFile::new(SHARDS, cfg()).unwrap();
    file.bulk_load(initial()).unwrap();
    file.enable_optimistic_reads();
    file
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn optimistic_reads_observe_a_prefix_of_applied_commands(
        reader_seed in 1u64..u64::MAX,
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let file = loaded_memory_file();
        check_prefix_property(&file, reader_seed, &ops, |cmd| match cmd {
            Command::Insert(k, v) => {
                file.insert(k, v).expect("universe fits");
            }
            Command::Remove(k) => {
                file.remove(&k);
            }
        });
    }

    #[test]
    fn shard_batch_optimistic_reads_observe_a_prefix_of_applied_commands(
        reader_seed in 1u64..u64::MAX,
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let file = loaded_memory_file();
        check_prefix_property(&file, reader_seed, &ops, |cmd| apply_one(&file, cmd));
    }

    #[test]
    fn durable_optimistic_reads_observe_a_prefix_of_applied_commands(
        reader_seed in 1u64..u64::MAX,
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "dsf-optimistic-props-{}-{reader_seed:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let file: ShardedFile<u64, DurableFile<u64, u64>> =
            ShardedFile::create(&dir, SHARDS, cfg(), SyncPolicy::Manual).unwrap();
        for s in 0..SHARDS as usize {
            let load: Vec<_> = initial()
                .filter(|&(k, _)| file.shard_of(k) == s)
                .map(|(k, v)| Command::Insert(k, v))
                .collect();
            file.apply_shard_batch(s, &load, Durability::Relaxed, |_, _, _| {})
                .unwrap();
        }
        check_prefix_property(&file, reader_seed, &ops, |cmd| apply_one(&file, cmd));
        drop(file);
        std::fs::remove_dir_all(&dir).ok();
    }
}
