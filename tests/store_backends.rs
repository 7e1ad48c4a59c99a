//! One model test for both backends of the sharded store.
//!
//! The same seeded history — single-shard batches of inserts, replaces and
//! removes, point gets, `len` and scans — runs through
//! [`KvService`] on an in-memory `ShardedFile<Payload>` (with and without
//! optimistic reads) and on a [`DurableKv`] in a temporary directory, and
//! every answer is compared with a `BTreeMap`. Keys cluster at both ends of
//! each stripe, so scans start in a shard's last slots and cross stripe
//! boundaries; every scan runs at limits 0, 1, 64 and unbounded. The
//! durable store is finally reopened and must hold exactly the model.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use willard_dsf::concurrent::Shard;
use willard_dsf::server::{DurableKv, KvService, Payload};
use willard_dsf::{
    Command, CommandOutcome, DenseFileConfig, Durability, DurableFile, ShardedFile, SyncPolicy,
};

const SHARDS: u32 = 3;
/// Each stripe's keys lie within `EDGE` of its first or its last key, so a
/// stripe holds at most `2·EDGE` keys — under its `d·M` = 512 capacity.
const EDGE: u64 = 200;
const LIMITS: [usize; 4] = [0, 1, 64, usize::MAX];
const STEPS: usize = 300;

fn cfg() -> DenseFileConfig {
    DenseFileConfig::control2(64, 8, 40)
}

/// `[first, last]` key of stripe `s`, as the store's router splits them.
fn stripe(s: u64) -> (u64, u64) {
    let width = u64::MAX / u64::from(SHARDS) + 1;
    let last = if s + 1 == u64::from(SHARDS) {
        u64::MAX
    } else {
        (s + 1) * width - 1
    };
    (s * width, last)
}

/// A key of stripe `s`, near its start or its end.
fn key_in(rng: &mut SmallRng, s: u64) -> u64 {
    let (first, last) = stripe(s);
    let off = rng.gen_range(0..EDGE);
    if rng.gen_bool(0.5) {
        first + off
    } else {
        last - off
    }
}

fn apply_model(
    model: &mut BTreeMap<u64, String>,
    cmd: &Command<u64, String>,
) -> CommandOutcome<Payload> {
    match cmd {
        Command::Insert(k, v) => match model.insert(*k, v.clone()) {
            Some(old) => CommandOutcome::Replaced(old.into()),
            None => CommandOutcome::Inserted,
        },
        Command::Remove(k) => match model.remove(k) {
            Some(old) => CommandOutcome::Removed(old.into()),
            None => CommandOutcome::NotFound,
        },
    }
}

/// Scan starts worth checking now: the stripe starts, a few keys before
/// each stripe's end (so the scan crosses into the next stripe), each
/// stripe's largest present key (its last occupied slots), and one random
/// key.
fn scan_starts(model: &BTreeMap<u64, String>, rng: &mut SmallRng) -> Vec<u64> {
    let mut starts = Vec::new();
    for s in 0..u64::from(SHARDS) {
        let (first, last) = stripe(s);
        starts.extend([first, last - EDGE / 2, last]);
        if let Some((&k, _)) = model.range(first..=last).next_back() {
            starts.extend([k, k.saturating_sub(3)]);
        }
    }
    let s = rng.gen_range(0..u64::from(SHARDS));
    starts.push(key_in(rng, s));
    starts
}

fn check_scans(svc: &dyn KvService, model: &BTreeMap<u64, String>, rng: &mut SmallRng, at: &str) {
    for start in scan_starts(model, rng) {
        for limit in LIMITS {
            let want: Vec<(u64, Payload)> = model
                .range(start..)
                .take(limit)
                .map(|(k, v)| (*k, Payload::from(v.as_str())))
                .collect();
            assert_eq!(svc.scan(start, limit), want, "{at}: scan({start}, {limit})");
        }
    }
}

/// Runs the seeded history against `kv` and returns the model it ends at.
fn run<S>(kv: &ShardedFile<Payload, S>, seed: u64) -> BTreeMap<u64, String>
where
    S: Shard<Payload> + Send + Sync + 'static,
{
    let svc: &dyn KvService = kv;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = BTreeMap::new();
    assert_eq!(svc.shard_count(), SHARDS as usize);
    for step in 0..STEPS {
        let at = format!("seed {seed}, step {step}");
        match rng.gen_range(0..19u32) {
            0..=9 => {
                let shard = rng.gen_range(0..u64::from(SHARDS));
                let cmds: Vec<Command<u64, String>> = (0..rng.gen_range(1..=24u32))
                    .map(|i| {
                        let k = key_in(&mut rng, shard);
                        if rng.gen_bool(0.3) {
                            Command::Remove(k)
                        } else {
                            Command::Insert(k, format!("{step}.{i}"))
                        }
                    })
                    .collect();
                let durability = if rng.gen_bool(0.5) {
                    Durability::Strict
                } else {
                    Durability::Relaxed
                };
                let want: Vec<_> = cmds.iter().map(|c| apply_model(&mut model, c)).collect();
                let mut seen = Vec::new();
                let got = svc
                    .apply_batch(shard as usize, &cmds, durability, &mut |i, _, _| {
                        seen.push(i)
                    })
                    .unwrap_or_else(|e| panic!("{at}: batch failed: {e}"));
                assert_eq!(got, want, "{at}: outcomes");
                assert_eq!(
                    seen,
                    (0..cmds.len()).collect::<Vec<_>>(),
                    "{at}: observer order"
                );
            }
            10..=13 => {
                for _ in 0..16 {
                    let s = rng.gen_range(0..u64::from(SHARDS));
                    let k = key_in(&mut rng, s);
                    let want = model.get(&k).map(|v| Payload::from(v.as_str()));
                    assert_eq!(svc.get(k), want, "{at}: get({k})");
                }
            }
            _ => check_scans(svc, &model, &mut rng, &at),
        }
        assert_eq!(svc.len(), model.len() as u64, "{at}: len");
        assert_eq!(svc.is_empty(), model.is_empty(), "{at}: is_empty");
    }
    check_scans(svc, &model, &mut rng, &format!("seed {seed}, end"));
    kv.check_invariants().expect("invariants hold");
    model
}

#[test]
fn both_backends_match_a_btreemap() {
    for seed in 1..=4u64 {
        let locked: ShardedFile<Payload> = ShardedFile::new(SHARDS, cfg()).unwrap();
        let model = run(&locked, seed);

        let memory: ShardedFile<Payload> = ShardedFile::new(SHARDS, cfg()).unwrap();
        memory.enable_optimistic_reads();
        assert_eq!(run(&memory, seed), model);

        let dir =
            std::env::temp_dir().join(format!("dsf-store-backends-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = SyncPolicy::CommitWindow {
            max_frames: 16,
            max_micros: 1_000,
        };
        let durable = DurableKv::create(&dir, SHARDS, cfg(), policy).unwrap();
        assert_eq!(run(&durable, seed), model);
        KvService::flush(&durable).unwrap();
        drop(durable);

        let reopened = DurableKv::open(&dir, policy).unwrap();
        let all: Vec<(u64, Payload)> = model
            .into_iter()
            .map(|(k, v)| (k, Payload::from(v)))
            .collect();
        assert_eq!(
            KvService::scan(&reopened, 0, usize::MAX),
            all,
            "seed {seed}: reopened"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Refuses, through `svc`, a batch for a shard that does not exist and
/// batches holding a key of another stripe, and checks nothing was applied.
fn check_misrouted_refused(svc: &dyn KvService) {
    let (first1, _) = stripe(1);
    let (_, last0) = stripe(0);
    let wrong = [Command::Insert(first1, "x".to_string())];
    let mixed = [
        Command::Insert(last0, "a".to_string()),
        Command::Insert(first1, "b".to_string()),
    ];
    for (shard, cmds) in [(0, &wrong[..]), (0, &mixed[..]), (SHARDS as usize, &[][..])] {
        let mut seen = 0;
        let got = svc.apply_batch(shard, cmds, Durability::Strict, &mut |_, _, _| seen += 1);
        assert!(got.is_err(), "shard {shard}: misrouted batch accepted");
        assert_eq!(seen, 0, "shard {shard}: observer ran");
    }
    assert_eq!(svc.len(), 0);
    assert_eq!(svc.get(first1), None);
    assert_eq!(svc.get(last0), None);
    assert_eq!(svc.scan(0, usize::MAX), Vec::new());
}

#[test]
fn misrouted_batches_are_refused() {
    let memory: ShardedFile<Payload> = ShardedFile::new(SHARDS, cfg()).unwrap();
    check_misrouted_refused(&memory);

    let dir = std::env::temp_dir().join(format!("dsf-store-misrouted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = DurableKv::create(&dir, SHARDS, cfg(), SyncPolicy::EveryCommand).unwrap();
    check_misrouted_refused(&durable);
    drop(durable);
    std::fs::remove_dir_all(&dir).ok();
}

/// Values on both sides of the 22-byte inline limit, multibyte ones
/// among them, so both `Payload` representations reach the disk.
fn cross_value(k: u64) -> String {
    match k % 5 {
        0 => String::new(),
        1 => format!("{k:016x}"),
        2 => "é".repeat(11), // 22 bytes: the longest inline value
        3 => format!("{}π", "x".repeat(21)), // 23 bytes, π straddling byte 22
        _ => format!("a long value for key {k}, well past the inline limit"),
    }
}

/// The first key of shard 1 in a 2-shard store.
const SECOND_STRIPE: u64 = u64::MAX / 2 + 1;

/// Keys of both stripes of a 2-shard store, with a `String` value each.
fn cross_records() -> Vec<(u64, String)> {
    (0..60u64)
        .chain((0..60).map(|k| SECOND_STRIPE + k))
        .map(|k| (k, cross_value(k)))
        .collect()
}

/// Writes `records` into one `DurableFile` per shard directory of `dir`:
/// the first half of each stripe's inserts and a remove are checkpointed,
/// the rest stay in the log (so recovery decodes both).
fn write_string_shards(dir: &std::path::Path, records: &[(u64, String)]) {
    for s in 0..2u64 {
        let mut f: DurableFile<u64, String> =
            DurableFile::create(dir.join(format!("shard-{s}")), cfg(), SyncPolicy::Manual).unwrap();
        let mine: Vec<_> = records
            .iter()
            .filter(|(k, _)| (*k >= SECOND_STRIPE) == (s == 1))
            .collect();
        let (early, late) = mine.split_at(mine.len() / 2);
        for (k, v) in early {
            f.insert(*k, v.clone()).unwrap();
        }
        let gone = s * SECOND_STRIPE + 1_000;
        f.insert(gone, "gone".into()).unwrap();
        f.remove(&gone).unwrap();
        f.checkpoint().unwrap();
        for (k, v) in late {
            f.insert(*k, v.clone()).unwrap();
        }
        f.sync().unwrap();
    }
}

#[test]
fn string_and_payload_stores_reopen_as_each_other() {
    let records = cross_records();
    let policy = SyncPolicy::Manual;

    // `String` files → `DurableKv`.
    let dir = std::env::temp_dir().join(format!("dsf-cross-type-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_string_shards(&dir, &records);
    let kv = DurableKv::open(&dir, policy).unwrap();
    let scanned: Vec<(u64, String)> = KvService::scan(&kv, 0, usize::MAX)
        .into_iter()
        .map(|(k, v)| (k, String::from(v)))
        .collect();
    assert_eq!(scanned, records, "String → Payload");
    assert_eq!(KvService::len(&kv), records.len() as u64);
    for (k, v) in &records {
        assert_eq!(
            KvService::get(&kv, *k).as_deref(),
            Some(v.as_str()),
            "get({k})"
        );
    }
    drop(kv);
    std::fs::remove_dir_all(&dir).ok();

    // `DurableKv` → `String` files: WAL frames written from `Payload`s,
    // then a checkpoint written from `Payload`s.
    let kv = DurableKv::create(&dir, 2, cfg(), policy).unwrap();
    for s in 0..2 {
        let cmds: Vec<Command<u64, String>> = records
            .iter()
            .filter(|(k, _)| kv.shard_of(*k) == s)
            .map(|(k, v)| Command::Insert(*k, v.clone()))
            .collect();
        kv.apply_batch(s, &cmds, Durability::Strict, &mut |_, _, _| {})
            .unwrap();
    }
    KvService::flush(&kv).unwrap();
    drop(kv);
    let as_string = |s: u64| -> Vec<(u64, String)> {
        let f: DurableFile<u64, String> =
            DurableFile::open(dir.join(format!("shard-{s}")), policy).unwrap();
        f.iter().map(|(k, v)| (*k, v.clone())).collect()
    };
    let logged: Vec<_> = (0..2).flat_map(as_string).collect();
    assert_eq!(logged, records, "Payload log → String");
    for s in 0..2u64 {
        let mut f: DurableFile<u64, Payload> =
            DurableFile::open(dir.join(format!("shard-{s}")), policy).unwrap();
        f.checkpoint().unwrap();
    }
    let checkpointed: Vec<_> = (0..2).flat_map(as_string).collect();
    assert_eq!(checkpointed, records, "Payload checkpoint → String");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_service_and_the_store_give_one_answer_per_read() {
    let dir = std::env::temp_dir().join(format!("dsf-one-answer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kv = DurableKv::create(&dir, SHARDS, cfg(), SyncPolicy::Manual).unwrap();
    let records = cross_records();
    for s in 0..SHARDS as usize {
        let cmds: Vec<Command<u64, String>> = records
            .iter()
            .filter(|(k, _)| kv.shard_of(*k) == s)
            .map(|(k, v)| Command::Insert(*k, v.clone()))
            .collect();
        kv.apply_batch(s, &cmds, Durability::Relaxed, &mut |_, _, _| {})
            .unwrap();
    }
    let (present, _) = records[records.len() / 2];
    let absent = present - 1;
    assert!(records.iter().all(|(k, _)| *k != absent));
    assert!(kv.get(present).is_some() && kv.get(absent).is_none());
    for k in records.iter().map(|(k, _)| *k).chain([absent]) {
        let a: Option<Payload> = KvService::get(&kv, k);
        assert_eq!(a, kv.get(k), "get({k})");
    }
    for (start, limit) in [(0, usize::MAX), (present, 3), (absent, 1), (u64::MAX, 5)] {
        let a: Vec<(u64, Payload)> = KvService::scan(&kv, start, limit);
        assert_eq!(
            a,
            kv.collect_range(start, u64::MAX, limit),
            "scan({start}, {limit})"
        );
    }
    drop(kv);
    std::fs::remove_dir_all(&dir).ok();
}
