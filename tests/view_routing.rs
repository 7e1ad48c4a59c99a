//! Layout never declines a lock-free read.
//!
//! The read view routes by descending its published copy of the
//! calibrator's min keys, the descent the locked `DenseFile::get` runs.
//! On a quiescent view, then, every point get and every collection with a
//! limit the file can fill must answer `Ok`, and equal the locked read,
//! however the records sit in the slots: packed into a prefix by
//! incremental ingest (ascending, descending or random order), spread by a
//! bulk load, or behind long runs of empty slots left by removing a
//! prefix, a suffix or a middle of the keys. The extreme keys `0` and
//! `u64::MAX` are probed in every layout, and stored in some.
//!
//! The last case packs an 8192-slot CONTROL 2 shard the way a served
//! store's incremental preload does (distinct uniform keys, half the
//! capacity, 4096-command batches), over several seeds of the key set.

use std::ops::Bound;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use willard_dsf::{Command, DenseFile, DenseFileConfig, ReadView};

type File = DenseFile<u64, u64>;

/// 2048 slots: long empty runs exceed the 1024 slots a collection may
/// hold in one window.
fn cfg() -> DenseFileConfig {
    DenseFileConfig::control2(2048, 8, 48)
}

const N: u64 = 6_000;

fn value(k: u64) -> u64 {
    k ^ 0x5a5a
}

/// `N` keys evenly spaced over the `u64` range, ascending, with `0` and
/// `u64::MAX` among them iff `extremes`.
fn spaced(extremes: bool) -> Vec<u64> {
    let step = u64::MAX / (N + 1);
    let mut keys: Vec<u64> = (1..=N).map(|i| i * step).collect();
    if extremes {
        keys[0] = 0;
        keys[N as usize - 1] = u64::MAX;
    }
    keys
}

/// A file with a view, filled one command at a time in `order`.
fn incremental(order: &[u64]) -> (File, ReadView<u64, u64>) {
    let mut f = File::new(cfg()).unwrap();
    let view = f.enable_optimistic_reads();
    for &k in order {
        f.insert(k, value(k)).unwrap();
    }
    (f, view)
}

/// Every record of `f` and a neighbourhood of keys around each sampled one.
fn probes(f: &File, rng: &mut SmallRng) -> Vec<u64> {
    let keys: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
    let mut out = vec![0, 1, u64::MAX - 1, u64::MAX];
    out.extend(&keys);
    for k in keys.iter().step_by(97) {
        out.extend([k.wrapping_sub(1), k.wrapping_add(1)]);
    }
    out.extend((0..64).map(|_| rng.next_u64()));
    out
}

fn locked(f: &File, start: Bound<u64>, limit: usize) -> Vec<(u64, u64)> {
    f.range((start, Bound::Unbounded))
        .take(limit)
        .map(|(k, v)| (*k, *v))
        .collect()
}

/// Every get, and collections of 1 and 64 records from every 13th probe,
/// answer `Ok` with exactly what the locked file holds.
fn check(f: &File, view: &ReadView<u64, u64>, layout: &str, rng: &mut SmallRng) {
    assert!(f.len() >= 64, "{layout}: every limit must be fillable");
    let probes = probes(f, rng);
    for &k in &probes {
        assert_eq!(
            view.try_get(&k),
            Ok(f.get(&k).copied()),
            "{layout}: get({k})"
        );
    }
    let starts = probes.iter().step_by(13).chain(&[0, u64::MAX]);
    for &k in starts {
        for start in [Bound::Included(k), Bound::Excluded(k)] {
            for limit in [1, 64] {
                assert_eq!(
                    view.try_collect_range_limited(start, Bound::Unbounded, limit),
                    Ok(locked(f, start, limit)),
                    "{layout}: collect({start:?}.., {limit})"
                );
            }
        }
    }
    assert_eq!(view.records(), f.len(), "{layout}");
}

#[test]
fn incremental_ingest_in_any_order_never_declines() {
    let mut rng = SmallRng::seed_from_u64(1);
    for extremes in [false, true] {
        let asc = spaced(extremes);
        let desc: Vec<u64> = asc.iter().rev().copied().collect();
        let mut random = asc.clone();
        random.shuffle(&mut rng);
        for (name, order) in [("ascending", asc), ("descending", desc), ("random", random)] {
            let (f, view) = incremental(&order);
            check(&f, &view, &format!("{name}, extremes {extremes}"), &mut rng);
        }
    }
}

#[test]
fn a_hollowed_out_prefix_suffix_or_middle_never_declines() {
    let mut rng = SmallRng::seed_from_u64(2);
    let n = N as usize;
    let hollows = [
        ("prefix", 0..n * 4 / 5),
        ("suffix", n / 5..n),
        ("middle", n / 10..n * 9 / 10),
    ];
    for extremes in [false, true] {
        for (name, hollow) in hollows.clone() {
            let keys = spaced(extremes);
            let (mut f, view) = incremental(&keys);
            for k in &keys[hollow] {
                assert_eq!(f.remove(k), Some(value(*k)));
            }
            check(
                &f,
                &view,
                &format!("hollow {name}, extremes {extremes}"),
                &mut rng,
            );
        }
    }
}

#[test]
fn a_bulk_loaded_file_never_declines() {
    let mut rng = SmallRng::seed_from_u64(3);
    for extremes in [false, true] {
        let mut f = File::new(cfg()).unwrap();
        f.bulk_load(spaced(extremes).into_iter().map(|k| (k, value(k))))
            .unwrap();
        let view = f.enable_optimistic_reads();
        check(&f, &view, &format!("bulk, extremes {extremes}"), &mut rng);
    }
}

#[test]
fn a_preload_packed_8192_slot_shard_never_declines() {
    let cfg = DenseFileConfig::control2(1 << 14, 8, 48);
    assert_eq!(cfg.resolve().unwrap().slots, 8192);
    for seed in [21u64, 22, 23] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut f = File::new(cfg).unwrap();
        let view = f.enable_optimistic_reads();
        let fill = f.capacity() / 2;
        let mut keys = std::collections::HashSet::new();
        while (keys.len() as u64) < fill {
            keys.insert(rng.gen_range(0..u64::MAX / 2));
        }
        let mut order: Vec<u64> = keys.into_iter().collect();
        order.sort_unstable();
        order.shuffle(&mut rng);
        for chunk in order.chunks(4096) {
            let cmds: Vec<Command<u64, u64>> = chunk
                .iter()
                .map(|&k| Command::Insert(k, value(k)))
                .collect();
            f.apply_batch(&cmds);
        }
        assert_eq!(f.len(), fill);
        check(&f, &view, &format!("preload seed {seed}"), &mut rng);
    }
}

/// A collection that crosses a hollow of 4096 empty slots jumps it by the
/// published nonempty flags, and still answers exactly the locked scan:
/// with limits that stop just past the hollow or run to the range's end,
/// and from starts before, inside and after it.
#[test]
fn a_collection_across_a_4096_slot_hollow_equals_the_locked_scan() {
    let cfg = DenseFileConfig::control2(1 << 14, 8, 48);
    let slots = cfg.resolve().unwrap().slots as u64;
    assert_eq!(slots, 8192);
    let (lo, hi) = (2048, 2048 + 4096);
    let layout: Vec<Vec<(u64, u64)>> = (0..slots)
        .map(|s| {
            let n = if (lo..hi).contains(&s) { 0 } else { 3 };
            (0..n).map(|i| (s * 10 + i, value(s * 10 + i))).collect()
        })
        .collect();
    let mut f = File::new(cfg).unwrap();
    f.bulk_load_per_slot(layout).unwrap();
    let view = f.enable_optimistic_reads();
    let last_before = lo * 10 - 8;
    let starts = [
        last_before - 30,
        last_before,
        lo * 10,
        (lo + hi) * 5,
        hi * 10 - 1,
        hi * 10,
    ];
    for k in starts {
        for start in [Bound::Included(k), Bound::Excluded(k)] {
            for limit in [1, 4, 64, 600] {
                let want: Vec<(u64, u64)> = f
                    .range((start, Bound::Included(hi * 10 + 200)))
                    .take(limit)
                    .map(|(k, v)| (*k, *v))
                    .collect();
                assert_eq!(
                    view.try_collect_range_limited(start, Bound::Included(hi * 10 + 200), limit),
                    Ok(want),
                    "collect({start:?}..={}, {limit})",
                    hi * 10 + 200
                );
            }
        }
    }
    // A whole-file collection with no limit spans the hollow too.
    let all: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(all.len(), 3 * 4096);
    assert_eq!(
        view.try_collect_range_limited(Bound::Unbounded, Bound::Unbounded, 600),
        Ok(all[..600].to_vec())
    );
}
