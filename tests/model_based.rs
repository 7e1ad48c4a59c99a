//! Model-based property tests: every structure in the workspace, driven by
//! random operation sequences, must behave exactly like
//! `std::collections::BTreeMap` — and the dense file must additionally hold
//! every paper invariant after every command.

use proptest::prelude::*;
use std::collections::BTreeMap;
use willard_dsf::{
    AmortizedPma, BPlusTree, BTreeConfig, DenseFile, DenseFileConfig, DsfError, DurableFile,
    MacroBlocking, NaiveSequentialFile, PmaConfig, SyncPolicy,
};

/// A compact op encoding for proptest.
///
/// `Sync`, `Checkpoint`, and `Reopen` only act on [`DurableFile`]; the
/// in-memory structures treat them as no-ops so one op vocabulary drives
/// every model test.
#[derive(Debug, Clone, Copy)]
enum MOp {
    Insert(u16, u8),
    Remove(u16),
    Get(u16),
    Sync,
    Checkpoint,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = MOp> {
    prop_oneof![
        3 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| MOp::Insert(k, v)),
        2 => any::<u16>().prop_map(MOp::Remove),
        1 => any::<u16>().prop_map(MOp::Get),
    ]
}

/// The durable-file vocabulary: mutations plus durability boundaries and
/// full process-restart round-trips.
fn durable_op_strategy() -> impl Strategy<Value = MOp> {
    prop_oneof![
        6 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| MOp::Insert(k, v)),
        4 => any::<u16>().prop_map(MOp::Remove),
        2 => any::<u16>().prop_map(MOp::Get),
        1 => Just(MOp::Sync),
        1 => Just(MOp::Checkpoint),
        1 => Just(MOp::Reopen),
    ]
}

fn check_against_model(
    f: &mut DenseFile<u16, u8>,
    model: &mut BTreeMap<u16, u8>,
    ops: &[MOp],
    check_every: usize,
) {
    for (i, op) in ops.iter().enumerate() {
        match *op {
            MOp::Insert(k, v) => {
                if model.contains_key(&k) || (model.len() as u64) < f.capacity() {
                    let got = f.insert(k, v).unwrap();
                    assert_eq!(got, model.insert(k, v), "insert({k}) disagreed");
                } else {
                    assert!(matches!(
                        f.insert(k, v),
                        Err(DsfError::CapacityExceeded { .. })
                    ));
                }
            }
            MOp::Remove(k) => assert_eq!(f.remove(&k), model.remove(&k), "remove({k}) disagreed"),
            MOp::Get(k) => assert_eq!(f.get(&k), model.get(&k), "get({k}) disagreed"),
            MOp::Sync | MOp::Checkpoint | MOp::Reopen => {} // durability ops: no-ops in memory
        }
        if i % check_every == 0 {
            if let Err(v) = f.check_invariants() {
                panic!("invariants broken at op #{i} ({op:?}): {v:?}");
            }
        }
    }
    if let Err(v) = f.check_invariants() {
        panic!("invariants broken at end: {v:?}");
    }
    // Full-content equivalence via an ordered scan.
    let got: Vec<(u16, u8)> = f.iter().map(|(k, v)| (*k, *v)).collect();
    let want: Vec<(u16, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want, "scan disagreed with the model");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// CONTROL 2, base regime.
    #[test]
    fn control2_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let cfg = DenseFileConfig::control2(32, 8, 48);
        let mut f: DenseFile<u16, u8> = DenseFile::new(cfg).unwrap();
        let mut model = BTreeMap::new();
        check_against_model(&mut f, &mut model, &ops, 7);
    }

    /// CONTROL 2 with a forced small J — still correct (contents-wise) even
    /// when the worst-case *bound* is configured tightly.
    #[test]
    fn control2_small_j_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let cfg = DenseFileConfig::control2(32, 8, 48).with_j(4);
        let mut f: DenseFile<u16, u8> = DenseFile::new(cfg).unwrap();
        let mut model = BTreeMap::new();
        check_against_model(&mut f, &mut model, &ops, 11);
    }

    /// CONTROL 2 in the macro-block regime (K > 1).
    #[test]
    fn control2_macroblock_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let cfg = DenseFileConfig::control2(64, 6, 8); // tiny gap → K > 1
        let mut f: DenseFile<u16, u8> = DenseFile::new(cfg).unwrap();
        prop_assert!(f.config().k > 1);
        let mut model = BTreeMap::new();
        check_against_model(&mut f, &mut model, &ops, 13);
    }

    /// CONTROL 1 (amortized).
    #[test]
    fn control1_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let cfg = DenseFileConfig::control1(32, 8, 48);
        let mut f: DenseFile<u16, u8> = DenseFile::new(cfg).unwrap();
        let mut model = BTreeMap::new();
        check_against_model(&mut f, &mut model, &ops, 7);
    }

    /// CONTROL 1 without the density-gap assumption (out-of-contract
    /// parameters): contents must still match even if redistribution has to
    /// iterate.
    #[test]
    fn control1_tight_gap_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..250)) {
        let cfg = DenseFileConfig::control1(32, 7, 9)
            .with_macro_blocking(MacroBlocking::Disabled);
        let mut f: DenseFile<u16, u8> = DenseFile::new(cfg).unwrap();
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                MOp::Insert(k, v) => {
                    if model.contains_key(&k) || (model.len() as u64) < f.capacity() {
                        assert_eq!(f.insert(k, v).unwrap(), model.insert(k, v));
                    }
                }
                MOp::Remove(k) => assert_eq!(f.remove(&k), model.remove(&k)),
                MOp::Get(k) => assert_eq!(f.get(&k), model.get(&k)),
                MOp::Sync | MOp::Checkpoint | MOp::Reopen => {}
            }
        }
        let got: Vec<(u16, u8)> = f.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// The B+-tree comparator.
    #[test]
    fn btree_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..500)) {
        let mut t: BPlusTree<u16, u8> = BPlusTree::new(BTreeConfig::with_page_capacity(8)).unwrap();
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                MOp::Insert(k, v) => assert_eq!(t.insert(k, v), model.insert(k, v)),
                MOp::Remove(k) => assert_eq!(t.remove(&k), model.remove(&k)),
                MOp::Get(k) => assert_eq!(t.get(&k), model.get(&k)),
                MOp::Sync | MOp::Checkpoint | MOp::Reopen => {}
            }
        }
        t.check_structure().map_err(TestCaseError::fail)?;
        let got: Vec<(u16, u8)> = t.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// The amortized PMA baseline.
    #[test]
    fn pma_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut p: AmortizedPma<u16, u8> =
            AmortizedPma::new(PmaConfig::for_pages(64, 16, 8)).unwrap();
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                MOp::Insert(k, v) => {
                    if model.contains_key(&k) || (model.len() as u64) < p.capacity() {
                        assert_eq!(p.insert(k, v).unwrap(), model.insert(k, v));
                    }
                }
                MOp::Remove(k) => assert_eq!(p.remove(&k), model.remove(&k)),
                MOp::Get(k) => assert_eq!(p.get(&k), model.get(&k)),
                MOp::Sync | MOp::Checkpoint | MOp::Reopen => {}
            }
        }
        p.check_structure().map_err(TestCaseError::fail)?;
        let mut got = Vec::new();
        p.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
        let want: Vec<(u16, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// The naive sequential file.
    #[test]
    fn naive_matches_btreemap(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut n: NaiveSequentialFile<u16, u8> = NaiveSequentialFile::new(8);
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                MOp::Insert(k, v) => assert_eq!(n.insert(k, v), model.insert(k, v)),
                MOp::Remove(k) => assert_eq!(n.remove(&k), model.remove(&k)),
                MOp::Get(k) => assert_eq!(n.get(&k), model.get(&k)),
                MOp::Sync | MOp::Checkpoint | MOp::Reopen => {}
            }
        }
        let mut got = Vec::new();
        n.scan_from(&0, usize::MAX, |k, v| got.push((*k, *v)));
        let want: Vec<(u16, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
    }

    /// Range scans agree with the model over arbitrary bounds.
    #[test]
    fn range_scans_match_model(
        keys in prop::collection::btree_set(any::<u16>(), 0..300),
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let cfg = DenseFileConfig::control2(32, 16, 64);
        let mut f: DenseFile<u16, u16> = DenseFile::new(cfg).unwrap();
        let mut model = BTreeMap::new();
        for &k in &keys {
            f.insert(k, k).unwrap();
            model.insert(k, k);
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let got: Vec<u16> = f.range(lo..hi).map(|(k, _)| *k).collect();
        let want: Vec<u16> = model.range(lo..hi).map(|(k, _)| *k).collect();
        prop_assert_eq!(got, want);
        let got: Vec<u16> = f.range(lo..=hi).map(|(k, _)| *k).collect();
        let want: Vec<u16> = model.range(lo..=hi).map(|(k, _)| *k).collect();
        prop_assert_eq!(got, want);
    }
}

// ----------------------------------------------------------------------
// DurableFile round-trips: the same model discipline, against real disk.
// ----------------------------------------------------------------------

/// A unique scratch directory under the build tree (never outside it).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    root.join("model-scratch")
        .join(format!("{tag}-{}-{n}", std::process::id()))
}

/// Drives a [`DurableFile`] through `ops` against the `BTreeMap` model.
///
/// Without injected faults every durability boundary is clean, so a reopen —
/// whether mid-trace or final — must recover *exactly* the model: under
/// `EveryCommand` because every command was fsynced, and under `Manual`
/// because an un-crashed process leaves the whole log readable even when
/// fsyncs were deferred. (Lost-suffix semantics under real crashes are the
/// fault-injection suite's department: `crates/durable/tests/fault_injection.rs`.)
fn run_durable_model(policy: SyncPolicy, tag: &str, ops: &[MOp]) -> Result<(), TestCaseError> {
    let dir = scratch_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DenseFileConfig::control2(32, 8, 48);
    let mut f: DurableFile<u16, u8> = DurableFile::create(&dir, cfg, policy).unwrap();
    let mut model = BTreeMap::new();
    for op in ops {
        match *op {
            MOp::Insert(k, v) => {
                if model.contains_key(&k) || (model.len() as u64) < f.capacity() {
                    let got = f.insert(k, v).unwrap();
                    prop_assert_eq!(got, model.insert(k, v));
                } else {
                    prop_assert!(f.insert(k, v).is_err(), "capacity breach accepted");
                }
            }
            MOp::Remove(k) => {
                prop_assert_eq!(f.remove(&k).unwrap(), model.remove(&k));
            }
            MOp::Get(k) => prop_assert_eq!(f.get(&k), model.get(&k)),
            MOp::Sync => f.sync().unwrap(),
            MOp::Checkpoint => f.checkpoint().unwrap(),
            MOp::Reopen => {
                drop(f);
                f = DurableFile::open(&dir, policy).unwrap();
                let got: Vec<(u16, u8)> = f.iter().map(|(k, v)| (*k, *v)).collect();
                let want: Vec<(u16, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(got, want, "reopen lost or invented commands");
                f.check_invariants().unwrap();
            }
        }
    }
    // Final process-restart round-trip.
    drop(f);
    let f: DurableFile<u16, u8> = DurableFile::open(&dir, policy).unwrap();
    let got: Vec<(u16, u8)> = f.iter().map(|(k, v)| (*k, *v)).collect();
    let want: Vec<(u16, u8)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    prop_assert_eq!(got, want, "final reopen disagreed with the model");
    f.check_invariants().unwrap();
    drop(f);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `EveryCommand`: every mutation is on disk the moment it returns.
    #[test]
    fn durable_every_command_matches_btreemap_across_reopens(
        ops in prop::collection::vec(durable_op_strategy(), 1..120),
    ) {
        run_durable_model(SyncPolicy::EveryCommand, "every", &ops)?;
    }

    /// `Manual`: fsyncs happen only at `Sync`/`Checkpoint`, but clean
    /// shutdowns still lose nothing.
    #[test]
    fn durable_manual_matches_btreemap_across_reopens(
        ops in prop::collection::vec(durable_op_strategy(), 1..120),
    ) {
        run_durable_model(SyncPolicy::Manual, "manual", &ops)?;
    }
}
