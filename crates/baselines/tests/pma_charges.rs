//! Golden page charges of [`AmortizedPma`] on one fixed stream.
//!
//! The PMA is E2's and E5's amortized comparator, so its charges are part
//! of what those experiments print. This test pins them: a bulk-loaded
//! backbone, a hammer on one key gap (window rebalances), removes that
//! empty segments (sparse-window rebalances), and a few gets and scans.
//! Every count is a delta taken after the load, so it is independent of
//! what loading charges.

use dsf_baselines::{AmortizedPma, PmaConfig};

/// Reads, writes and the costliest single operation of one phase.
#[derive(Debug, PartialEq, Eq)]
struct Phase {
    reads: u64,
    writes: u64,
    worst: u64,
}

/// Runs `ops` one at a time, checking the structure after each, and
/// returns the phase's charges.
fn phase<T>(
    p: &mut AmortizedPma<u64, u64>,
    ops: impl IntoIterator<Item = T>,
    mut op: impl FnMut(&mut AmortizedPma<u64, u64>, T),
) -> Phase {
    let start = p.stats().snapshot();
    let mut worst = 0;
    for t in ops {
        let snap = p.stats().snapshot();
        op(p, t);
        worst = worst.max(p.stats().since(snap).accesses());
        p.check_structure().unwrap();
    }
    let d = p.stats().since(start);
    Phase {
        reads: d.reads,
        writes: d.writes,
        worst,
    }
}

#[test]
fn pma_charges_match_the_golden_counts() {
    let mut p: AmortizedPma<u64, u64> = AmortizedPma::new(PmaConfig::for_pages(64, 16, 8)).unwrap();
    assert_eq!(p.capacity(), 512);
    p.bulk_load((0..256u64).map(|k| (k * 1000, k)));

    // 200 inserts into the gap after key 100_000: every one lands in the
    // same segment, so windows of growing height rebalance.
    let hammer = phase(&mut p, 0..200u64, |p, i| {
        assert_eq!(p.insert(100_001 + i, i).unwrap(), None);
    });
    // Replacements charge a read and a write each.
    let replace = phase(&mut p, 0..10u64, |p, i| {
        assert_eq!(p.insert(100_001 + i, 0).unwrap(), Some(i));
    });
    // Remove the backbone's upper half from the top down: segments empty
    // one by one, and each empty segment rebalances a sparse window.
    let removes = phase(&mut p, (128..256u64).rev(), |p, k| {
        assert_eq!(p.remove(&(k * 1000)), Some(k));
    });
    // Present and absent keys, then absent removes.
    let gets = phase(&mut p, 0..64u64, |p, k| {
        assert_eq!(p.get(&(k * 1000)), Some(&k));
        assert_eq!(p.get(&(k * 1000 + 1)), None);
        assert_eq!(p.remove(&(k * 1000 + 2)), None);
    });
    let mut seen = Vec::new();
    let scans = phase(
        &mut p,
        [(0u64, 10usize), (99_000, 100), (100_150, 40), (127_000, 50)],
        |p, (start, limit)| {
            let mut n = 0;
            p.scan_from(&start, limit, |_, _| n += 1);
            seen.push(n);
        },
    );
    assert_eq!(seen, [10, 100, 40, 1]);
    assert_eq!(p.len(), 328);

    // Recorded on the PMA's own segment vectors, before it was built on
    // `PagedStore`; the store must charge the same.
    let want = |reads, writes, worst| Phase {
        reads,
        writes,
        worst,
    };
    assert_eq!(hammer, want(554, 554, 130));
    assert_eq!(replace, want(10, 10, 2));
    assert_eq!(removes, want(375, 422, 65));
    assert_eq!(gets, want(192, 0, 3));
    assert_eq!(scans, want(28, 0, 16));
}
