//! The streamed bulk load: records move from the input straight into their
//! slots, slot `i` of `M` receiving records `[n·i/M, n·(i+1)/M)`, whether
//! the input's size hint is exact (streamed) or not (collected first). A
//! failed load — out-of-order keys, or an input that breaks its exact size
//! hint — leaves the file empty, its calibrator zeroed, nothing charged,
//! and ready for another load.

use dsf_core::{BulkLoadError, DenseFile, DenseFileConfig, DsfError, MacroBlocking};

/// A CONTROL 2 file of exactly `m` slots (`K = 1`), capacity `4m`.
fn file(m: u32) -> DenseFile<u64, u64> {
    let cfg = DenseFileConfig::control2(m, 4, 64).with_macro_blocking(MacroBlocking::Disabled);
    let f = DenseFile::new(cfg).unwrap();
    assert_eq!(f.config().slots, m);
    f
}

fn key(i: u64) -> u64 {
    i * 3 + 1
}

/// `n` ascending records with an exact size hint.
fn exact(n: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..n).map(|i| (key(i), i))
}

/// The same records behind a `filter`, whose size hint is not exact.
fn inexact(n: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..n).filter(|_| true).map(|i| (key(i), i))
}

/// Slot `i` of `M` holds `n·(i+1)/M − n·i/M` records, the file holds the
/// `n` records in order, and every invariant holds.
fn assert_even_spread(f: &DenseFile<u64, u64>, n: u64) {
    let m = u64::from(f.config().slots);
    for (i, c) in f.slot_counts().into_iter().enumerate() {
        let i = i as u64;
        assert_eq!(c, n * (i + 1) / m - n * i / m, "slot {i} of {m}, n = {n}");
    }
    assert_eq!(f.len(), n);
    assert!(f.iter().map(|(k, v)| (*k, *v)).eq(exact(n)));
    f.check_invariants()
        .unwrap_or_else(|v| panic!("M = {m}, n = {n}: {v:?}"));
}

/// What a failed load must leave: no records, every calibrator leaf and
/// the root at zero, and not one page access charged since `accesses`.
fn assert_untouched(f: &DenseFile<u64, u64>, accesses: u64) {
    assert!(f.is_empty());
    assert!(f.slot_counts().iter().all(|&c| c == 0));
    let cal = f.calibrator();
    assert_eq!(cal.total(), 0);
    assert!((0..f.config().slots).all(|s| cal.count(cal.leaf_of(s)) == 0));
    assert_eq!(f.io_stats().accesses(), accesses);
    f.check_invariants().unwrap();
}

#[test]
fn per_slot_counts_follow_the_even_spread() {
    for m in [1u32, 2, 3, 7, 8, 1000, 1 << 14] {
        let cap = u64::from(m) * 4;
        for n in [0, 1, u64::from(m) - 1, u64::from(m), cap] {
            let mut f = file(m);
            f.bulk_load(exact(n)).unwrap();
            assert_even_spread(&f, n);
            let streamed = f.io_stats().accesses();

            let mut g = file(m);
            g.bulk_load(inexact(n)).unwrap();
            assert_even_spread(&g, n);
            assert_eq!(g.slot_counts(), f.slot_counts());
            assert_eq!(g.io_stats().accesses(), streamed, "both paths charge alike");
        }
    }
}

/// One case at the benchmark's scale, `M = 2^20`, with a record count that
/// is not a multiple of `M` so that slots differ by one.
#[test]
fn even_spread_at_two_to_the_twenty_slots() {
    let m = 1u32 << 20;
    let n = 3 * u64::from(m) + 12_345;
    let mut f = file(m);
    f.bulk_load(exact(n)).unwrap();
    // One write per page (every page holds 3 or 4 records), nothing read.
    assert_eq!(f.io_stats().writes(), u64::from(m));
    assert_eq!(f.io_stats().reads(), 0);
    assert_even_spread(&f, n);
}

#[test]
fn not_sorted_at_the_last_record_leaves_the_file_untouched() {
    const N: u64 = 100_000;
    let unsorted = |i: u64| if i == N - 1 { (0, i) } else { (key(i), i) };
    for streamed in [true, false] {
        let mut f = file(1 << 15);
        // A command's charges before the load, so "unchanged" is not zero.
        f.insert(7, 7).unwrap();
        f.remove(&7);
        let before = f.io_stats().accesses();
        assert!(before > 0);
        let got = if streamed {
            f.bulk_load((0..N).map(unsorted))
        } else {
            f.bulk_load((0..N).filter(|_| true).map(unsorted))
        };
        assert_eq!(
            got,
            Err(DsfError::BulkLoad(BulkLoadError::NotSorted {
                index: N as usize - 1
            }))
        );
        assert_untouched(&f, before);
        f.bulk_load(exact(N)).unwrap();
        assert_even_spread(&f, N);
    }
}

/// An iterator that claims an exact length it does not have.
struct Claims {
    inner: std::ops::Range<u64>,
    claim: usize,
}

impl Iterator for Claims {
    type Item = (u64, u64);
    fn next(&mut self) -> Option<(u64, u64)> {
        self.inner.next().map(|i| (key(i), i))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.claim, Some(self.claim))
    }
}

#[test]
fn an_input_that_breaks_its_exact_hint_is_refused() {
    // (records yielded, length claimed, `yielded` in the error)
    for (actual, claim, yielded) in [
        (1000u64, 999usize, 1000u64), // ran long: stops one past the claim
        (1000, 1, 2),
        (1000, 0, 1),
        (999, 1000, 999), // ran short: the whole input was drawn
        (0, 5, 0),
    ] {
        let mut f = file(512);
        let got = f.bulk_load(Claims {
            inner: 0..actual,
            claim,
        });
        assert_eq!(
            got,
            Err(DsfError::BulkLoad(BulkLoadError::LengthMismatch {
                hinted: claim as u64,
                yielded
            })),
            "{actual} records claiming {claim}"
        );
        assert_untouched(&f, 0);
        f.bulk_load(exact(actual)).unwrap();
        assert_even_spread(&f, actual);
    }
    // The claim is what the capacity check sees: no record is drawn.
    let mut f = file(4);
    assert_eq!(
        f.bulk_load(Claims {
            inner: 0..3,
            claim: 17
        }),
        Err(DsfError::BulkLoad(BulkLoadError::TooMany {
            records: 17,
            capacity: 16
        }))
    );
    assert_untouched(&f, 0);
}

#[test]
fn rebuild_streams_into_an_even_spread() {
    let mut f = file(64);
    f.bulk_load(exact(200)).unwrap();
    for i in 0..50 {
        f.remove(&key(i * 4));
        f.insert(key(i * 4 + 1) + 1, 0).unwrap();
    }
    let before: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
    let cfg = DenseFileConfig::control2(100, 4, 64).with_macro_blocking(MacroBlocking::Disabled);
    let g = f.rebuild_into(cfg).unwrap();
    assert!(g.iter().map(|(k, v)| (*k, *v)).eq(before));
    let m = u64::from(g.config().slots);
    let n = g.len();
    for (i, c) in g.slot_counts().into_iter().enumerate() {
        let i = i as u64;
        assert_eq!(c, n * (i + 1) / m - n * i / m);
    }
    g.check_invariants().unwrap();
}
