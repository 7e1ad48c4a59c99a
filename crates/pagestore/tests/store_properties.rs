//! Property tests for the paged store: every slot operation must agree
//! with a plain sorted-`Vec` model, and the page-access accounting must
//! obey its documented bounds.

use dsf_pagestore::{AccessKind, End, PagedStore, Record, StoreConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum SlotOp {
    Insert(u16, u8),
    Remove(u16),
    Get(u16),
    TakeFront(u8),
    TakeBack(u8),
    TakeAll,
}

fn op_strategy() -> impl Strategy<Value = SlotOp> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| SlotOp::Insert(k, v)),
        2 => any::<u16>().prop_map(SlotOp::Remove),
        2 => any::<u16>().prop_map(SlotOp::Get),
        1 => any::<u8>().prop_map(SlotOp::TakeFront),
        1 => any::<u8>().prop_map(SlotOp::TakeBack),
        1 => Just(SlotOp::TakeAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// One slot, arbitrary op sequences, checked against a Vec model. Moves
    /// go to an empty neighbour (slot 0 for `Front`, slot 2 for `Back`),
    /// which is then drained to compare what left.
    #[test]
    fn slot_ops_match_model(
        k in 1u32..5,
        cap in 1u32..20,
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        let mut st: PagedStore<u16, u8> = PagedStore::new(StoreConfig {
            slots: 3,
            pages_per_slot: k,
            page_capacity: cap,
        }).unwrap();
        let mut model: Vec<Record<u16, u8>> = Vec::new();
        for op in &ops {
            match *op {
                SlotOp::Insert(key, v) => {
                    let got = st.insert(1, key, v);
                    let want = match model.binary_search_by(|r| r.key.cmp(&key)) {
                        Ok(i) => Some(std::mem::replace(&mut model[i].value, v)),
                        Err(i) => {
                            model.insert(i, Record::new(key, v));
                            None
                        }
                    };
                    prop_assert_eq!(got, want);
                }
                SlotOp::Remove(key) => {
                    let got = st.remove(1, &key);
                    let want = match model.binary_search_by(|r| r.key.cmp(&key)) {
                        Ok(i) => Some(model.remove(i).value),
                        Err(_) => None,
                    };
                    prop_assert_eq!(got, want);
                }
                SlotOp::Get(key) => {
                    let want = model
                        .binary_search_by(|r| r.key.cmp(&key))
                        .ok()
                        .map(|i| model[i].value);
                    prop_assert_eq!(st.get(1, &key).copied(), want);
                }
                SlotOp::TakeFront(n) => {
                    let n = n as usize;
                    let take = n.min(model.len());
                    prop_assert_eq!(st.move_records(1, 0, n, End::Front), take);
                    prop_assert_eq!(st.total_records(), model.len());
                    let got = st.take_all(0);
                    let want: Vec<Record<u16, u8>> = model.drain(..take).collect();
                    prop_assert_eq!(got, want);
                }
                SlotOp::TakeBack(n) => {
                    let n = n as usize;
                    let split = model.len() - n.min(model.len());
                    prop_assert_eq!(st.move_records(1, 2, n, End::Back), model.len() - split);
                    prop_assert_eq!(st.total_records(), model.len());
                    let got = st.take_all(2);
                    let want: Vec<Record<u16, u8>> = model.split_off(split);
                    prop_assert_eq!(got, want);
                }
                SlotOp::TakeAll => {
                    let got = st.take_all(1);
                    let want: Vec<Record<u16, u8>> = std::mem::take(&mut model);
                    prop_assert_eq!(got, want);
                }
            }
            // Metadata always agrees with the model.
            prop_assert_eq!(st.len(1), model.len());
            prop_assert_eq!(st.min_key(1), model.first().map(|r| r.key));
            prop_assert_eq!(st.max_key(1), model.last().map(|r| r.key));
            prop_assert_eq!(st.total_records(), model.len());
        }
        // read_page partitions the slot exactly.
        let mut reassembled: Vec<Record<u16, u8>> = Vec::new();
        for p in 0..k {
            reassembled.extend(st.read_page(1, p).iter().cloned());
        }
        prop_assert_eq!(reassembled, model);
    }

    /// Charging bounds: every op touches at least one page when it moves
    /// data, and never more than the slot's page count per direction.
    #[test]
    fn charges_are_bounded(
        k in 1u32..5,
        cap in 1u32..16,
        keys in prop::collection::btree_set(any::<u16>(), 1..60),
    ) {
        let mut st: PagedStore<u16, u8> = PagedStore::new(StoreConfig {
            slots: 2,
            pages_per_slot: k,
            page_capacity: cap,
        }).unwrap();
        for &key in &keys {
            let snap = st.stats().snapshot();
            st.insert(0, key, 0);
            let d = st.stats().since(snap);
            prop_assert!(d.writes >= 1, "an insert writes at least one page");
            prop_assert!(
                d.writes <= u64::from(k) && d.reads <= u64::from(k),
                "an insert touches at most the slot: {:?}", d
            );
        }
        // Moving all of slot 0 into slot 1: SOURCE is read and written on
        // ≤ k pages each, DEST written on between 1 and k pages and never
        // read. The trace splits the charges by slot (slot 0 is pages 0..k).
        let snap = st.stats().snapshot();
        let n = st.len(0);
        st.trace().set_enabled(true);
        prop_assert_eq!(st.move_records(0, 1, n, End::Front), n);
        let evs = st.trace().take();
        let count = |source: bool, kind: AccessKind| {
            evs.iter().filter(|e| (e.page < u64::from(k)) == source && e.kind == kind).count() as u64
        };
        prop_assert!(count(true, AccessKind::Read) <= u64::from(k));
        prop_assert!(count(true, AccessKind::Write) <= u64::from(k));
        prop_assert!(count(false, AccessKind::Write) >= u64::from(n > 0));
        prop_assert!(count(false, AccessKind::Write) <= u64::from(k));
        prop_assert_eq!(count(false, AccessKind::Read), 0);
        let d = st.stats().since(snap);
        prop_assert_eq!(d.accesses(), evs.len() as u64);
        prop_assert_eq!(st.len(1), n);
    }

    /// Moves between two adjacent slots in both directions, against a
    /// model of one sorted sequence split at a boundary: a `Front` move of
    /// slot 1's lowest keys into slot 0 raises the boundary, a `Back` move
    /// of slot 0's highest keys into slot 1 lowers it. Each move charges
    /// SOURCE's read span, SOURCE's write span, then DEST's write span.
    #[test]
    fn moves_between_neighbours_match_model(
        k in 1u32..5,
        cap in 1u32..8,
        keys in prop::collection::btree_set(any::<u16>(), 0..60),
        start in 0usize..61,
        moves in prop::collection::vec((any::<bool>(), 0usize..20), 1..40),
    ) {
        let mut st: PagedStore<u16, u8> = PagedStore::new(StoreConfig {
            slots: 2,
            pages_per_slot: k,
            page_capacity: cap,
        }).unwrap();
        let all: Vec<u16> = keys.into_iter().collect();
        let mut b = start.min(all.len());
        st.replace(0, all[..b].iter().map(|&x| Record::new(x, 0)).collect());
        st.replace(1, all[b..].iter().map(|&x| Record::new(x, 0)).collect());
        // Distinct physical pages spanned by record indices lo..hi of a slot.
        let pages = |lo: usize, hi: usize| -> u64 {
            if lo >= hi {
                return 0;
            }
            let page = |i: usize| (i as u64 / u64::from(cap)).min(u64::from(k) - 1);
            page(hi - 1) - page(lo) + 1
        };
        for (front, n) in moves {
            let (left, right) = (b, all.len() - b);
            let snap = st.stats().snapshot();
            let (m, got) = if front {
                let m = n.min(right);
                (m, st.move_records(1, 0, n, End::Front))
            } else {
                let m = n.min(left);
                (m, st.move_records(0, 1, n, End::Back))
            };
            prop_assert_eq!(got, m);
            let (reads, writes) = match (front, m) {
                (_, 0) => (0, 0),
                (true, m) => (pages(0, m), pages(0, right) + pages(left.saturating_sub(1), left + m)),
                (false, m) => (pages(left - m, left), pages(left - m, left) + pages(0, right + m)),
            };
            if front {
                b += m;
            } else {
                b -= m;
            }
            let d = st.stats().since(snap);
            prop_assert_eq!((d.reads, d.writes), (reads, writes));
            let slot = |s: u32| st.peek_slot(s).iter().map(|r| r.key).collect::<Vec<_>>();
            prop_assert_eq!(slot(0), all[..b].to_vec());
            prop_assert_eq!(slot(1), all[b..].to_vec());
            prop_assert_eq!(st.total_records(), all.len());
        }
    }

    /// Transient overflow: the last page absorbs records beyond k·cap and
    /// geometry stays coherent.
    #[test]
    fn soft_overflow_is_coherent(
        k in 1u32..4,
        cap in 1u32..8,
        extra in 0u32..10,
    ) {
        let mut st: PagedStore<u32, ()> = PagedStore::new(StoreConfig {
            slots: 1,
            pages_per_slot: k,
            page_capacity: cap,
        }).unwrap();
        let n = k * cap + extra;
        let recs: Vec<Record<u32, ()>> = (0..n).map(|i| Record::new(i, ())).collect();
        st.replace(0, recs);
        prop_assert_eq!(st.len(0), n as usize);
        prop_assert!(st.pages_used(0) <= k);
        let mut total = 0;
        for p in 0..k {
            total += st.read_page(0, p).len();
        }
        prop_assert_eq!(total, n as usize);
        // The overflow sits on the last page.
        if extra > 0 && k > 0 {
            prop_assert_eq!(st.read_page(0, k - 1).len() as u32, cap + extra);
        }
    }

    /// `redistribute(first, width)` leaves the same records in the same
    /// order, evenly spread (slot `first + i` holds `n·(i+1)/w − n·i/w`),
    /// touches no slot outside the range, and charges, event for event,
    /// what `take_all` on each slot followed by `spread` charges.
    #[test]
    fn redistribute_is_take_all_then_spread(
        k in 1u32..5,
        cap in 1u32..8,
        keys in prop::collection::btree_set(any::<u16>(), 0..120),
        cuts in prop::collection::vec(0usize..121, 5..6),
        first in 0u32..6,
        width in 1u32..7,
    ) {
        let width = width.min(6 - first);
        let all: Vec<u16> = keys.into_iter().collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(all.len())).collect();
        cuts.sort_unstable();
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(cuts)
            .chain(std::iter::once(all.len()))
            .collect();
        let build = || {
            let mut st: PagedStore<u16, u16> = PagedStore::new(StoreConfig {
                slots: 6,
                pages_per_slot: k,
                page_capacity: cap,
            }).unwrap();
            for (s, w) in bounds.windows(2).enumerate() {
                st.replace(s as u32, all[w[0]..w[1]].iter().map(|&x| Record::new(x, x ^ 7)).collect());
            }
            st.trace().set_enabled(true);
            st
        };
        let span = first..first + width;
        let contents = |st: &PagedStore<u16, u16>, s: u32| {
            st.peek_slot(s).iter().map(|r| (r.key, r.value)).collect::<Vec<_>>()
        };

        let mut by_hand = build();
        let snap = by_hand.stats().snapshot();
        let mut drained = Vec::new();
        for s in span.clone() {
            drained.extend(by_hand.take_all(s));
        }
        let n = drained.len();
        by_hand.spread(first, width, n, drained).unwrap();
        let want = by_hand.stats().since(snap);

        let mut st = build();
        let before: Vec<_> = (0..6).map(|s| contents(&st, s)).collect();
        let snap = st.stats().snapshot();
        st.redistribute(first, width);
        let got = st.stats().since(snap);

        prop_assert_eq!((got.reads, got.writes), (want.reads, want.writes));
        prop_assert_eq!(st.trace().take(), by_hand.trace().take());
        prop_assert_eq!(st.trace().take_runs(), by_hand.trace().take_runs());
        let mut spread = Vec::new();
        for (i, s) in span.clone().enumerate() {
            let i = i as u64;
            let w = u64::from(width);
            prop_assert_eq!(st.len(s) as u64, n as u64 * (i + 1) / w - n as u64 * i / w);
            spread.extend(contents(&st, s));
        }
        let expected: Vec<_> = span.clone().flat_map(|s| before[s as usize].clone()).collect();
        prop_assert_eq!(spread, expected);
        for s in (0..6).filter(|s| !span.contains(s)) {
            prop_assert_eq!(contents(&st, s), before[s as usize].clone());
        }
        prop_assert_eq!(st.total_records(), all.len());
    }
}
