//! Property tests for the calibrator's warning bookkeeping and SELECT,
//! against brute-force reference implementations.

use dsf_core::calibrator::Calibrator;
use dsf_core::NodeId;
use proptest::prelude::*;

/// Brute-force SELECT: the paper's definition evaluated literally over all
/// nodes.
fn reference_select(cal: &Calibrator<u64>, slot: u32) -> Option<NodeId> {
    // Lowest ancestor α of the leaf with a warned proper descendant.
    let mut alpha = None;
    let mut a = cal.leaf_of(slot).parent()?;
    loop {
        let has_warned_proper_descendant = cal.all_nodes().into_iter().any(|n| {
            n != a && cal.is_warned(n) && {
                // n is a descendant of a?
                let (alo, ahi) = cal.range(a);
                let (nlo, nhi) = cal.range(n);
                alo <= nlo && nhi <= ahi && cal.width(n) < cal.width(a) && is_descendant(n, a)
            }
        });
        if has_warned_proper_descendant {
            alpha = Some(a);
            break;
        }
        match a.parent() {
            Some(p) => a = p,
            None => break,
        }
    }
    let alpha = alpha?;
    // Deepest warned proper descendant, leftmost tie-break (heap order at
    // equal depth is left-to-right).
    cal.all_nodes()
        .into_iter()
        .filter(|&n| n != alpha && cal.is_warned(n) && is_descendant(n, alpha))
        .max_by_key(|n| (n.depth(), std::cmp::Reverse(n.0)))
}

fn is_descendant(mut n: NodeId, ancestor: NodeId) -> bool {
    while let Some(p) = n.parent() {
        if p == ancestor {
            return true;
        }
        n = p;
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// SELECT agrees with the brute-force definition under arbitrary
    /// warning-flag states, including after raise/lower churn.
    #[test]
    fn select_matches_brute_force(
        slots in 2u32..40,
        flips in prop::collection::vec((any::<u32>(), any::<bool>()), 1..60),
        probe_slots in prop::collection::vec(any::<u32>(), 1..8),
    ) {
        let mut cal: Calibrator<u64> = Calibrator::new(slots, 1, 1000);
        let nodes = cal.all_nodes();
        let non_root: Vec<NodeId> =
            nodes.iter().copied().filter(|&n| n != NodeId::ROOT).collect();
        for &(idx, on) in &flips {
            let n = non_root[idx as usize % non_root.len()];
            cal.set_warning(n, on);
        }
        // warned_total agrees with a raw count.
        let brute_count =
            cal.all_nodes().iter().filter(|&&n| cal.is_warned(n)).count() as u32;
        prop_assert_eq!(cal.warned_total(), brute_count);

        for &ps in &probe_slots {
            let slot = ps % slots;
            let got = cal.select(slot);
            let want = reference_select(&cal, slot);
            // Depth must match exactly; the node itself must be a warned
            // deepest descendant (tie-break between equally deep nodes is
            // implementation-defined in the paper, pinned leftmost here).
            match (got, want) {
                (None, None) => {}
                (Some(g), Some(w)) => {
                    prop_assert_eq!(g.depth(), w.depth(), "depth for slot {}", slot);
                    prop_assert!(cal.is_warned(g));
                    prop_assert_eq!(g, w, "leftmost tie-break for slot {}", slot);
                }
                other => prop_assert!(false, "select disagreed: {:?}", other),
            }
        }
    }

    /// Counter/min-key propagation is consistent with a from-scratch
    /// rebuild after arbitrary incremental updates.
    #[test]
    fn incremental_updates_equal_rebuild(
        slots in 1u32..40,
        updates in prop::collection::vec((any::<u32>(), 0u64..50, any::<u64>()), 1..60),
    ) {
        let mut inc: Calibrator<u64> = Calibrator::new(slots, 1, 1000);
        let mut state: Vec<(u64, Option<u64>)> = vec![(0, None); slots as usize];
        for &(s, n, min) in &updates {
            let s = s % slots;
            let old = state[s as usize].0 as i64;
            let minv = if n > 0 { Some(min) } else { None };
            state[s as usize] = (n, minv);
            inc.add_count(s, n as i64 - old);
            inc.refresh_min(s, minv);
        }
        let mut rebuilt: Calibrator<u64> = Calibrator::new(slots, 1, 1000);
        for (s, &(n, min)) in state.iter().enumerate() {
            rebuilt.set_leaf_raw(s as u32, n, min);
        }
        rebuilt.recompute_subtree(NodeId::ROOT);
        for n in inc.all_nodes() {
            prop_assert_eq!(inc.count(n), rebuilt.count(n), "count at {:?}", n);
            prop_assert_eq!(inc.min_key(n), rebuilt.min_key(n), "min at {:?}", n);
        }
        prop_assert_eq!(inc.total(), rebuilt.total());
    }

    /// next_nonempty / prev_nonempty agree with linear scans, on trees up
    /// to ~300 slots (floor splits make every non-power-of-two ragged),
    /// over in-range windows, wholly empty windows, inverted windows and
    /// bounds at or past the last slot.
    #[test]
    fn nonempty_scans_match_linear(
        slots in 1u32..300,
        filled in prop::collection::btree_set(any::<u32>(), 0..160),
        queries in prop::collection::vec((any::<u32>(), any::<u32>()), 1..10),
        raw_queries in prop::collection::vec((0u32..320, 0u32..320), 1..10),
    ) {
        let mut cal: Calibrator<u64> = Calibrator::new(slots, 1, 1000);
        let filled: Vec<u32> = filled.into_iter().map(|s| s % slots).collect();
        for &s in &filled {
            if cal.count(cal.leaf_of(s)) == 0 {
                cal.add_count(s, 2);
                cal.refresh_min(s, Some(u64::from(s)));
            }
        }
        for &(a, b) in &queries {
            let (lo, hi) = ((a % slots).min(b % slots), (a % slots).max(b % slots));
            let want_next = (lo..=hi).find(|&s| filled.contains(&s));
            prop_assert_eq!(cal.next_nonempty(lo, hi), want_next);
            let want_prev = (lo..=hi).rev().find(|&s| filled.contains(&s));
            prop_assert_eq!(cal.prev_nonempty(lo, hi), want_prev);
        }
        // Unclamped bounds: `lo > hi` is an empty window, and slots past
        // the last one hold nothing.
        for &(lo, hi) in &raw_queries {
            let window = lo..=hi.min(slots - 1);
            let want_next = window.clone().find(|&s| filled.contains(&s));
            prop_assert_eq!(cal.next_nonempty(lo, hi), want_next, "next({}, {})", lo, hi);
            let want_prev = window.rev().find(|&s| filled.contains(&s));
            prop_assert_eq!(cal.prev_nonempty(lo, hi), want_prev, "prev({}, {})", lo, hi);
        }
        // Every maximal run of empty slots: nothing inside it, and the
        // nearest records on either side across it.
        let mut gap_lo = 0;
        while gap_lo < slots {
            if filled.contains(&gap_lo) {
                gap_lo += 1;
                continue;
            }
            let mut gap_hi = gap_lo;
            while gap_hi + 1 < slots && !filled.contains(&(gap_hi + 1)) {
                gap_hi += 1;
            }
            prop_assert_eq!(cal.next_nonempty(gap_lo, gap_hi), None);
            prop_assert_eq!(cal.prev_nonempty(gap_lo, gap_hi), None);
            let after = (gap_hi + 1 < slots).then_some(gap_hi + 1);
            prop_assert_eq!(cal.next_nonempty(gap_lo, slots - 1), after);
            let before = gap_lo.checked_sub(1);
            prop_assert_eq!(cal.prev_nonempty(0, gap_hi), before);
            gap_lo = gap_hi + 1;
        }
    }

    /// find_slot is the greatest non-empty slot whose minimum is ≤ key,
    /// else slot 0, and find_slot_hinted agrees with it for any hint.
    #[test]
    fn find_slot_matches_linear(
        counts in prop::collection::vec(0u64..3, 1..300),
        probes in prop::collection::vec(0u64..3010, 1..16),
        hints in prop::collection::vec(0u32..310, 1..8),
    ) {
        let slots = counts.len() as u32;
        let mut cal: Calibrator<u64> = Calibrator::new(slots, 1, 1000);
        // Slot s holds keys 10s+1..: minima ascend across slots.
        let min_of = |s: u32| (counts[s as usize] > 0).then_some(10 * u64::from(s) + 1);
        for s in 0..slots {
            cal.set_leaf_raw(s, counts[s as usize], min_of(s));
        }
        cal.recompute_subtree(NodeId::ROOT);
        for &key in &probes {
            let want = (0..slots)
                .rev()
                .find(|&s| min_of(s).is_some_and(|m| m <= key))
                .unwrap_or(0);
            prop_assert_eq!(cal.find_slot(&key), want, "key {}", key);
            // Random hints, and the ones a sorted batch would pass.
            let near = [want.saturating_sub(1), want, want + 1];
            for hint in hints.iter().copied().chain(near) {
                prop_assert_eq!(cal.find_slot_hinted(&key, hint), want, "key {} hint {}", key, hint);
            }
        }
    }
}
