//! The calibrator's shape is arithmetic on `M` and the heap index. These
//! tests check that arithmetic against a range table built the direct way
//! (splitting ranges on a stack), which lives only here.

use dsf_core::calibrator::{Calibrator, Geometry};
use dsf_core::{ceil_log2, NodeId};

/// The reference shape: each heap index's range (`None` where no node
/// exists) and each slot's leaf.
struct Table {
    range: Vec<Option<(u32, u32)>>,
    leaf: Vec<NodeId>,
}

fn table(slots: u32) -> Table {
    let mut range = vec![None; 1usize << (ceil_log2(slots) + 1)];
    let mut leaf = vec![NodeId(0); slots as usize];
    let mut stack = vec![(NodeId::ROOT, 0u32, slots - 1)];
    while let Some((n, lo, hi)) = stack.pop() {
        range[n.0 as usize] = Some((lo, hi));
        if lo == hi {
            leaf[lo as usize] = n;
        } else {
            let mid = lo + (hi - lo) / 2;
            stack.push((NodeId(2 * n.0), lo, mid));
            stack.push((NodeId(2 * n.0 + 1), mid + 1, hi));
        }
    }
    Table { range, leaf }
}

/// Every heap index of `geo` against the table (existence, width, range,
/// leafness) and every slot's leaf. Heap
/// indices past the heap are checked too, all of them up to twice the
/// heap for small trees.
fn check_geometry(geo: Geometry, t: &Table) {
    let m = geo.slots();
    let len = t.range.len() as u32;
    assert_eq!(geo.heap_len(), len as usize);
    let past = if m <= 64 { len } else { 4 };
    for i in 1..len + past {
        let n = NodeId(i);
        let want = t.range.get(i as usize).copied().flatten();
        assert_eq!(geo.exists(n), want.is_some(), "M={m} exists({i})");
        let Some((lo, hi)) = want else { continue };
        assert_eq!(geo.range(n), (lo, hi), "M={m} range({i})");
        assert_eq!(geo.width(n), u64::from(hi - lo) + 1);
        assert_eq!(geo.is_leaf(n), lo == hi);
    }
    for (s, &leaf) in t.leaf.iter().enumerate() {
        assert_eq!(geo.leaf_of(s as u32), leaf, "M={m} leaf_of({s})");
    }
}

#[test]
fn geometry_matches_the_range_table_for_every_m_up_to_4096() {
    for m in 1..=4096 {
        let t = table(m);
        check_geometry(Geometry::new(m), &t);

        // The calibrator answers from the same geometry, plus its leaf map.
        let cal: Calibrator<u64> = Calibrator::new(m, 1, 2);
        let nodes: Vec<NodeId> = (1..t.range.len() as u32)
            .map(NodeId)
            .filter(|n| t.range[n.0 as usize].is_some())
            .collect();
        assert_eq!(cal.all_nodes(), nodes, "M={m}");
        for &n in &nodes {
            let (lo, hi) = t.range[n.0 as usize].unwrap();
            assert_eq!(cal.children(n).is_none(), lo == hi);
            // `contains` at both edges of the range and just past them.
            for s in [lo.wrapping_sub(1), lo, hi, hi + 1] {
                if s < m {
                    assert_eq!(cal.contains(n, s), lo <= s && s <= hi, "M={m} {n:?} {s}");
                }
            }
        }
        for (s, &leaf) in t.leaf.iter().enumerate() {
            assert_eq!(cal.leaf_of(s as u32), leaf);
        }
    }
}

/// Ancestry is heap-index arithmetic, the same for every `M`: checked for
/// every pair of the first 2^11 indices against the parent chain.
#[test]
fn ancestry_matches_the_parent_chain() {
    for x in 1..1u32 << 11 {
        let chain: Vec<u32> = std::iter::successors(Some(NodeId(x)), |n| n.parent())
            .map(|n| n.0)
            .collect();
        for a in 1..1u32 << 11 {
            assert_eq!(
                NodeId(a).is_ancestor_of(NodeId(x)),
                chain.contains(&a),
                "{a} {x}"
            );
        }
    }
}

#[test]
fn geometry_matches_the_range_table_at_large_m() {
    for m in [1 << 20, (1 << 21) - 1] {
        check_geometry(Geometry::new(m), &table(m));
    }
}

/// A deterministic xorshift, so the walks below are the same every run.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Near `u32::MAX` slots no table fits in memory (2^33 heap entries), so
/// whatever `Geometry` answers there is arithmetic. Random root-to-leaf
/// walks carry the reference range down with the floor split and compare
/// every node on the way. Heap indices are `u32`, so the walks stop at
/// depth 31; at `M = 2^31` that is the leaf level.
#[test]
fn geometry_is_arithmetic_near_u32_max() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for m in [
        (1u32 << 31) - 1,
        1 << 31,
        (1 << 31) + 1,
        u32::MAX - 1,
        u32::MAX,
    ] {
        let geo = Geometry::new(m);
        assert_eq!(geo.width(NodeId::ROOT), u64::from(m));
        for _ in 0..64 {
            let (mut n, mut lo, mut hi) = (NodeId::ROOT, 0u64, u64::from(m) - 1);
            let goal = next(&mut state) % u64::from(m);
            loop {
                assert!(geo.exists(n), "M={m} {n:?}");
                assert_eq!(geo.range(n), (lo as u32, hi as u32), "M={m} {n:?}");
                assert_eq!(geo.width(n), hi - lo + 1);
                assert_eq!(geo.is_leaf(n), lo == hi);
                if lo == hi {
                    assert_eq!(geo.leaf_of(lo as u32), n, "M={m} slot {lo}");
                    break;
                }
                if n.depth() == 31 {
                    break;
                }
                let mid = lo + (hi - lo) / 2;
                if goal > mid {
                    (n, lo) = (NodeId(2 * n.0 + 1), mid + 1);
                } else {
                    (n, hi) = (NodeId(2 * n.0), mid);
                }
            }
            // A leaf's sons are not nodes; an internal node's are.
            if n.depth() < 31 {
                let sons = geo.exists(NodeId(2 * n.0));
                assert_eq!(sons, lo < hi, "M={m} sons of {n:?}");
            }
        }
    }
}
