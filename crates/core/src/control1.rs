//! CONTROL 1 — the paper's amortized maintenance algorithm (§3).
//!
//! After step A (the insertion/deletion itself, performed in `file.rs`),
//! step B checks whether any calibrator node violates BALANCE(d,D), i.e.
//! `p(v) > g(v,1)`. If so, it takes the *highest* violating node `v` and
//! redistributes the records under `v`'s father evenly — a one-shot
//! `O(M_{f_v})`-page operation. Itai-Konheim-Rodeh-style analysis gives this
//! an `O(log²M/(D−d))` *amortized* bound, but a single command can cost
//! `O(M)` pages — the spike CONTROL 2 exists to remove. The
//! `exp_amortized_vs_worstcase` experiment measures exactly that contrast.

use dsf_pagestore::Key;

use crate::calibrator::NodeId;
use crate::file::DenseFile;

impl<K: Key, V> DenseFile<K, V> {
    /// Step B of CONTROL 1, run after step A touched `slot`.
    pub(crate) fn control1_after_update(&mut self, slot: u32) {
        // Violations can only appear on the updated leaf-to-root path.
        // After a redistribution the rewritten subtree is even and its
        // ancestors are unchanged, so with the paper's density-gap
        // assumption one pass suffices; the loop guards the out-of-contract
        // configurations (ablations) where the even spread can still leave
        // a deep node over its bound.
        for _ in 0..=self.cal.log_slots() {
            let Some(v) = self.highest_violation_on_path(slot) else {
                return;
            };
            if v == NodeId::ROOT {
                // Unreachable while the capacity gate holds: p(root) ≤ d.
                debug_assert!(false, "root cannot violate BALANCE under the capacity gate");
                return;
            }
            let f = v.parent().expect("non-root");
            self.redistribute(f);
        }
    }

    /// The least-deep node on the leaf-to-root path of `slot` with
    /// `p(v) > g(v,1)`.
    fn highest_violation_on_path(&self, slot: u32) -> Option<NodeId> {
        let mut highest = None;
        let mut n = self.cal.leaf_of(slot);
        loop {
            if self.cal.p_gt(n, 3) {
                highest = Some(n);
            }
            match n.parent() {
                Some(p) => n = p,
                None => break,
            }
        }
        highest
    }

    /// Rewrites every slot under `f` with an even spread of the records in
    /// `RANGE(f)`: slot `i` of the `W` slots receives records
    /// `[n·i/W, n·(i+1)/W)`. This guarantees the paper's step-B condition
    /// `p(w) ≤ p(f) + 1` for every descendant `w` of `f`.
    pub(crate) fn redistribute(&mut self, f: NodeId) {
        let (lo, hi) = self.cal.range(f);
        let w = hi - lo + 1;
        self.stats.redistributions += 1;
        self.stats.redistributed_slots += u64::from(w);
        self.store.redistribute(lo, w);
        self.refresh_leaves(lo, w);
        self.cal.recompute_subtree(f);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DenseFileConfig, MacroBlocking};
    use crate::file::DenseFile;

    fn control1_file(pages: u32, d: u32, big_d: u32) -> DenseFile<u64, u32> {
        DenseFile::new(
            DenseFileConfig::control1(pages, d, big_d).with_macro_blocking(MacroBlocking::Disabled),
        )
        .unwrap()
    }

    #[test]
    fn hammering_one_page_triggers_redistribution() {
        let mut f = control1_file(16, 8, 24);
        // Fill half the capacity with widely-spaced keys.
        f.bulk_load((0..64u64).map(|i| (i * 1_000_000, i as u32)))
            .unwrap();
        // Hammer one key gap: every insert lands in the same slot.
        let mut redistributions = 0;
        for i in 0..60u64 {
            f.insert(500_000 + i, 0).unwrap();
            redistributions = f.op_stats().redistributions;
            f.check_invariants()
                .unwrap_or_else(|v| panic!("invariants broken: {v:?}"));
        }
        assert!(
            redistributions > 0,
            "a hammered page must eventually redistribute"
        );
        assert_eq!(f.len(), 124);
    }

    #[test]
    fn balance_holds_after_every_command() {
        let mut f = control1_file(32, 4, 40);
        for i in 0..f.capacity() {
            f.insert(i * 7919 % 100_000_000, i as u32).ok();
        }
        f.check_invariants()
            .unwrap_or_else(|v| panic!("invariants broken: {v:?}"));
    }

    #[test]
    fn control1_has_expensive_spikes_but_cheap_average() {
        let mut f = control1_file(64, 16, 64);
        f.bulk_load((0..512u64).map(|i| (i << 20, 0u32))).unwrap();
        // Localized surge: all inserts into one gap.
        for i in 0..500u64 {
            f.insert((1 << 19) + i, 0).unwrap();
        }
        let stats = f.op_stats();
        // The worst command redistributed a wide subtree: far above the mean.
        assert!(stats.max_accesses as f64 > 4.0 * stats.mean_accesses());
        assert!(stats.redistributions > 0);
    }

    #[test]
    fn deletions_never_violate_balance() {
        let mut f = control1_file(16, 8, 32);
        f.bulk_load((0..128u64).map(|i| (i, 0u32))).unwrap();
        let before = f.op_stats().redistributions;
        for i in 0..128u64 {
            f.remove(&i);
        }
        assert_eq!(
            f.op_stats().redistributions,
            before,
            "deletes only lower densities"
        );
        assert!(f.is_empty());
        f.check_invariants()
            .unwrap_or_else(|v| panic!("invariants broken: {v:?}"));
    }
}
