//! Order-statistic queries over the calibrator's rank counters.
//!
//! The calibrator stores, at every node, the number of records in its page
//! range — the paper uses these `N_v` counters only to police densities,
//! but they make the file an *order-statistic* structure for free, in the
//! spirit of the sparse-table/priority-queue lineage the paper builds on
//! (Itai-Konheim-Rodeh). All tree navigation is in-memory (uncounted); only
//! the final record-page touch is charged, like the paper's step 1.

use dsf_pagestore::Key;

use crate::calibrator::NodeId;
use crate::file::DenseFile;

impl<K: Key, V> DenseFile<K, V> {
    /// Number of records with keys strictly less than `key` — the key's
    /// *rank*. Charges the page probe of one slot search.
    ///
    /// ```
    /// # use dsf_core::{DenseFile, DenseFileConfig};
    /// let mut f: DenseFile<u64, ()> =
    ///     DenseFile::new(DenseFileConfig::control2(32, 4, 24)).unwrap();
    /// f.bulk_load((0..100u64).map(|k| (k * 2, ()))).unwrap();
    /// assert_eq!(f.rank(&0), 0);
    /// assert_eq!(f.rank(&100), 50);  // 0,2,...,98 are below
    /// assert_eq!(f.rank(&101), 51);  // ...and 100 itself
    /// ```
    pub fn rank(&self, key: &K) -> u64 {
        self.rank_and_contains(key).0
    }

    /// `(rank, is-resident)` from a single search — the membership bit falls
    /// out of the same probe that computes the rank. Step 1's descent,
    /// adding up the counts of the left sons it passes.
    fn rank_and_contains(&self, key: &K) -> (u64, bool) {
        if self.is_empty() {
            return (0, false);
        }
        let cal = &self.cal;
        let mut before = 0u64;
        let slot = cal.geometry().descend(|r| {
            let go_right = cal.min_key(r).is_some_and(|m| m <= *key);
            if go_right {
                before += cal.count(NodeId(r.0 - 1));
            }
            go_right
        });
        match self.store.search(slot, key) {
            Ok(i) => (before + i as u64, true),
            Err(i) => (before + i as u64, false),
        }
    }

    /// The record with exactly `rank` smaller keys (0-based), if any.
    /// Charges one page read.
    ///
    /// ```
    /// # use dsf_core::{DenseFile, DenseFileConfig};
    /// let mut f: DenseFile<u64, ()> =
    ///     DenseFile::new(DenseFileConfig::control2(32, 4, 24)).unwrap();
    /// f.bulk_load((0..100u64).map(|k| (k * 2, ()))).unwrap();
    /// assert_eq!(f.select_nth(50).map(|(k, _)| *k), Some(100)); // the median
    /// assert_eq!(f.select_nth(100), None);
    /// ```
    pub fn select_nth(&self, rank: u64) -> Option<(&K, &V)> {
        if rank >= self.len() {
            return None;
        }
        let cal = &self.cal;
        let mut remaining = rank;
        let slot = cal.geometry().descend(|r| {
            let lc = cal.count(NodeId(r.0 - 1));
            let go_right = remaining >= lc;
            if go_right {
                remaining -= lc;
            }
            go_right
        });
        let page = (remaining / u64::from(self.cfg.page_capacity)) as u32;
        let recs = self.store.read_page(slot, page.min(self.cfg.k - 1));
        // Index within the page (the last page absorbs any overflow).
        let idx = remaining as usize
            - page.min(self.cfg.k - 1) as usize * self.cfg.page_capacity as usize;
        let rec = &recs[idx];
        Some((&rec.key, &rec.value))
    }

    /// The smallest record. Charges one page read.
    pub fn first(&self) -> Option<(&K, &V)> {
        self.select_nth(0)
    }

    /// The largest record. Charges one page read.
    pub fn last(&self) -> Option<(&K, &V)> {
        self.len().checked_sub(1).and_then(|r| self.select_nth(r))
    }

    /// Removes and returns the smallest record (a full deletion command).
    pub fn pop_first(&mut self) -> Option<(K, V)> {
        let k = *self.first()?.0;
        let v = self.remove(&k).expect("first() returned a resident key");
        Some((k, v))
    }

    /// Number of records with keys in `range` — computed from one combined
    /// rank-and-membership probe per bounded endpoint, so it costs at most
    /// two page probes regardless of the range's size.
    ///
    /// ```
    /// # use dsf_core::{DenseFile, DenseFileConfig};
    /// let mut f: DenseFile<u64, ()> =
    ///     DenseFile::new(DenseFileConfig::control2(32, 4, 24)).unwrap();
    /// f.bulk_load((0..100u64).map(|k| (k, ()))).unwrap();
    /// assert_eq!(f.count_range(10..20), 10);
    /// assert_eq!(f.count_range(..), 100);
    /// ```
    pub fn count_range<R: std::ops::RangeBounds<K>>(&self, range: R) -> u64 {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Unbounded => 0,
            Bound::Included(k) => self.rank_and_contains(k).0,
            Bound::Excluded(k) => {
                let (r, present) = self.rank_and_contains(k);
                r + u64::from(present)
            }
        };
        let hi = match range.end_bound() {
            Bound::Unbounded => self.len(),
            Bound::Included(k) => {
                let (r, present) = self.rank_and_contains(k);
                r + u64::from(present)
            }
            Bound::Excluded(k) => self.rank_and_contains(k).0,
        };
        hi.saturating_sub(lo)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::DenseFileConfig;
    use crate::file::DenseFile;

    fn loaded() -> DenseFile<u64, u64> {
        let mut f = DenseFile::new(DenseFileConfig::control2(64, 8, 48)).unwrap();
        f.bulk_load((0..300u64).map(|i| (i * 10, i))).unwrap();
        f
    }

    #[test]
    fn rank_counts_strictly_smaller_keys() {
        let f = loaded();
        assert_eq!(f.rank(&0), 0);
        assert_eq!(f.rank(&5), 1); // only key 0 is smaller
        assert_eq!(f.rank(&10), 1);
        assert_eq!(f.rank(&11), 2);
        assert_eq!(f.rank(&2990), 299);
        assert_eq!(f.rank(&2991), 300);
        assert_eq!(f.rank(&u64::MAX), 300);
    }

    #[test]
    fn select_nth_inverts_rank() {
        let f = loaded();
        for r in [0u64, 1, 7, 150, 298, 299] {
            let (k, v) = f.select_nth(r).unwrap();
            assert_eq!(*k, r * 10);
            assert_eq!(*v, r);
            assert_eq!(f.rank(k), r);
        }
        assert_eq!(f.select_nth(300), None);
        assert_eq!(f.select_nth(u64::MAX), None);
    }

    #[test]
    fn rank_select_survive_heavy_updates() {
        let mut f = loaded();
        for i in 0..200u64 {
            f.insert(i * 10 + 5, 999).unwrap();
        }
        for i in (0..300u64).step_by(2) {
            f.remove(&(i * 10));
        }
        f.check_invariants().unwrap();
        // Cross-check against a sorted model.
        let model: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        for (r, k) in model.iter().enumerate() {
            assert_eq!(f.rank(k), r as u64, "rank of {k}");
            assert_eq!(*f.select_nth(r as u64).unwrap().0, *k, "select {r}");
        }
        assert_eq!(f.rank(&u64::MAX), model.len() as u64);
    }

    #[test]
    fn first_last_pop_behave_like_a_priority_queue() {
        let mut f = loaded();
        assert_eq!(f.first().map(|(k, _)| *k), Some(0));
        assert_eq!(f.last().map(|(k, _)| *k), Some(2990));
        assert_eq!(f.pop_first(), Some((0, 0)));
        assert_eq!(f.first().map(|(k, _)| *k), Some(10));
        assert_eq!(f.len(), 299);
        // Drain as a priority queue; output must be sorted.
        let mut prev = 0;
        while let Some((k, _)) = f.pop_first() {
            assert!(k >= prev);
            prev = k;
        }
        assert!(f.is_empty());
        assert_eq!(f.pop_first(), None);
        assert_eq!(f.last(), None);
        f.check_invariants().unwrap();
    }

    #[test]
    fn count_range_matches_scan_counts() {
        let f = loaded();
        for (lo, hi) in [
            (0u64, 100u64),
            (5, 95),
            (250, 251),
            (0, 10_000),
            (995, 1005),
        ] {
            assert_eq!(
                f.count_range(lo..hi),
                f.range(lo..hi).count() as u64,
                "{lo}..{hi}"
            );
            assert_eq!(
                f.count_range(lo..=hi),
                f.range(lo..=hi).count() as u64,
                "{lo}..={hi}"
            );
        }
        assert_eq!(f.count_range(..), 300);
        assert_eq!(f.count_range(4000..), 0);
    }

    #[test]
    fn works_in_macro_block_regime() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
        assert!(f.config().k > 1);
        f.bulk_load((0..200u64).map(|i| (i * 3, i))).unwrap();
        for r in [0u64, 50, 100, 199] {
            assert_eq!(*f.select_nth(r).unwrap().0, r * 3);
            assert_eq!(f.rank(&(r * 3)), r);
        }
        assert_eq!(f.count_range(30..=60), 11);
    }

    #[test]
    fn empty_file_order_queries() {
        let f: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(8, 2, 16)).unwrap();
        assert_eq!(f.rank(&5), 0);
        assert_eq!(f.select_nth(0), None);
        assert_eq!(f.first(), None);
        assert_eq!(f.last(), None);
        assert_eq!(f.count_range(..), 0);
    }
}
