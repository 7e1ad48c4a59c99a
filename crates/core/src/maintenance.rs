//! Explicit offline maintenance: vacuum and bulk merge.
//!
//! The paper maintains only the *upper* density bounds — deletions may
//! leave the record distribution arbitrarily lopsided, which is legal but
//! burns the headroom Theorem 5.5's uniform initial condition provides:
//! a region left dense by history absorbs fewer future insertions before
//! its warnings fire. Real deployments interleave the paper's per-command
//! maintenance with occasional offline passes; this module provides the two
//! standard ones, both `O(M)` by design and charged honestly:
//!
//! * [`DenseFile::vacuum`] — redistribute every record evenly, restoring
//!   the uniform distribution Theorem 5.5 starts from (maximum insert
//!   headroom everywhere);
//! * [`DenseFile::merge_bulk`] — merge a sorted batch of new records in one
//!   sequential pass (the classical "batch update" of sequential-file
//!   practice, cheaper per record than replaying the batch as commands when
//!   the batch is a large fraction of the file).

use dsf_pagestore::{Key, Record};

use crate::calibrator::NodeId;
use crate::error::{BulkLoadError, DsfError};
use crate::file::DenseFile;

impl<K: Key, V> DenseFile<K, V> {
    /// Evenly redistributes every record across the whole file — a full
    /// sequential rewrite (`O(M)` page accesses, counted), after which every
    /// calibrator node sits at the global density (Theorem 5.5's initial
    /// condition) and all warning flags clear. Note the trade: even spread
    /// maximizes insert headroom but, at low fill, spreads records over
    /// more pages than history had them on — scans skip empty pages via
    /// calibrator metadata, so in the pure page-access model a vacuum can
    /// lengthen scans while it shortens future update work.
    pub fn vacuum(&mut self) {
        self.redistribute(NodeId::ROOT);
        // Redistribution leaves every node at (near-)uniform density; any
        // warning state is now stale.
        self.reset_flags_after_offline_pass();
        self.publish_view();
    }

    /// Merges a strictly-ascending batch of records into the file in one
    /// sequential pass and redistributes evenly. Existing keys take the new
    /// value. `O(M + batch)` page accesses, counted like any offline build.
    ///
    /// # Errors
    ///
    /// Rejects unsorted batches and batches that would exceed capacity; the
    /// file is unchanged on error.
    /// ```
    /// # use dsf_core::{DenseFile, DenseFileConfig};
    /// let mut f: DenseFile<u64, u64> =
    ///     DenseFile::new(DenseFileConfig::control2(16, 4, 24)).unwrap();
    /// f.bulk_load((0..20u64).map(|k| (k * 10, k))).unwrap();
    /// f.merge_bulk((0..10u64).map(|k| (k * 10 + 5, 999))).unwrap();
    /// assert_eq!(f.len(), 30);
    /// assert_eq!(f.get(&15), Some(&999));
    /// ```
    pub fn merge_bulk<I>(&mut self, batch: I) -> Result<(), DsfError>
    where
        I: IntoIterator<Item = (K, V)>,
    {
        let mut incoming: Vec<Record<K, V>> = Vec::new();
        for (i, (k, v)) in batch.into_iter().enumerate() {
            if let Some(prev) = incoming.last() {
                if prev.key >= k {
                    return Err(BulkLoadError::NotSorted { index: i }.into());
                }
            }
            incoming.push(Record::new(k, v));
        }
        // Upper-bound check before touching anything (replacements can only
        // make the merged set smaller).
        if self.len() + incoming.len() as u64 > self.capacity() {
            // Exact size requires the merge; pre-check cheaply via ranks.
            let replacements = incoming
                .iter()
                .filter(|r| self.contains_key(&r.key))
                .count();
            let merged = self.len() + (incoming.len() - replacements) as u64;
            if merged > self.capacity() {
                return Err(DsfError::CapacityExceeded {
                    capacity: self.capacity(),
                });
            }
        }

        // Drain the file (sequential read), merge, respread (sequential write).
        let mut existing: Vec<Record<K, V>> = Vec::new();
        for s in 0..self.cfg.slots {
            existing.append(&mut self.store.take_all(s));
        }
        let mut merged: Vec<Record<K, V>> = Vec::with_capacity(existing.len() + incoming.len());
        let (mut a, mut b) = (
            existing.into_iter().peekable(),
            incoming.into_iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.key.cmp(&y.key) {
                    std::cmp::Ordering::Less => merged.push(a.next().expect("peeked")),
                    std::cmp::Ordering::Greater => merged.push(b.next().expect("peeked")),
                    std::cmp::Ordering::Equal => {
                        a.next(); // new value wins
                        merged.push(b.next().expect("peeked"));
                    }
                },
                (Some(_), None) => merged.push(a.next().expect("peeked")),
                (None, Some(_)) => merged.push(b.next().expect("peeked")),
                (None, None) => break,
            }
        }
        debug_assert!(merged.len() as u64 <= self.capacity());

        // Even spread, exactly like bulk_load.
        let n = merged.len() as u64;
        self.respread(merged, n, 0, self.cfg.slots)
            .expect("a Vec yields exactly its length");
        self.cal.recompute_subtree(NodeId::ROOT);
        self.reset_flags_after_offline_pass();
        self.publish_view();
        Ok(())
    }
}

impl<K: Key, V> DenseFile<K, V> {
    /// Keeps only the records for which `keep` returns `true`, then spreads
    /// the survivors evenly — one sequential pass (`O(M + N)` page
    /// accesses), the offline analogue of deleting record by record.
    /// Returns the number of records removed.
    ///
    /// ```
    /// # use dsf_core::{DenseFile, DenseFileConfig};
    /// let mut f: DenseFile<u64, u64> =
    ///     DenseFile::new(DenseFileConfig::control2(16, 4, 24)).unwrap();
    /// f.bulk_load((0..30u64).map(|k| (k, k))).unwrap();
    /// let removed = f.retain(|k, _| k % 2 == 0);
    /// assert_eq!(removed, 15);
    /// assert!(f.iter().all(|(k, _)| k % 2 == 0));
    /// ```
    pub fn retain<F: FnMut(&K, &V) -> bool>(&mut self, mut keep: F) -> u64 {
        let mut kept: Vec<Record<K, V>> = Vec::with_capacity(self.len() as usize);
        let mut removed = 0u64;
        for s in 0..self.cfg.slots {
            for rec in self.store.take_all(s) {
                if keep(&rec.key, &rec.value) {
                    kept.push(rec);
                } else {
                    removed += 1;
                }
            }
        }
        let n = kept.len() as u64;
        self.respread(kept, n, 0, self.cfg.slots)
            .expect("a Vec yields exactly its length");
        self.cal.recompute_subtree(NodeId::ROOT);
        self.reset_flags_after_offline_pass();
        self.publish_view();
        removed
    }
}

#[cfg(test)]
mod tests {
    use crate::config::DenseFileConfig;
    use crate::file::DenseFile;

    fn sparse_file() -> DenseFile<u64, u64> {
        let mut f = DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
        f.bulk_load((0..400u64).map(|i| (i * 5, i))).unwrap();
        // Delete three quarters, concentrated in the middle.
        for i in 50..350u64 {
            f.remove(&(i * 5));
        }
        f
    }

    #[test]
    fn vacuum_restores_uniformity_and_insert_headroom() {
        let mut f = sparse_file();
        let n_before: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        // History left the ends dense: hammering the dense end costs real
        // maintenance work.
        let mut before_vacuum: DenseFile<u64, u64> = {
            let mut bytes = Vec::new();
            f.write_snapshot(&mut bytes).unwrap();
            DenseFile::read_snapshot(&mut bytes.as_slice()).unwrap()
        };
        let room = 200usize;
        for k in dsf_workloads_hammer(room) {
            before_vacuum.insert(k, 0).unwrap();
        }
        let unvacuumed_work = before_vacuum.op_stats().records_shifted;

        f.vacuum();
        f.check_invariants().unwrap();
        let n_after: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        assert_eq!(n_before, n_after, "vacuum must not change contents");
        // Even spread: all slot counts within 1 of each other.
        let counts = f.slot_counts();
        let max = counts.iter().max().unwrap();
        let min = counts.iter().min().unwrap();
        assert!(max - min <= 1, "even spread expected, got {min}..{max}");
        // The same hammer against the vacuumed file shifts no more records
        // than against the lopsided one (uniformity = maximal headroom).
        for k in dsf_workloads_hammer(room) {
            f.insert(k, 0).unwrap();
        }
        assert!(
            f.op_stats().records_shifted <= unvacuumed_work,
            "vacuumed file must absorb the hammer at least as cheaply: {} vs {}",
            f.op_stats().records_shifted,
            unvacuumed_work
        );
        f.check_invariants().unwrap();
    }

    /// Hammer keys aimed at the dense low end of `sparse_file`'s keyspace.
    fn dsf_workloads_hammer(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| 1 + n as u64 - i).collect()
    }

    #[test]
    fn vacuum_on_empty_and_full_files() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(16, 4, 24)).unwrap();
        f.vacuum();
        f.check_invariants().unwrap();
        for k in 0..f.capacity() {
            f.insert(k, k).unwrap();
        }
        f.vacuum();
        f.check_invariants().unwrap();
        assert_eq!(f.len(), f.capacity());
    }

    #[test]
    fn merge_bulk_interleaves_and_replaces() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(32, 8, 40)).unwrap();
        f.bulk_load((0..100u64).map(|i| (i * 10, i))).unwrap();
        // Batch: 50 new keys between the existing ones + 10 replacements.
        let batch: Vec<(u64, u64)> = (0..50u64)
            .map(|i| (i * 10 + 5, 7777))
            .chain((0..10u64).map(|i| (i * 10, 9999)))
            .collect();
        let mut batch = batch;
        batch.sort_unstable();
        f.merge_bulk(batch).unwrap();
        f.check_invariants().unwrap();
        assert_eq!(f.len(), 150);
        assert_eq!(f.get(&0), Some(&9999)); // replaced
        assert_eq!(f.get(&5), Some(&7777)); // merged in
        assert_eq!(f.get(&990), Some(&99)); // untouched
        let keys: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_bulk_rejects_bad_batches() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(8, 2, 16)).unwrap();
        f.bulk_load((0..10u64).map(|i| (i, i))).unwrap();
        assert!(f.merge_bulk([(5u64, 0u64), (3, 0)]).is_err());
        assert_eq!(f.len(), 10, "file unchanged after rejected merge");
        // Over capacity (capacity 16, holding 10, adding 7 distinct).
        assert!(f.merge_bulk((100..107u64).map(|k| (k, k))).is_err());
        assert_eq!(f.len(), 10);
        // Replacements don't count against capacity.
        f.merge_bulk((0..6u64).map(|k| (k, k + 100))).unwrap();
        assert_eq!(f.len(), 10);
        assert_eq!(f.get(&3), Some(&103));
        f.check_invariants().unwrap();
    }

    #[test]
    fn retain_filters_and_respreads() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(32, 8, 40)).unwrap();
        f.bulk_load((0..200u64).map(|i| (i, i))).unwrap();
        let removed = f.retain(|k, _| k % 3 == 0);
        assert_eq!(removed, 133);
        assert_eq!(f.len(), 67);
        assert!(f.iter().all(|(k, _)| k % 3 == 0));
        f.check_invariants().unwrap();
        // Survivors spread evenly.
        let counts = f.slot_counts();
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
        // Retain-nothing and retain-everything edges.
        assert_eq!(f.retain(|_, _| true), 0);
        assert_eq!(f.retain(|_, _| false), 67);
        assert!(f.is_empty());
        f.check_invariants().unwrap();
    }

    #[test]
    fn updates_keep_working_after_offline_maintenance() {
        let mut f = sparse_file();
        f.vacuum();
        f.merge_bulk((0..50u64).map(|i| (i * 7 + 1_000_000, i)))
            .unwrap();
        for i in 0..100u64 {
            f.insert(2_000_000 + i, i).unwrap();
        }
        for i in 0..25u64 {
            assert!(f.remove(&(i * 7 + 1_000_000)).is_some());
        }
        f.check_invariants().unwrap();
    }
}
