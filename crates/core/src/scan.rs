//! Stream retrieval: ordered scans over the dense file.
//!
//! Scans are the paper's raison d'être — a dense sequential file stores
//! records with consecutive keys in physically adjacent pages, so a scan
//! charges one page read per page crossed and its access trace is a
//! contiguous run (one seek under the disk model). The scan walks slots in
//! address order, skipping empty slots using calibrator metadata (free) and
//! reading record pages through the counted [`dsf_pagestore::PagedStore::read_page`].

use std::ops::Bound;

use dsf_pagestore::{Key, Record};

use crate::file::DenseFile;

/// An ordered iterator over `(&K, &V)` pairs.
///
/// Created by [`DenseFile::iter`] and [`DenseFile::range`].
pub struct Scan<'a, K, V> {
    file: &'a DenseFile<K, V>,
    /// Current slot, or `None` when exhausted.
    slot: Option<u32>,
    /// Next page within the slot to read.
    page: u32,
    /// Records of the page most recently read.
    buf: &'a [Record<K, V>],
    /// Next index within `buf`.
    idx: usize,
    /// Upper bound on keys.
    end: Bound<K>,
    /// Lower bound, applied while skipping into position.
    start: Bound<K>,
    /// Whether the lower bound has been satisfied already.
    started: bool,
}

impl<'a, K: Key, V> Scan<'a, K, V> {
    pub(crate) fn all(file: &'a DenseFile<K, V>) -> Self {
        Self::bounded(file, Bound::Unbounded, Bound::Unbounded)
    }

    pub(crate) fn bounded(file: &'a DenseFile<K, V>, start: Bound<K>, end: Bound<K>) -> Self {
        let mut page = 0u32;
        let slot = if file.is_empty() {
            None
        } else {
            match &start {
                Bound::Unbounded => file.cal.next_nonempty(0, file.cfg.slots - 1),
                Bound::Included(k) | Bound::Excluded(k) => {
                    // The slot of the greatest record ≤ k.
                    let s = file.cal.find_slot(k);
                    if file.store.is_empty(s) {
                        file.cal.next_nonempty(s, file.cfg.slots - 1)
                    } else {
                        // Position at the physical page holding the bound
                        // (one charged search) instead of sweeping the slot
                        // from page 0 — with K pages per slot that sweep
                        // would cost up to K−1 extra reads.
                        let idx = match file.store.search(s, k) {
                            Ok(i) | Err(i) => i,
                        };
                        page = ((idx as u32) / file.cfg.page_capacity).min(file.cfg.k - 1);
                        Some(s)
                    }
                }
            }
        };
        Scan {
            file,
            slot,
            page,
            buf: &[],
            idx: 0,
            end,
            start,
            started: false,
        }
    }

    /// Loads the next non-empty page into `buf`; returns `false` at the end
    /// of the file.
    fn advance_page(&mut self) -> bool {
        loop {
            let Some(slot) = self.slot else {
                return false;
            };
            let used = self.file.store.pages_used(slot);
            if self.page < used {
                self.buf = self.file.store.read_page(slot, self.page);
                self.page += 1;
                self.idx = 0;
                if !self.buf.is_empty() {
                    return true;
                }
            } else {
                self.slot = if slot + 1 < self.file.cfg.slots {
                    self.file
                        .cal
                        .next_nonempty(slot + 1, self.file.cfg.slots - 1)
                } else {
                    None
                };
                self.page = 0;
            }
        }
    }

    fn before_start(&self, key: &K) -> bool {
        match &self.start {
            Bound::Unbounded => false,
            Bound::Included(s) => key < s,
            Bound::Excluded(s) => key <= s,
        }
    }

    fn past_end(&self, key: &K) -> bool {
        match &self.end {
            Bound::Unbounded => false,
            Bound::Included(e) => key > e,
            Bound::Excluded(e) => key >= e,
        }
    }
}

impl<'a, K: Key, V> Iterator for Scan<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.idx >= self.buf.len() && !self.advance_page() {
                return None;
            }
            let rec = &self.buf[self.idx];
            self.idx += 1;
            if !self.started {
                if self.before_start(&rec.key) {
                    continue;
                }
                self.started = true;
            }
            if self.past_end(&rec.key) {
                self.slot = None; // exhaust
                self.buf = &[];
                self.idx = 0;
                return None;
            }
            return Some((&rec.key, &rec.value));
        }
    }
}

/// A descending-order iterator over `(&K, &V)` pairs.
///
/// Created by [`DenseFile::iter_rev`] and [`DenseFile::range_rev`]. Reverse
/// streams pay the same page reads as forward ones but their access trace
/// runs high-to-low — the disk model prices them accordingly (real drives
/// cannot read backwards through the buffer, so a reverse sweep seeks more;
/// this iterator exists for completeness and in-memory use).
pub struct ScanRev<'a, K, V> {
    file: &'a DenseFile<K, V>,
    /// Current slot, or `None` when exhausted.
    slot: Option<u32>,
    /// Page within the slot that `buf` came from (we walk pages downward).
    page: u32,
    buf: &'a [Record<K, V>],
    /// Index *one past* the next record to yield (we walk `buf` backward).
    idx: usize,
    start: Bound<K>,
    end: Bound<K>,
    /// Whether the upper bound has been satisfied already.
    started: bool,
    /// Whether `buf` currently holds a page of `slot`.
    loaded: bool,
}

impl<'a, K: Key, V> ScanRev<'a, K, V> {
    pub(crate) fn bounded(file: &'a DenseFile<K, V>, start: Bound<K>, end: Bound<K>) -> Self {
        let mut page = 0u32;
        let mut loaded = false;
        let slot = if file.is_empty() {
            None
        } else {
            match &end {
                Bound::Unbounded => file.cal.prev_nonempty(0, file.cfg.slots - 1),
                Bound::Included(k) | Bound::Excluded(k) => {
                    // The greatest record ≤ k lives in find_slot(k).
                    let s = file.cal.find_slot(k);
                    if file.store.is_empty(s) {
                        file.cal.prev_nonempty(0, s)
                    } else {
                        // Position at the page holding the bound so the
                        // retreat doesn't pay for the slot's tail pages.
                        let idx = match file.store.search(s, k) {
                            Ok(i) | Err(i) => i,
                        };
                        let target = ((idx as u32) / file.cfg.page_capacity).min(file.cfg.k - 1);
                        // retreat_page pre-decrements when `loaded`.
                        page = target + 1;
                        loaded = true;
                        Some(s)
                    }
                }
            }
        };
        ScanRev {
            file,
            slot,
            page,
            buf: &[],
            idx: 0,
            start,
            end,
            started: false,
            loaded,
        }
    }

    /// Loads the previous non-empty page into `buf`; `false` at the start
    /// of the file.
    fn retreat_page(&mut self) -> bool {
        loop {
            let Some(slot) = self.slot else {
                return false;
            };
            if !self.loaded {
                // Start from the slot's last used page.
                let used = self.file.store.pages_used(slot);
                if used == 0 {
                    self.slot = if slot > 0 {
                        self.file.cal.prev_nonempty(0, slot - 1)
                    } else {
                        None
                    };
                    continue;
                }
                self.page = used - 1;
                self.loaded = true;
            } else if self.page > 0 {
                self.page -= 1;
            } else {
                self.loaded = false;
                self.slot = if slot > 0 {
                    self.file.cal.prev_nonempty(0, slot - 1)
                } else {
                    None
                };
                continue;
            }
            self.buf = self.file.store.read_page(slot, self.page);
            self.idx = self.buf.len();
            if !self.buf.is_empty() {
                return true;
            }
        }
    }

    fn past_end(&self, key: &K) -> bool {
        match &self.end {
            Bound::Unbounded => false,
            Bound::Included(e) => key > e,
            Bound::Excluded(e) => key >= e,
        }
    }

    fn before_start(&self, key: &K) -> bool {
        match &self.start {
            Bound::Unbounded => false,
            Bound::Included(s) => key < s,
            Bound::Excluded(s) => key <= s,
        }
    }
}

impl<'a, K: Key, V> Iterator for ScanRev<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.idx == 0 && !self.retreat_page() {
                return None;
            }
            self.idx -= 1;
            let rec = &self.buf[self.idx];
            if !self.started {
                if self.past_end(&rec.key) {
                    continue;
                }
                self.started = true;
            }
            if self.before_start(&rec.key) {
                self.slot = None;
                self.buf = &[];
                self.idx = 0;
                return None;
            }
            return Some((&rec.key, &rec.value));
        }
    }
}

impl<K: Key, V> DenseFile<K, V> {
    /// Streams every record in *descending* key order.
    pub fn iter_rev(&self) -> ScanRev<'_, K, V> {
        ScanRev::bounded(self, Bound::Unbounded, Bound::Unbounded)
    }

    /// Streams the records with keys in `range` in *descending* key order.
    pub fn range_rev<R: std::ops::RangeBounds<K>>(&self, range: R) -> ScanRev<'_, K, V> {
        ScanRev::bounded(
            self,
            range.start_bound().cloned(),
            range.end_bound().cloned(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::config::DenseFileConfig;
    use crate::file::DenseFile;

    fn loaded(n: u64) -> DenseFile<u64, u64> {
        let mut f = DenseFile::new(DenseFileConfig::control2(64, 8, 48)).unwrap();
        f.bulk_load((0..n).map(|i| (i * 10, i))).unwrap();
        f
    }

    #[test]
    fn full_iteration_yields_everything_in_order() {
        let f = loaded(300);
        let keys: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys.len(), 300);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys[0], 0);
        assert_eq!(*keys.last().unwrap(), 2990);
    }

    #[test]
    fn empty_file_yields_nothing() {
        let f: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(8, 2, 16)).unwrap();
        assert_eq!(f.iter().count(), 0);
        assert_eq!(f.range(10..20).count(), 0);
    }

    #[test]
    fn range_bounds_are_respected() {
        let f = loaded(100); // keys 0,10,...,990
        let got: Vec<u64> = f.range(250..=500).map(|(k, _)| *k).collect();
        assert_eq!(got.first(), Some(&250));
        assert_eq!(got.last(), Some(&500));
        assert_eq!(got.len(), 26);

        let got: Vec<u64> = f.range(251..500).map(|(k, _)| *k).collect();
        assert_eq!(got.first(), Some(&260));
        assert_eq!(got.last(), Some(&490));

        let got: Vec<u64> = f.range(..30).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![0, 10, 20]);

        let got: Vec<u64> = f.range(980..).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![980, 990]);
    }

    #[test]
    fn range_between_keys_is_empty() {
        let f = loaded(100);
        assert_eq!(f.range(251..=259).count(), 0);
        assert_eq!(f.range(1000..).count(), 0);
    }

    #[test]
    fn scan_is_physically_sequential() {
        let f = loaded(500);
        f.io_trace().set_enabled(true);
        let n = f.iter().count();
        assert_eq!(n, 500);
        let trace = f.io_trace().take();
        assert!(!trace.is_empty());
        // Page numbers must be non-decreasing: a dense-file scan never seeks
        // backwards.
        assert!(trace.windows(2).all(|w| w[0].page <= w[1].page));
        f.io_trace().set_enabled(false);
    }

    #[test]
    fn scan_after_heavy_updates_stays_ordered() {
        let mut f = loaded(200);
        for i in 0..200u64 {
            f.insert(i * 10 + 5, i).unwrap();
        }
        for i in (0..200u64).step_by(3) {
            f.remove(&(i * 10));
        }
        let keys: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(keys.len() as u64, f.len());
    }

    #[test]
    fn reverse_iteration_mirrors_forward() {
        let f = loaded(300);
        let fwd: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        let mut rev: Vec<u64> = f.iter_rev().map(|(k, _)| *k).collect();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn reverse_ranges_respect_bounds() {
        let f = loaded(100); // keys 0,10,...,990
        let got: Vec<u64> = f.range_rev(250..=500).map(|(k, _)| *k).collect();
        assert_eq!(got.first(), Some(&500));
        assert_eq!(got.last(), Some(&250));
        assert_eq!(got.len(), 26);
        let got: Vec<u64> = f.range_rev(251..500).map(|(k, _)| *k).collect();
        assert_eq!(got.first(), Some(&490));
        assert_eq!(got.last(), Some(&260));
        let got: Vec<u64> = f.range_rev(..30).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![20, 10, 0]);
        let got: Vec<u64> = f.range_rev(980..).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![990, 980]);
        assert_eq!(f.range_rev(251..=259).count(), 0);
        assert_eq!(f.range_rev(1000..).count(), 0);
    }

    #[test]
    fn reverse_scan_after_updates_and_in_macro_mode() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
        assert!(f.config().k > 1, "macro-block regime expected");
        f.bulk_load((0..200u64).map(|i| (i * 3, i))).unwrap();
        for i in 0..100u64 {
            f.insert(i * 6 + 1, i).unwrap();
        }
        for i in (0..200u64).step_by(5) {
            f.remove(&(i * 3));
        }
        let fwd: Vec<u64> = f.iter().map(|(k, _)| *k).collect();
        let mut rev: Vec<u64> = f.iter_rev().map(|(k, _)| *k).collect();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn reverse_scan_on_empty_file() {
        let f: DenseFile<u64, u64> = DenseFile::new(DenseFileConfig::control2(8, 2, 16)).unwrap();
        assert_eq!(f.iter_rev().count(), 0);
        assert_eq!(f.range_rev(1..9).count(), 0);
    }

    #[test]
    fn full_scan_coalesces_to_a_single_run() {
        // 64 slots, one page each, all populated: the scan's page stream is
        // 0,1,…,63 and the run log folds it into exactly one fell swoop.
        let f = loaded(500);
        assert_eq!(f.config().k, 1);
        f.io_trace().set_enabled(true);
        assert_eq!(f.iter().count(), 500);
        let runs = f.io_trace().take_runs();
        f.io_trace().set_enabled(false);
        assert_eq!(runs.len(), 1, "runs: {runs:?}");
        assert_eq!(runs[0].start, 0);
        assert_eq!(runs[0].len, 64);
    }

    #[test]
    fn shift_heavy_inserts_coalesce_their_write_spans() {
        // Macro-block mode: every charged span covers whole stretches of a
        // slot's K pages, so the run log must be much shorter than the
        // event log.
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
        assert!(f.config().k > 1, "macro-block regime expected");
        f.bulk_load((0..300u64).map(|i| (i * 4, i))).unwrap();
        f.io_trace().set_enabled(true);
        for i in 0..100u64 {
            f.insert(i * 8 + 1, i).unwrap();
        }
        let events = f.io_trace().take();
        let runs = f.io_trace().take_runs();
        f.io_trace().set_enabled(false);
        assert!(!events.is_empty());
        let covered: u64 = runs.iter().map(|r| r.len).sum();
        assert_eq!(covered, events.len() as u64, "runs cover every event");
        assert!(
            runs.len() * 2 <= events.len(),
            "expected ≥2× coalescing, got {} runs over {} events",
            runs.len(),
            events.len()
        );
    }

    #[test]
    fn range_with_bound_below_all_keys_starts_at_first_record() {
        let mut f = DenseFile::new(DenseFileConfig::control2(16, 4, 32)).unwrap();
        f.bulk_load((100..110u64).map(|k| (k, k))).unwrap();
        let got: Vec<u64> = f.range(0..).map(|(k, _)| *k).collect();
        assert_eq!(got.len(), 10);
        assert_eq!(got[0], 100);
    }
}
