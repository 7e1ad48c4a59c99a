//! An ISAM-style sequential file with per-page overflow chains.
//!
//! The primary area is `M` pages whose key partition is fixed at
//! (re)organization time. An insertion whose page is full goes to the
//! page's overflow chain — extra pages allocated past the primary area, so
//! reaching them always costs a seek. This is exactly the classical
//! mitigation the paper's introduction dismisses: "overflow mechanisms
//! become especially unmanageable when a large surge of insertions is
//! attempted in a relatively small portion of the sequential file".
//! The `exp_overflow_burst` experiment reproduces that collapse: chain
//! length — and with it stream-retrieval cost — grows linearly with the
//! surge, while the dense file's worst-case bound is untouched.

use dsf_pagestore::{AccessKind, IoStats, Key, Record, TraceBuffer};

/// One primary page and its overflow chain.
#[derive(Debug)]
struct Bucket<K, V> {
    /// Sorted records of the primary page (≤ `page_capacity`).
    primary: Vec<Record<K, V>>,
    /// Overflow pages, in allocation order; each sorted, ≤ `page_capacity`.
    chain: Vec<OverflowPage<K, V>>,
}

#[derive(Debug)]
struct OverflowPage<K, V> {
    /// Global physical page number (≥ `M`).
    page_no: u64,
    recs: Vec<Record<K, V>>,
}

/// Health metrics of an overflow file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverflowStats {
    /// Records in primary pages.
    pub primary_records: u64,
    /// Records in overflow pages.
    pub overflow_records: u64,
    /// Overflow pages allocated.
    pub overflow_pages: u64,
    /// Longest chain (in pages) behind any primary page.
    pub longest_chain: u64,
}

/// A sequential file maintained with overflow chains (the classical
/// pre-1980s answer the paper replaces).
#[derive(Debug)]
pub struct OverflowFile<K, V> {
    buckets: Vec<Bucket<K, V>>,
    /// `boundaries[i]` = smallest key routed to bucket `i+1`; fixed at
    /// (re)organization time.
    boundaries: Vec<K>,
    page_capacity: usize,
    next_overflow_page: u64,
    len: u64,
    stats: IoStats,
    trace: TraceBuffer,
}

impl<K: Key, V> OverflowFile<K, V> {
    /// Creates an empty file with `primary_pages` primary pages of
    /// `page_capacity` records each.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(primary_pages: u32, page_capacity: usize) -> Self {
        assert!(primary_pages > 0, "primary_pages must be non-zero");
        assert!(page_capacity > 0, "page_capacity must be non-zero");
        OverflowFile {
            buckets: (0..primary_pages)
                .map(|_| Bucket {
                    primary: Vec::new(),
                    chain: Vec::new(),
                })
                .collect(),
            boundaries: Vec::new(),
            page_capacity,
            next_overflow_page: u64::from(primary_pages),
            len: 0,
            stats: IoStats::new(),
            trace: TraceBuffer::new(),
        }
    }

    /// Records stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page-access counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Optional physical access trace.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Chain-health metrics.
    pub fn overflow_stats(&self) -> OverflowStats {
        let mut s = OverflowStats {
            primary_records: 0,
            overflow_records: 0,
            overflow_pages: 0,
            longest_chain: 0,
        };
        for b in &self.buckets {
            s.primary_records += b.primary.len() as u64;
            s.overflow_pages += b.chain.len() as u64;
            s.longest_chain = s.longest_chain.max(b.chain.len() as u64);
            for p in &b.chain {
                s.overflow_records += p.recs.len() as u64;
            }
        }
        s
    }

    fn read_page(&self, page: u64) {
        self.stats.charge_reads(1);
        self.trace.record(page, AccessKind::Read);
    }

    fn write_page(&self, page: u64) {
        self.stats.charge_writes(1);
        self.trace.record(page, AccessKind::Write);
    }

    /// The bucket `key` is routed to (in-memory directory lookup — ISAM
    /// keeps the partition index resident, like the calibrator).
    fn bucket_of(&self, key: &K) -> usize {
        self.boundaries.partition_point(|b| b <= key)
    }

    /// Bulk-loads strictly-ascending records, fixing the key partition to
    /// an even spread at `fill` records per page (an offline build; free).
    ///
    /// # Panics
    ///
    /// Panics if the file is non-empty, the input is unsorted, or the input
    /// exceeds `primary_pages × fill` records.
    pub fn organize<I>(&mut self, items: I, fill: usize)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        assert!(self.len == 0, "organize requires an empty file");
        let fill = fill.clamp(1, self.page_capacity);
        let mut recs: Vec<Record<K, V>> = Vec::new();
        for (k, v) in items {
            if let Some(prev) = recs.last() {
                assert!(prev.key < k, "organize input must be strictly ascending");
            }
            recs.push(Record::new(k, v));
        }
        assert!(
            recs.len() <= self.buckets.len() * fill,
            "organize input exceeds primary capacity at the requested fill"
        );
        self.len = recs.len() as u64;
        self.boundaries.clear();
        let mut rest = recs;
        for i in (0..self.buckets.len()).rev() {
            let start = (i * fill).min(rest.len());
            self.buckets[i].primary = rest.split_off(start);
            self.buckets[i].chain.clear();
        }
        // Boundaries: the first key of each non-empty bucket after the
        // first. Trailing empty buckets get no boundary, so keys beyond the
        // loaded range route to the last populated bucket — a sentinel-free
        // way to keep the partition total over a generic K.
        self.boundaries = Vec::with_capacity(self.buckets.len() - 1);
        for b in self.buckets.iter().skip(1) {
            if let Some(first) = b.primary.first() {
                self.boundaries.push(first.key);
            }
        }
    }

    /// Inserts a record. A full primary page pushes the record into the
    /// page's overflow chain (allocating a new chain page when needed).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let b = self.bucket_of(&key);
        let primary_page = b as u64;
        self.read_page(primary_page);
        let cap = self.page_capacity;
        match self.buckets[b]
            .primary
            .binary_search_by(|r| r.key.cmp(&key))
        {
            Ok(i) => {
                let old = std::mem::replace(&mut self.buckets[b].primary[i].value, value);
                self.write_page(primary_page);
                return Some(old);
            }
            Err(i) => {
                if self.buckets[b].primary.len() < cap {
                    self.buckets[b].primary.insert(i, Record::new(key, value));
                    self.write_page(primary_page);
                    self.len += 1;
                    return None;
                }
            }
        }
        // Overflow path: walk the chain looking for the key or space.
        for ci in 0..self.buckets[b].chain.len() {
            let page_no = self.buckets[b].chain[ci].page_no;
            self.read_page(page_no);
            match self.buckets[b].chain[ci]
                .recs
                .binary_search_by(|r| r.key.cmp(&key))
            {
                Ok(i) => {
                    let old =
                        std::mem::replace(&mut self.buckets[b].chain[ci].recs[i].value, value);
                    self.write_page(page_no);
                    return Some(old);
                }
                Err(i) => {
                    if self.buckets[b].chain[ci].recs.len() < cap {
                        self.buckets[b].chain[ci]
                            .recs
                            .insert(i, Record::new(key, value));
                        self.write_page(page_no);
                        self.len += 1;
                        return None;
                    }
                }
            }
        }
        // Allocate a fresh overflow page at the end of the file.
        let page_no = self.next_overflow_page;
        self.next_overflow_page += 1;
        self.buckets[b].chain.push(OverflowPage {
            page_no,
            recs: vec![Record::new(key, value)],
        });
        self.write_page(page_no);
        self.len += 1;
        None
    }

    /// Looks up a key, chasing the overflow chain if necessary.
    pub fn get(&self, key: &K) -> Option<&V> {
        let b = self.bucket_of(key);
        self.read_page(b as u64);
        let bucket = &self.buckets[b];
        if let Ok(i) = bucket.primary.binary_search_by(|r| r.key.cmp(key)) {
            return Some(&bucket.primary[i].value);
        }
        for page in &bucket.chain {
            self.read_page(page.page_no);
            if let Ok(i) = page.recs.binary_search_by(|r| r.key.cmp(key)) {
                return Some(&page.recs[i].value);
            }
        }
        None
    }

    /// Deletes a key.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let b = self.bucket_of(key);
        self.read_page(b as u64);
        if let Ok(i) = self.buckets[b].primary.binary_search_by(|r| r.key.cmp(key)) {
            let rec = self.buckets[b].primary.remove(i);
            self.write_page(b as u64);
            self.len -= 1;
            return Some(rec.value);
        }
        for ci in 0..self.buckets[b].chain.len() {
            let page_no = self.buckets[b].chain[ci].page_no;
            self.read_page(page_no);
            if let Ok(i) = self.buckets[b].chain[ci]
                .recs
                .binary_search_by(|r| r.key.cmp(key))
            {
                let rec = self.buckets[b].chain[ci].recs.remove(i);
                self.write_page(page_no);
                self.len -= 1;
                return Some(rec.value);
            }
        }
        None
    }

    /// Streams up to `limit` records with keys ≥ `start` in key order.
    ///
    /// Every bucket in the range must merge its primary page with its
    /// entire overflow chain — each chain page a seek-distant read. This is
    /// where surged files fall apart.
    pub fn scan_from<F: FnMut(&K, &V)>(&self, start: &K, limit: usize, mut f: F) {
        let mut emitted = 0usize;
        let mut b = self.bucket_of(start);
        while emitted < limit && b < self.buckets.len() {
            let bucket = &self.buckets[b];
            if bucket.primary.is_empty() && bucket.chain.is_empty() {
                // Emptiness is partition-directory metadata (free).
                b += 1;
                continue;
            }
            self.read_page(b as u64);
            // Merge primary + chains in key order.
            let mut merged: Vec<&Record<K, V>> = bucket.primary.iter().collect();
            for page in &bucket.chain {
                self.read_page(page.page_no);
                merged.extend(page.recs.iter());
            }
            merged.sort_by_key(|a| a.key);
            for rec in merged {
                if rec.key < *start {
                    continue;
                }
                f(&rec.key, &rec.value);
                emitted += 1;
                if emitted >= limit {
                    break;
                }
            }
            b += 1;
        }
    }

    /// Rebuilds the file: merges every chain back into an even primary
    /// partition. `O(file)` page accesses, like any offline reorganization.
    pub fn reorganize(&mut self, fill: usize) {
        let mut all: Vec<Record<K, V>> = Vec::with_capacity(self.len as usize);
        for (i, bucket) in self.buckets.iter_mut().enumerate() {
            self.stats.charge_reads(1);
            self.trace.record(i as u64, AccessKind::Read);
            all.append(&mut bucket.primary);
            for mut page in bucket.chain.drain(..) {
                self.stats.charge_reads(1);
                self.trace.record(page.page_no, AccessKind::Read);
                all.append(&mut page.recs);
            }
        }
        all.sort_by_key(|a| a.key);
        let n_pages = self.buckets.len() as u64;
        self.stats.charge_writes(n_pages);
        self.len = 0;
        self.next_overflow_page = n_pages;
        let items: Vec<(K, V)> = all.into_iter().map(|r| (r.key, r.value)).collect();
        self.organize(items, fill);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded(pages: u32, cap: usize, n: u64) -> OverflowFile<u64, u64> {
        let mut f = OverflowFile::new(pages, cap);
        f.organize((0..n).map(|k| (k * 100, k)), cap / 2);
        f
    }

    #[test]
    fn organize_then_lookup() {
        let f = loaded(10, 8, 40);
        assert_eq!(f.len(), 40);
        assert_eq!(f.get(&300), Some(&3));
        assert_eq!(f.get(&301), None);
        assert_eq!(f.overflow_stats().overflow_pages, 0);
    }

    #[test]
    fn inserts_spill_to_overflow_chains() {
        let mut f = loaded(4, 4, 8); // fill 2 per page
                                     // Hammer one key region: bucket of key ~150 fills, then chains.
        for i in 0..20u64 {
            f.insert(150 + i, i);
        }
        assert_eq!(f.len(), 28);
        let s = f.overflow_stats();
        assert!(
            s.overflow_pages >= 4,
            "surge must build chains, got {:?}",
            s
        );
        assert!(s.longest_chain >= 4);
        // Everything is still findable.
        for i in 0..20u64 {
            assert_eq!(f.get(&(150 + i)), Some(&i));
        }
    }

    #[test]
    fn interleaved_chains_destroy_scan_locality() {
        use dsf_pagestore::disk::DiskModel;
        use dsf_pagestore::AccessEvent;
        // Strict adjacency: chain pages in a shared overflow area are not
        // physically contiguous with one another, so no read-through.
        let model = DiskModel {
            read_through_pages: 1,
            ..DiskModel::ibm3380_class()
        };
        // Arm movements under that model: the first access, and every
        // access that is neither the previous page nor the next one.
        let seeks = |t: &[AccessEvent]| {
            t.len().min(1)
                + t.windows(2)
                    .filter(|w| w[1].page != w[0].page && w[1].page != w[0].page + 1)
                    .count()
        };

        let mut f = loaded(8, 8, 32);
        f.trace().set_enabled(true);
        let mut n = 0;
        f.scan_from(&0, 32, |_, _| n += 1);
        assert_eq!(n, 32);
        let clean = f.trace().take();
        assert_eq!(
            seeks(&clean),
            1,
            "a clean primary scan is one sequential run"
        );

        // Surge across four neighbouring buckets so their overflow chains
        // interleave in allocation order — the workload class the paper's
        // introduction calls unmanageable for overflow heuristics.
        f.trace().set_enabled(false);
        for i in 0..80u64 {
            let bucket = i % 4; // buckets cover 400-wide key stripes
            f.insert(bucket * 400 + 2 + i, 0);
        }
        f.trace().set_enabled(true);
        let mut n = 0;
        f.scan_from(&0, 112, |_, _| n += 1);
        assert_eq!(n, 112);
        let surged = f.trace().take();
        assert!(
            seeks(&surged) >= 10 * seeks(&clean),
            "interleaved chains must shred locality: {} → {} seeks",
            seeks(&clean),
            seeks(&surged)
        );
        // Per-record disk time degrades even though per-record page counts
        // barely move — the cost is in the arm movement.
        let clean_ms = model.replay_ms(&clean) / 32.0;
        let surged_ms = model.replay_ms(&surged) / 112.0;
        assert!(
            surged_ms > 2.0 * clean_ms,
            "{clean_ms:.2} → {surged_ms:.2} ms/record"
        );
    }

    #[test]
    fn remove_searches_chains_too() {
        let mut f = loaded(2, 4, 4);
        for i in 0..10u64 {
            f.insert(10 + i, i);
        }
        assert_eq!(f.remove(&15), Some(5));
        assert_eq!(f.remove(&15), None);
        assert_eq!(f.get(&15), None);
    }

    #[test]
    fn reorganize_clears_chains() {
        let mut f = loaded(8, 8, 16);
        for i in 0..40u64 {
            f.insert(1 + i, 0);
        }
        assert!(f.overflow_stats().overflow_pages > 0);
        let len = f.len();
        f.reorganize(7);
        assert_eq!(f.len(), len);
        assert_eq!(f.overflow_stats().overflow_pages, 0);
        // Order is restored: a scan returns ascending keys.
        let mut keys = Vec::new();
        f.scan_from(&0, 1000, |k, _| keys.push(*k));
        assert_eq!(keys.len() as u64, len);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn replace_value_in_primary_and_chain() {
        let mut f = loaded(2, 4, 4);
        assert_eq!(f.insert(100, 99), Some(1)); // primary replace
        for i in 0..8u64 {
            f.insert(20 + i, i);
        }
        // key 27 is in a chain page now; replace it.
        let before_len = f.len();
        assert_eq!(f.insert(27, 77), Some(7));
        assert_eq!(f.len(), before_len);
        assert_eq!(f.get(&27), Some(&77));
    }
}
