//! An amortized two-threshold Packed Memory Array.
//!
//! The modern descendant of this paper's CONTROL 1 (via Itai-Konheim-Rodeh's
//! sparse table and Bender et al.'s PMA): segments of a gapped array with
//! *height-interpolated* density thresholds. A window of `2^h` aligned
//! segments at height `h` must keep its density within `[ρ_h, τ_h]`, where
//! `τ` tightens and `ρ` loosens towards the leaves:
//!
//! ```text
//! τ_h = τ_leaf + (τ_root − τ_leaf)·h/H      (τ_root < τ_leaf)
//! ρ_h = ρ_leaf + (ρ_root − ρ_leaf)·h/H      (ρ_leaf < ρ_root)
//! ```
//!
//! An update that pushes its segment outside the band rebalances the
//! smallest enclosing window that is back inside the band — a one-shot even
//! redistribution, `O(window)` page accesses. Amortized this is
//! `O(log²N/B)`-ish; worst case it is `O(M)`, the exact spike CONTROL 2
//! de-amortizes. The `exp_amortized_vs_worstcase` experiment plots both.
//!
//! The segments live in a [`PagedStore`] with one single-page slot per
//! segment, and a rebalance is [`PagedStore::redistribute`], the kernel
//! CONTROL 1 uses too: the PMA's page charges come from the same code as
//! the dense file's. A lookup, insert or remove charges one read of its
//! segment (the store's binary search) plus one write when it changes it;
//! a rebalance reads every non-empty segment of its window and writes
//! every segment it fills; a scan reads each non-empty segment it visits.
//! The store treats an empty segment as metadata, so an insert into an
//! empty array charges no read.

use dsf_pagestore::{IoStats, Key, PagedStore, Record, StoreConfig, TraceBuffer};
use std::collections::BTreeMap;

/// Sizing and thresholds of an [`AmortizedPma`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmaConfig {
    /// Number of segments; each segment is one physical page.
    pub segments: u32,
    /// Cells (record slots) per segment — the page capacity `D`.
    pub segment_capacity: u32,
    /// Upper density bound of a single segment (`τ_0`).
    pub tau_leaf: f64,
    /// Upper density bound of the whole array (`τ_H`); also fixes the
    /// capacity `N = ⌊τ_H · segments · segment_capacity⌋`.
    pub tau_root: f64,
    /// Lower density bound of a single segment (`ρ_0`).
    pub rho_leaf: f64,
    /// Lower density bound of the whole array (`ρ_H`).
    pub rho_root: f64,
}

impl PmaConfig {
    /// A conventional parameterization for a given page geometry, chosen so
    /// the capacity matches a `(d,D)`-dense file of the same footprint
    /// (`τ_root = d/D`).
    pub fn for_pages(segments: u32, page_capacity: u32, min_density: u32) -> Self {
        PmaConfig {
            segments,
            segment_capacity: page_capacity,
            tau_leaf: 0.92,
            tau_root: f64::from(min_density) / f64::from(page_capacity),
            rho_leaf: 0.05,
            rho_root: 0.15,
        }
    }
}

/// Errors raised by [`AmortizedPma`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmaError {
    /// A sizing/threshold parameter is out of range.
    InvalidConfig(&'static str),
    /// The array is at its fixed capacity.
    Full {
        /// The capacity `N = ⌊τ_root · cells⌋`.
        capacity: u64,
    },
}

impl std::fmt::Display for PmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PmaError::InvalidConfig(what) => write!(f, "invalid PMA config: {what}"),
            PmaError::Full { capacity } => write!(f, "PMA is at its capacity of {capacity}"),
        }
    }
}

impl std::error::Error for PmaError {}

/// An amortized packed memory array over accounted pages.
#[derive(Debug)]
pub struct AmortizedPma<K, V> {
    cfg: PmaConfig,
    height: u32,
    /// One slot per segment, one page per slot.
    store: PagedStore<K, V>,
    /// In-memory routing index: segment minimum key → segment (uncounted,
    /// like the paper's calibrator).
    index: BTreeMap<K, u32>,
}

impl<K: Key, V> AmortizedPma<K, V> {
    /// Creates an empty array.
    pub fn new(cfg: PmaConfig) -> Result<Self, PmaError> {
        if !(cfg.tau_root > 0.0 && cfg.tau_root <= cfg.tau_leaf && cfg.tau_leaf <= 1.0) {
            return Err(PmaError::InvalidConfig("need 0 < τ_root ≤ τ_leaf ≤ 1"));
        }
        if !(cfg.rho_leaf >= 0.0 && cfg.rho_leaf <= cfg.rho_root && cfg.rho_root < cfg.tau_root) {
            return Err(PmaError::InvalidConfig("need 0 ≤ ρ_leaf ≤ ρ_root < τ_root"));
        }
        let store = PagedStore::new(StoreConfig {
            slots: cfg.segments,
            pages_per_slot: 1,
            page_capacity: cfg.segment_capacity,
        })
        .map_err(|_| PmaError::InvalidConfig("segments and segment_capacity must be non-zero"))?;
        Ok(AmortizedPma {
            cfg,
            // ⌈log₂ segments⌉; the store refused zero segments.
            height: u32::BITS - (cfg.segments - 1).leading_zeros(),
            store,
            index: BTreeMap::new(),
        })
    }

    /// Records stored.
    pub fn len(&self) -> u64 {
        self.store.total_records() as u64
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fixed capacity `N = ⌊τ_root · segments · segment_capacity⌋`.
    pub fn capacity(&self) -> u64 {
        (self.cfg.tau_root * f64::from(self.cfg.segments) * f64::from(self.cfg.segment_capacity))
            .floor() as u64
    }

    /// Page-access counters (the store's).
    pub fn stats(&self) -> &IoStats {
        self.store.stats()
    }

    /// Optional physical access trace (the store's).
    pub fn trace(&self) -> &TraceBuffer {
        self.store.trace()
    }

    /// Routes `key` to the segment holding its predecessor (or the first
    /// populated segment, or the middle of an empty array).
    fn route(&self, key: &K) -> u32 {
        if let Some((_, &s)) = self.index.range(..=*key).next_back() {
            return s;
        }
        if let Some((_, &s)) = self.index.iter().next() {
            return s;
        }
        self.cfg.segments / 2
    }

    fn refresh_index(&mut self, s: u32, old_min: Option<K>) {
        let new_min = self.store.min_key(s);
        if old_min == new_min {
            return;
        }
        if let Some(k) = old_min {
            self.index.remove(&k);
        }
        if let Some(k) = new_min {
            self.index.insert(k, s);
        }
    }

    /// Indexes the minimum of every non-empty segment in `[lo, hi)`.
    fn index_segments(&mut self, lo: u32, hi: u32) {
        for s in lo..hi {
            if let Some(k) = self.store.min_key(s) {
                self.index.insert(k, s);
            }
        }
    }

    /// Evenly redistributes the smallest aligned window of `2^h` segments
    /// around segment `s` (clamped to the array) whose density `d` is
    /// `in_band(d, t)` for its height's threshold `t`, interpolated from
    /// `leaf` to `root` (a one-segment array is all root). The move is one
    /// [`PagedStore::redistribute`]: a read per non-empty segment, then a
    /// write per filled one. Nothing moves if that window is `s` alone, or
    /// if no window up to the root is in band.
    fn rebalance_around(&mut self, s: u32, leaf: f64, root: f64, in_band: fn(f64, f64) -> bool) {
        for h in 0..=self.height {
            let t = if self.height == 0 {
                root
            } else {
                leaf + (root - leaf) * (f64::from(h) / f64::from(self.height))
            };
            let size = 1u64 << h;
            let lo = u64::from(s) / size * size;
            let hi = (lo + size).min(u64::from(self.cfg.segments));
            let (lo, hi) = (lo as u32, hi as u32);
            let count: usize = (lo..hi).map(|seg| self.store.len(seg)).sum();
            let cells = u64::from(hi - lo) * u64::from(self.cfg.segment_capacity);
            if !in_band(count as f64 / cells as f64, t) {
                continue;
            }
            if h > 0 {
                for seg in lo..hi {
                    if let Some(k) = self.store.min_key(seg) {
                        self.index.remove(&k);
                    }
                }
                self.store.redistribute(lo, hi - lo);
                self.index_segments(lo, hi);
            }
            return;
        }
    }

    /// Inserts a record, returning the previous value on key collision.
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>, PmaError> {
        let s = self.route(&key);
        match self.store.search(s, &key) {
            Ok(i) => return Ok(Some(self.store.replace_at(s, i, value))),
            Err(i) => {
                let capacity = self.capacity();
                if self.len() >= capacity {
                    return Err(PmaError::Full { capacity });
                }
                let old_min = self.store.min_key(s);
                self.store.insert_searched(s, i, key, value);
                self.refresh_index(s, old_min);
            }
        }
        // Rebalance the smallest enclosing window back under its τ (the
        // capacity gate keeps the root there).
        let c = self.cfg;
        self.rebalance_around(s, c.tau_leaf, c.tau_root, |d, tau| d <= tau);
        Ok(None)
    }

    /// Deletes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let s = self.route(key);
        let old_min = self.store.min_key(s);
        let value = self.store.remove(s, key)?;
        self.refresh_index(s, old_min);
        // Rebalance the smallest enclosing window that is still dense
        // enough; a root below ρ_root is left alone (fixed footprint).
        let c = self.cfg;
        self.rebalance_around(s, c.rho_leaf, c.rho_root, |d, rho| d >= rho);
        Some(value)
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.store.get(self.route(key), key)
    }

    /// Bulk-loads strictly-ascending records at even density: one
    /// [`PagedStore::spread`] over every segment, charging a write per
    /// filled segment, as `DenseFile::bulk_load` charges its pages.
    ///
    /// # Panics
    ///
    /// Panics on a non-empty array, unsorted input, or overflow.
    pub fn bulk_load<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        assert!(self.is_empty(), "bulk_load requires an empty array");
        let mut recs: Vec<Record<K, V>> = Vec::new();
        for (k, v) in items {
            if let Some(prev) = recs.last() {
                assert!(prev.key < k, "bulk_load input must be strictly ascending");
            }
            recs.push(Record::new(k, v));
        }
        let n = recs.len();
        assert!(n as u64 <= self.capacity(), "bulk_load exceeds capacity");
        self.store
            .spread(0, self.cfg.segments, n, recs)
            .expect("a Vec yields exactly its length");
        self.index_segments(0, self.cfg.segments);
    }

    /// Streams up to `limit` records with keys ≥ `start` in key order,
    /// charging one read per populated segment visited.
    pub fn scan_from<F: FnMut(&K, &V)>(&self, start: &K, limit: usize, mut f: F) {
        let mut emitted = 0usize;
        for s in self.route(start)..self.cfg.segments {
            if emitted >= limit {
                return;
            }
            if self.store.is_empty(s) {
                continue; // emptiness is index metadata
            }
            for rec in self.store.read_page(s, 0) {
                if rec.key < *start {
                    continue;
                }
                f(&rec.key, &rec.value);
                emitted += 1;
                if emitted >= limit {
                    return;
                }
            }
        }
    }

    /// Structural self-check (tests): global order, per-segment capacity,
    /// index consistency, len consistency.
    pub fn check_structure(&self) -> Result<(), String> {
        let mut prev: Option<K> = None;
        let mut total = 0u64;
        let mut populated = 0;
        for s in 0..self.cfg.segments {
            let seg = self.store.peek_slot(s);
            if seg.len() > self.cfg.segment_capacity as usize {
                return Err(format!("segment {s} over capacity: {}", seg.len()));
            }
            for r in seg {
                if let Some(p) = prev {
                    if p >= r.key {
                        return Err(format!("order violated at segment {s}"));
                    }
                }
                prev = Some(r.key);
                total += 1;
            }
            if let Some(first) = seg.first() {
                populated += 1;
                if self.index.get(&first.key) != Some(&s) {
                    return Err(format!("index missing/incorrect for segment {s}"));
                }
            }
        }
        if total != self.len() {
            return Err(format!("len {} but segments hold {total}", self.len()));
        }
        if self.index.len() != populated {
            return Err("index size mismatch".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pma(segments: u32, cap: u32, d: u32) -> AmortizedPma<u64, u64> {
        AmortizedPma::new(PmaConfig::for_pages(segments, cap, d)).unwrap()
    }

    #[test]
    fn config_validation() {
        let mut c = PmaConfig::for_pages(8, 16, 8);
        c.tau_root = 1.5;
        assert!(AmortizedPma::<u64, u64>::new(c).is_err());
        let mut c = PmaConfig::for_pages(8, 16, 8);
        c.rho_root = 0.9;
        assert!(AmortizedPma::<u64, u64>::new(c).is_err());
        assert!(AmortizedPma::<u64, u64>::new(PmaConfig::for_pages(0, 16, 8)).is_err());
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut p = pma(16, 16, 8);
        for k in 0..100u64 {
            assert_eq!(p.insert(k * 7, k).unwrap(), None);
            p.check_structure().unwrap();
        }
        assert_eq!(p.len(), 100);
        for k in 0..100u64 {
            assert_eq!(p.get(&(k * 7)), Some(&k));
        }
        assert_eq!(p.insert(7, 999).unwrap(), Some(1));
        for k in 0..100u64 {
            assert_eq!(p.remove(&(k * 7)), Some(if k == 1 { 999 } else { k }));
            p.check_structure().unwrap();
        }
        assert!(p.is_empty());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut p = pma(4, 8, 4); // capacity = 0.5·32 = 16
        assert_eq!(p.capacity(), 16);
        for k in 0..16u64 {
            p.insert(k, k).unwrap();
        }
        assert_eq!(p.insert(99, 0), Err(PmaError::Full { capacity: 16 }));
        // Replacement is still allowed at capacity.
        assert_eq!(p.insert(5, 55).unwrap(), Some(5));
    }

    #[test]
    fn hammering_triggers_window_rebalances() {
        let mut p = pma(64, 16, 8);
        p.bulk_load((0..400u64).map(|k| (k * 1_000_000, k)));
        p.check_structure().unwrap();
        let mut rebalanced = false;
        for i in 0..100u64 {
            let snap = p.stats().snapshot();
            p.insert(500 + i, 0).unwrap();
            // A plain insert reads and writes its own segment; anything
            // more is a window rebalance.
            rebalanced |= p.stats().since(snap).accesses() > 2;
            p.check_structure().unwrap();
        }
        assert!(rebalanced);
    }

    #[test]
    fn amortized_profile_has_spikes() {
        let mut p = pma(128, 16, 8); // capacity 1024
        p.bulk_load((0..800u64).map(|k| (k << 20, k)));
        let mut max_cost = 0u64;
        let mut total = 0u64;
        let mut n = 0u64;
        for i in 0..200u64 {
            let snap = p.stats().snapshot();
            p.insert((1 << 19) + i, 0).unwrap();
            let c = p.stats().since(snap).accesses();
            max_cost = max_cost.max(c);
            total += c;
            n += 1;
        }
        let mean = total as f64 / n as f64;
        assert!(
            max_cost as f64 > 3.0 * mean,
            "PMA spikes: max {max_cost} mean {mean:.1}"
        );
    }

    #[test]
    fn scan_is_ordered_and_complete() {
        let mut p = pma(32, 8, 4);
        p.bulk_load((0..100u64).map(|k| (k * 3, k)));
        let mut keys = Vec::new();
        p.scan_from(&30, 50, |k, _| keys.push(*k));
        assert_eq!(keys.len(), 50);
        assert_eq!(keys[0], 30);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deletes_rebalance_sparse_windows() {
        let mut p = pma(32, 16, 8);
        let cap = p.capacity();
        for k in 0..cap {
            p.insert(k, k).unwrap();
        }
        // Drain one half completely; sparse windows must rebalance without
        // breaking structure.
        for k in 0..cap / 2 {
            p.remove(&k).unwrap();
            p.check_structure().unwrap();
        }
        assert_eq!(p.len(), cap / 2);
    }

    #[test]
    fn empty_array_operations() {
        let mut p = pma(8, 8, 4);
        assert_eq!(p.get(&5), None);
        assert_eq!(p.remove(&5), None);
        let mut n = 0;
        p.scan_from(&0, 10, |_, _| n += 1);
        assert_eq!(n, 0);
        p.insert(5, 5).unwrap();
        assert_eq!(p.get(&5), Some(&5));
    }
}
