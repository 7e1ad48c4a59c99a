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

use dsf_pagestore::{AccessKind, IoStats, Key, Record, TraceBuffer};
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
    segs: Vec<Vec<Record<K, V>>>,
    /// In-memory routing index: segment minimum key → segment (uncounted,
    /// like the paper's calibrator).
    index: BTreeMap<K, u32>,
    len: u64,
    stats: IoStats,
    trace: TraceBuffer,
}

impl<K: Key, V> AmortizedPma<K, V> {
    /// Creates an empty array.
    pub fn new(cfg: PmaConfig) -> Result<Self, PmaError> {
        if cfg.segments == 0 {
            return Err(PmaError::InvalidConfig("segments must be non-zero"));
        }
        if cfg.segment_capacity == 0 {
            return Err(PmaError::InvalidConfig("segment_capacity must be non-zero"));
        }
        if !(cfg.tau_root > 0.0 && cfg.tau_root <= cfg.tau_leaf && cfg.tau_leaf <= 1.0) {
            return Err(PmaError::InvalidConfig("need 0 < τ_root ≤ τ_leaf ≤ 1"));
        }
        if !(cfg.rho_leaf >= 0.0 && cfg.rho_leaf <= cfg.rho_root && cfg.rho_root < cfg.tau_root) {
            return Err(PmaError::InvalidConfig("need 0 ≤ ρ_leaf ≤ ρ_root < τ_root"));
        }
        let height = if cfg.segments <= 1 {
            0
        } else {
            32 - (cfg.segments - 1).leading_zeros()
        };
        Ok(AmortizedPma {
            cfg,
            height,
            segs: (0..cfg.segments).map(|_| Vec::new()).collect(),
            index: BTreeMap::new(),
            len: 0,
            stats: IoStats::new(),
            trace: TraceBuffer::new(),
        })
    }

    /// Records stored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The fixed capacity `N = ⌊τ_root · segments · segment_capacity⌋`.
    pub fn capacity(&self) -> u64 {
        (self.cfg.tau_root * f64::from(self.cfg.segments) * f64::from(self.cfg.segment_capacity))
            .floor() as u64
    }

    /// Page-access counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Optional physical access trace.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    fn read_seg(&self, s: u32) {
        self.stats.charge_reads(1);
        self.trace.record(u64::from(s), AccessKind::Read);
    }

    fn write_seg(&self, s: u32) {
        self.stats.charge_writes(1);
        self.trace.record(u64::from(s), AccessKind::Write);
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
        let new_min = self.segs[s as usize].first().map(|r| r.key);
        if old_min == new_min {
            return;
        }
        if let Some(k) = old_min {
            if self.index.get(&k) == Some(&s) {
                self.index.remove(&k);
            }
        }
        if let Some(k) = new_min {
            self.index.insert(k, s);
        }
    }

    /// The aligned window of `2^h` segments containing `s`, clamped to the
    /// array.
    fn window(&self, s: u32, h: u32) -> (u32, u32) {
        let size = 1u64 << h.min(31);
        let start = (u64::from(s) / size) * size;
        let end = (start + size).min(u64::from(self.cfg.segments));
        (start as u32, end as u32)
    }

    fn window_count(&self, lo: u32, hi: u32) -> u64 {
        (lo..hi).map(|s| self.segs[s as usize].len() as u64).sum()
    }

    fn tau(&self, h: u32) -> f64 {
        if self.height == 0 {
            return self.cfg.tau_root;
        }
        let t = f64::from(h) / f64::from(self.height);
        self.cfg.tau_leaf + (self.cfg.tau_root - self.cfg.tau_leaf) * t
    }

    fn rho(&self, h: u32) -> f64 {
        if self.height == 0 {
            return self.cfg.rho_root;
        }
        let t = f64::from(h) / f64::from(self.height);
        self.cfg.rho_leaf + (self.cfg.rho_root - self.cfg.rho_leaf) * t
    }

    fn density(&self, lo: u32, hi: u32) -> f64 {
        let cells = u64::from(hi - lo) * u64::from(self.cfg.segment_capacity);
        self.window_count(lo, hi) as f64 / cells as f64
    }

    /// Evenly redistributes the records of segments `[lo, hi)`, charging a
    /// read and a write per segment.
    fn rebalance(&mut self, lo: u32, hi: u32) {
        let mut all: Vec<Record<K, V>> = Vec::new();
        for s in lo..hi {
            let old_min = self.segs[s as usize].first().map(|r| r.key);
            if !self.segs[s as usize].is_empty() {
                self.read_seg(s);
            }
            let mut recs = std::mem::take(&mut self.segs[s as usize]);
            all.append(&mut recs);
            if let Some(k) = old_min {
                if self.index.get(&k) == Some(&s) {
                    self.index.remove(&k);
                }
            }
        }
        let n = all.len() as u64;
        let w = u64::from(hi - lo);
        let mut rest = all;
        for i in (0..w).rev() {
            let start = (n * i / w) as usize;
            let chunk = rest.split_off(start);
            let s = lo + i as u32;
            if !chunk.is_empty() {
                self.write_seg(s);
                self.index.insert(chunk[0].key, s);
            }
            self.segs[s as usize] = chunk;
        }
    }

    /// Inserts a record, returning the previous value on key collision.
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>, PmaError> {
        let s = self.route(&key);
        self.read_seg(s);
        let capacity = self.capacity();
        match self.segs[s as usize].binary_search_by(|r| r.key.cmp(&key)) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.segs[s as usize][i].value, value);
                self.write_seg(s);
                return Ok(Some(old));
            }
            Err(i) => {
                if self.len >= capacity {
                    return Err(PmaError::Full { capacity });
                }
                let old_min = self.segs[s as usize].first().map(|r| r.key);
                self.segs[s as usize].insert(i, Record::new(key, value));
                self.write_seg(s);
                self.len += 1;
                self.refresh_index(s, old_min);
            }
        }
        // Rebalance the smallest enclosing window back inside its band.
        let mut h = 0;
        loop {
            let (lo, hi) = self.window(s, h);
            if self.density(lo, hi) <= self.tau(h) {
                if h > 0 {
                    self.rebalance(lo, hi);
                }
                break;
            }
            debug_assert!(
                h <= self.height,
                "capacity gate keeps the root within τ_root"
            );
            h += 1;
        }
        Ok(None)
    }

    /// Deletes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let s = self.route(key);
        self.read_seg(s);
        let seg = &mut self.segs[s as usize];
        let i = seg.binary_search_by(|r| r.key.cmp(key)).ok()?;
        let old_min = seg.first().map(|r| r.key);
        let rec = seg.remove(i);
        self.write_seg(s);
        self.len -= 1;
        self.refresh_index(s, old_min);
        // Rebalance the smallest enclosing window that is still dense
        // enough; a root below ρ_root is left alone (fixed footprint).
        let mut h = 0;
        loop {
            let (lo, hi) = self.window(s, h);
            if self.density(lo, hi) >= self.rho(h) {
                if h > 0 {
                    self.rebalance(lo, hi);
                }
                break;
            }
            if h >= self.height {
                break;
            }
            h += 1;
        }
        Some(rec.value)
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        if self.len == 0 {
            return None;
        }
        let s = self.route(key);
        self.read_seg(s);
        let seg = &self.segs[s as usize];
        seg.binary_search_by(|r| r.key.cmp(key))
            .ok()
            .map(|i| &seg[i].value)
    }

    /// Bulk-loads strictly-ascending records at even density (offline
    /// build; free).
    ///
    /// # Panics
    ///
    /// Panics on a non-empty array, unsorted input, or overflow.
    pub fn bulk_load<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (K, V)>,
    {
        assert!(self.len == 0, "bulk_load requires an empty array");
        let mut recs: Vec<Record<K, V>> = Vec::new();
        for (k, v) in items {
            if let Some(prev) = recs.last() {
                assert!(prev.key < k, "bulk_load input must be strictly ascending");
            }
            recs.push(Record::new(k, v));
        }
        let n = recs.len() as u64;
        assert!(n <= self.capacity(), "bulk_load exceeds capacity");
        self.len = n;
        let w = u64::from(self.cfg.segments);
        let mut rest = recs;
        for i in (0..w).rev() {
            let start = (n * i / w) as usize;
            let chunk = rest.split_off(start);
            let s = i as u32;
            if let Some(first) = chunk.first() {
                self.index.insert(first.key, s);
            }
            self.segs[s as usize] = chunk;
        }
    }

    /// Streams up to `limit` records with keys ≥ `start` in key order,
    /// charging one read per populated segment visited.
    pub fn scan_from<F: FnMut(&K, &V)>(&self, start: &K, limit: usize, mut f: F) {
        let mut emitted = 0usize;
        let first = self.route(start);
        for s in first..self.cfg.segments {
            if emitted >= limit {
                return;
            }
            let seg = &self.segs[s as usize];
            if seg.is_empty() {
                continue; // emptiness is index metadata
            }
            self.read_seg(s);
            for rec in seg {
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
        for (s, seg) in self.segs.iter().enumerate() {
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
                if self.index.get(&first.key) != Some(&(s as u32)) {
                    return Err(format!("index missing/incorrect for segment {s}"));
                }
            }
        }
        if total != self.len {
            return Err(format!("len {} but segments hold {total}", self.len));
        }
        if self.index.len() != self.segs.iter().filter(|s| !s.is_empty()).count() {
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
