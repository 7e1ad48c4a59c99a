//! The paged store: slots of sorted records packed into physical pages.
//!
//! A *slot* is the unit the maintenance algorithms address. In the paper's
//! base regime one slot is one physical page. In the macro-block regime
//! (Theorem 5.7) one slot spans `K` consecutive physical pages whose records
//! are kept packed left-to-right at ≤ `page_capacity` records per page; every
//! slot operation charges the physical pages it actually touches, which is
//! what makes macro-block operations "K times as costly" exactly as the
//! paper requires.
//!
//! Records move once. SHIFT's transfer is one
//! [`PagedStore::move_records`] call, which drains SOURCE's end straight
//! into DEST (it replaced a `take` that returned the records in a new `Vec`
//! and a `put` that appended them); an even spread is one
//! [`PagedStore::spread`] call, which moves each record from its input
//! stream straight into its final slot. [`PagedStore::redistribute`]
//! evens out a range of slots (drains it into one `Vec`, then spreads
//! that): it is the one rebalance of both amortized structures, CONTROL 1
//! and the PMA baseline, so their page charges come from the same code.

use crate::record::{Key, Record};
use crate::stats::IoStats;
use crate::trace::{AccessKind, TraceBuffer};

/// Index of a slot (logical page / macro-block) in a [`PagedStore`].
pub type SlotId = u32;

/// Sizing parameters for a [`PagedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of slots (the calibrator's `M`).
    pub slots: u32,
    /// Physical pages per slot (the paper's `K`; 1 in the base regime).
    pub pages_per_slot: u32,
    /// Records per physical page (the paper's `D` in the base regime).
    pub page_capacity: u32,
}

/// Errors raised by store construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A sizing parameter was zero.
    ZeroParameter(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::ZeroParameter(p) => write!(f, "store parameter `{p}` must be non-zero"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Which end of SOURCE a [`PagedStore::move_records`] takes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The low-key end.
    Front,
    /// The high-key end.
    Back,
}

/// An in-memory array of slots with page-access accounting.
///
/// Counted operations charge [`IoStats`] (and the optional [`TraceBuffer`])
/// for every physical page they touch. Metadata (`len`, `min_key`,
/// `max_key`, `total_records`) is free — the dense-file algorithms mirror it
/// in the in-memory calibrator. `peek_*` methods are free and reserved for
/// invariant checkers and tests.
#[derive(Debug)]
pub struct PagedStore<K, V> {
    cfg: StoreConfig,
    slots: Vec<Vec<Record<K, V>>>,
    total: usize,
    stats: IoStats,
    trace: TraceBuffer,
    /// Slots mutated since the last [`PagedStore::take_dirty_slots`] drain.
    /// `None` (the default) disables tracking so plain stores pay only one
    /// branch per mutation; the optimistic read view enables it to know
    /// which slot snapshots to republish at command or batch end.
    dirty: Option<Vec<SlotId>>,
}

impl<K: Key, V> PagedStore<K, V> {
    /// Creates an empty store.
    pub fn new(cfg: StoreConfig) -> Result<Self, StoreError> {
        if cfg.slots == 0 {
            return Err(StoreError::ZeroParameter("slots"));
        }
        if cfg.pages_per_slot == 0 {
            return Err(StoreError::ZeroParameter("pages_per_slot"));
        }
        if cfg.page_capacity == 0 {
            return Err(StoreError::ZeroParameter("page_capacity"));
        }
        Ok(PagedStore {
            cfg,
            slots: (0..cfg.slots).map(|_| Vec::new()).collect(),
            total: 0,
            stats: IoStats::new(),
            trace: TraceBuffer::new(),
            dirty: None,
        })
    }

    /// Starts recording which slots each mutation touches. Idempotent.
    pub fn enable_dirty_tracking(&mut self) {
        if self.dirty.is_none() {
            self.dirty = Some(Vec::new());
        }
    }

    /// Drains the set of slots mutated since the last drain into `out`,
    /// sorted and deduplicated; `out` ends empty when tracking is disabled.
    /// `out`'s old contents are discarded and its buffer becomes the
    /// tracker's, so a caller that passes the same buffer back each time
    /// drains without allocating once both buffers have grown.
    pub fn take_dirty_slots(&mut self, out: &mut Vec<SlotId>) {
        out.clear();
        if let Some(d) = self.dirty.as_mut() {
            std::mem::swap(d, out);
            out.sort_unstable();
            out.dedup();
        }
    }

    #[inline]
    fn mark_dirty(&mut self, slot: SlotId) {
        if let Some(d) = self.dirty.as_mut() {
            d.push(slot);
        }
    }

    /// Sizing parameters.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Number of slots.
    pub fn slots(&self) -> u32 {
        self.cfg.slots
    }

    /// Total number of physical pages (`slots × pages_per_slot`).
    pub fn total_pages(&self) -> u64 {
        u64::from(self.cfg.slots) * u64::from(self.cfg.pages_per_slot)
    }

    /// The access counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The optional access trace.
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    // ------------------------------------------------------------------
    // Free metadata.
    // ------------------------------------------------------------------

    /// Record count of `slot` (free: mirrored in the calibrator).
    pub fn len(&self, slot: SlotId) -> usize {
        self.slots[slot as usize].len()
    }

    /// Whether `slot` holds no records (free).
    pub fn is_empty(&self, slot: SlotId) -> bool {
        self.slots[slot as usize].is_empty()
    }

    /// Smallest key in `slot` (free: mirrored in the calibrator).
    pub fn min_key(&self, slot: SlotId) -> Option<K> {
        self.slots[slot as usize].first().map(|r| r.key)
    }

    /// Largest key in `slot` (free: mirrored in the calibrator).
    pub fn max_key(&self, slot: SlotId) -> Option<K> {
        self.slots[slot as usize].last().map(|r| r.key)
    }

    /// Total records across all slots (free).
    pub fn total_records(&self) -> usize {
        self.total
    }

    /// Raw slot contents. **Free — invariant checkers and tests only.**
    pub fn peek_slot(&self, slot: SlotId) -> &[Record<K, V>] {
        &self.slots[slot as usize]
    }

    // ------------------------------------------------------------------
    // Physical page geometry.
    // ------------------------------------------------------------------

    /// Physical page (within the slot) that holds record index `idx`.
    ///
    /// Records are packed left-to-right at `page_capacity` per page; a
    /// transient overflow beyond `pages_per_slot × page_capacity` is clamped
    /// onto the last page of the slot.
    fn page_within_slot(&self, idx: usize) -> u64 {
        let p = idx as u64 / u64::from(self.cfg.page_capacity);
        p.min(u64::from(self.cfg.pages_per_slot) - 1)
    }

    /// Global physical page number of record index `idx` in `slot`.
    fn global_page(&self, slot: SlotId, idx: usize) -> u64 {
        u64::from(slot) * u64::from(self.cfg.pages_per_slot) + self.page_within_slot(idx)
    }

    /// Charges one access per distinct physical page spanned by the record
    /// index range `lo..hi` of `slot`.
    fn charge_span(&self, slot: SlotId, lo: usize, hi: usize, kind: AccessKind) {
        if lo >= hi {
            return;
        }
        let first = self.page_within_slot(lo);
        let last = self.page_within_slot(hi - 1);
        let n = last - first + 1;
        match kind {
            AccessKind::Read => self.stats.charge_reads(n),
            AccessKind::Write => self.stats.charge_writes(n),
        }
        if self.trace.is_enabled() {
            let base = u64::from(slot) * u64::from(self.cfg.pages_per_slot);
            // One pre-formed run: a span is consecutive pages by
            // construction, so the trace's run log keeps it whole (and can
            // merge it with an adjacent span from the same sweep).
            self.trace.record_run(base + first, n, kind);
        }
    }

    /// Charges a read of the single page holding record index `idx`.
    fn charge_point_read(&self, slot: SlotId, idx: usize) {
        self.stats.charge_reads(1);
        self.trace
            .record(self.global_page(slot, idx), AccessKind::Read);
    }

    // ------------------------------------------------------------------
    // Counted operations.
    // ------------------------------------------------------------------

    /// Binary-searches `slot` for `key`, charging one read per distinct
    /// physical page probed.
    ///
    /// Returns `Ok(idx)` when the key is present, `Err(idx)` with the
    /// insertion index otherwise. An empty slot charges nothing — its
    /// emptiness is calibrator metadata.
    pub fn search(&self, slot: SlotId, key: &K) -> Result<usize, usize> {
        let recs = &self.slots[slot as usize];
        if recs.is_empty() {
            return Err(0);
        }
        // Simulate the probe sequence to charge the distinct pages touched.
        // A slot spans at most pages_per_slot pages, and a binary search
        // touches O(log) of them; a seen-list on the stack keeps each one
        // charged exactly once even when probes revisit a page
        // non-consecutively. A binary search over a `usize` range makes
        // at most 64 probes, so 64 entries always suffice.
        let (mut lo, mut hi) = (0usize, recs.len());
        let mut seen = [0u64; usize::BITS as usize];
        let mut n_seen = 0;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let page = self.page_within_slot(mid);
            if !seen[..n_seen].contains(&page) {
                self.charge_point_read(slot, mid);
                seen[n_seen] = page;
                n_seen += 1;
            }
            match recs[mid].key.cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Looks up `key` in `slot`, charging like [`PagedStore::search`].
    pub fn get(&self, slot: SlotId, key: &K) -> Option<&V> {
        match self.search(slot, key) {
            Ok(idx) => Some(&self.slots[slot as usize][idx].value),
            Err(_) => None,
        }
    }

    /// Inserts (or replaces) `key` in `slot`.
    ///
    /// Charges the search reads plus writes for the suffix pages shifted by
    /// the insertion (one page in the base regime). Returns the previous
    /// value if the key was already present.
    pub fn insert(&mut self, slot: SlotId, key: K, value: V) -> Option<V> {
        match self.search(slot, &key) {
            Ok(idx) => {
                self.charge_span(slot, idx, idx + 1, AccessKind::Write);
                let old = std::mem::replace(&mut self.slots[slot as usize][idx].value, value);
                self.mark_dirty(slot);
                Some(old)
            }
            Err(idx) => {
                let new_len = self.slots[slot as usize].len() + 1;
                self.charge_span(slot, idx, new_len, AccessKind::Write);
                self.slots[slot as usize].insert(idx, Record::new(key, value));
                self.total += 1;
                self.mark_dirty(slot);
                None
            }
        }
    }

    /// Inserts a record at a known position `idx` (as returned by a prior
    /// [`PagedStore::search`] `Err`), charging only the suffix writes.
    ///
    /// Callers that must inspect the search result before committing (e.g.
    /// to enforce a file-level capacity bound) use this to avoid paying the
    /// search twice.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `idx` is not the correct sorted position
    /// for `key` within `slot`.
    pub fn insert_searched(&mut self, slot: SlotId, idx: usize, key: K, value: V) {
        let recs = &self.slots[slot as usize];
        debug_assert!(
            idx == 0 || recs[idx - 1].key < key,
            "insert_searched: bad position"
        );
        debug_assert!(
            idx == recs.len() || key < recs[idx].key,
            "insert_searched: bad position"
        );
        let new_len = recs.len() + 1;
        self.charge_span(slot, idx, new_len, AccessKind::Write);
        self.slots[slot as usize].insert(idx, Record::new(key, value));
        self.total += 1;
        self.mark_dirty(slot);
    }

    /// Replaces the value at a known position `idx`, charging one page
    /// write. Returns the previous value.
    pub fn replace_at(&mut self, slot: SlotId, idx: usize, value: V) -> V {
        self.charge_span(slot, idx, idx + 1, AccessKind::Write);
        self.mark_dirty(slot);
        std::mem::replace(&mut self.slots[slot as usize][idx].value, value)
    }

    /// Removes `key` from `slot`, charging the search reads plus writes for
    /// the suffix pages shifted by the removal.
    pub fn remove(&mut self, slot: SlotId, key: &K) -> Option<V> {
        match self.search(slot, key) {
            Ok(idx) => {
                let old_len = self.slots[slot as usize].len();
                self.charge_span(slot, idx, old_len, AccessKind::Write);
                let rec = self.slots[slot as usize].remove(idx);
                self.total -= 1;
                self.mark_dirty(slot);
                Some(rec.value)
            }
            Err(_) => None,
        }
    }

    /// Moves up to `n` records from one end of `source` to the facing end
    /// of `dest` — SHIFT's data movement — straight from slot to slot, with
    /// no buffer in between. Returns the number moved (`n` clamped to
    /// `source`'s length; moving none charges nothing).
    ///
    /// `Front` moves `source`'s lowest keys onto the back of `dest`, whose
    /// keys must all be smaller; `Back` moves its highest keys onto the
    /// front of `dest`, whose keys must all be larger. The charges come in
    /// this order:
    ///
    /// 1. a read of the pages the departing records occupied;
    /// 2. a write of `source`'s rewritten pages — the whole packed slot for
    ///    `Front` (the remaining records shift left), only the vacated tail
    ///    pages for `Back`;
    /// 3. a write of `dest`'s rewritten pages — from the page holding its
    ///    current last record to its new end for `Front` (that page may be
    ///    appended into), the whole packed slot for `Back` (the existing
    ///    records shift right).
    ///
    /// `dest` reallocates only when its capacity runs out.
    ///
    /// # Panics
    ///
    /// If `source == dest`; in debug builds, if the moved keys do not fit
    /// `dest`'s order.
    pub fn move_records(&mut self, source: SlotId, dest: SlotId, n: usize, from: End) -> usize {
        let len = self.slots[source as usize].len();
        let n = n.min(len);
        if n == 0 {
            return 0;
        }
        let dest_len = self.slots[dest as usize].len();
        match from {
            End::Front => {
                self.charge_span(source, 0, n, AccessKind::Read);
                self.charge_span(source, 0, len, AccessKind::Write);
                self.charge_span(
                    dest,
                    dest_len.saturating_sub(1),
                    dest_len + n,
                    AccessKind::Write,
                );
            }
            End::Back => {
                self.charge_span(source, len - n, len, AccessKind::Read);
                self.charge_span(source, len - n, len, AccessKind::Write);
                self.charge_span(dest, 0, dest_len + n, AccessKind::Write);
            }
        }
        let [src, dst] = self
            .slots
            .get_disjoint_mut([source as usize, dest as usize])
            .expect("move_records: source and dest must be distinct slots");
        match from {
            End::Front => {
                debug_assert!(
                    dst.last().is_none_or(|m| m.key < src[0].key),
                    "move_records(Front): keys must exceed dest's maximum"
                );
                dst.extend(src.drain(..n));
            }
            End::Back => {
                debug_assert!(
                    dst.first().is_none_or(|m| src[len - 1].key < m.key),
                    "move_records(Back): keys must precede dest's minimum"
                );
                dst.splice(0..0, src.drain(len - n..));
            }
        }
        self.mark_dirty(source);
        self.mark_dirty(dest);
        n
    }

    /// Reads and removes every record of `slot`, charging one read per
    /// non-empty page. This is the read half of [`PagedStore::redistribute`],
    /// the rebalance of CONTROL 1 and of the PMA baseline (which keeps its
    /// segments in a `PagedStore` and charges through it), and how the
    /// offline passes drain slots.
    pub fn take_all(&mut self, slot: SlotId) -> Vec<Record<K, V>> {
        let len = self.slots[slot as usize].len();
        self.charge_span(slot, 0, len, AccessKind::Read);
        self.total -= len;
        self.mark_dirty(slot);
        std::mem::take(&mut self.slots[slot as usize])
    }

    /// Spreads exactly `n` ascending records evenly over the empty slots
    /// `first..first + width`: slot `first + i` receives records
    /// `[n·i/width, n·(i+1)/width)`, moved straight from `records` into a
    /// `Vec` of exactly that length, lowest slot first. Then charges, lowest
    /// slot first, one write per page each slot's new contents cover — what
    /// [`PagedStore::replace`] charges on an empty slot.
    ///
    /// All or nothing: if `records` yields fewer or more than `n` records,
    /// the slots are left empty, nothing is charged, and `Err` carries the
    /// number drawn (`n + 1` when the input ran long; no more is drawn).
    pub fn spread<I>(
        &mut self,
        first: SlotId,
        width: u32,
        n: usize,
        records: I,
    ) -> Result<(), usize>
    where
        I: IntoIterator<Item = Record<K, V>>,
    {
        let mut records = records.into_iter();
        let span = first as usize..first as usize + width as usize;
        debug_assert!(
            self.slots[span.clone()].iter().all(Vec::is_empty),
            "spread: slots must start empty"
        );
        let mut drawn = 0usize;
        for i in 0..width {
            let end = (n as u64 * u64::from(i + 1) / u64::from(width)) as usize;
            let mut chunk = Vec::with_capacity(end - drawn);
            chunk.extend(records.by_ref().take(end - drawn));
            drawn += chunk.len();
            debug_assert!(
                chunk.windows(2).all(|w| w[0].key < w[1].key),
                "spread: input not sorted"
            );
            self.slots[(first + i) as usize] = chunk;
            if drawn < end {
                break;
            }
        }
        if drawn == n && records.next().is_some() {
            drawn += 1;
        }
        if drawn != n {
            self.slots[span].fill_with(Vec::new);
            return Err(drawn);
        }
        self.total += n;
        for slot in first..first + width {
            self.charge_span(slot, 0, self.slots[slot as usize].len(), AccessKind::Write);
            self.mark_dirty(slot);
        }
        Ok(())
    }

    /// Evenly redistributes the records of slots `first..first + width` —
    /// the one-shot rebalance of the amortized algorithms (CONTROL 1's step
    /// B and vacuum, the PMA's window rebalance). Drains the slots lowest
    /// first, charging what [`PagedStore::take_all`] charges on each, then
    /// [`PagedStore::spread`]s the records back, charging its writes.
    pub fn redistribute(&mut self, first: SlotId, width: u32) {
        let span = first as usize..first as usize + width as usize;
        let n = self.slots[span].iter().map(Vec::len).sum();
        let mut all = Vec::with_capacity(n);
        for slot in first..first + width {
            all.append(&mut self.take_all(slot));
        }
        self.spread(first, width, n, all)
            .expect("a Vec yields exactly its length");
    }

    /// Replaces the contents of `slot` with `recs` (ascending, pre-sorted),
    /// charging one write per page covered by the new contents or vacated
    /// from the old ones.
    pub fn replace(&mut self, slot: SlotId, recs: Vec<Record<K, V>>) {
        debug_assert!(
            recs.windows(2).all(|w| w[0].key < w[1].key),
            "replace: input not sorted"
        );
        let old_len = self.slots[slot as usize].len();
        // Charge every page the replacement touches: the pages the new
        // contents cover plus any previously-occupied tail pages that must
        // be vacated (symmetric with a front move_records, which rewrites
        // the whole packed span).
        let touched = old_len.max(recs.len());
        if touched > 0 {
            self.charge_span(slot, 0, touched.max(1), AccessKind::Write);
        }
        self.total = self.total - old_len + recs.len();
        self.slots[slot as usize] = recs;
        self.mark_dirty(slot);
    }

    /// Replaces the raw contents of `slot` with **no** ordering validation
    /// and **no** access charges. **Audit and tests only** — this is the
    /// back door invariant-checker tests use to construct deliberately
    /// corrupted stores (unsorted slots, cross-slot disorder, overfull
    /// slots) that the counted mutators refuse to produce.
    pub fn corrupt_slot_for_audit(&mut self, slot: SlotId, recs: Vec<Record<K, V>>) {
        let old_len = self.slots[slot as usize].len();
        self.total = self.total - old_len + recs.len();
        self.slots[slot as usize] = recs;
        self.mark_dirty(slot);
    }

    /// Reads the records of one physical page of `slot`, charging one read.
    ///
    /// `page` is the page index within the slot; the returned slice is the
    /// records packed onto that page (empty if the page holds none). Range
    /// scans use this to stream a slot page by page.
    pub fn read_page(&self, slot: SlotId, page: u32) -> &[Record<K, V>] {
        debug_assert!(page < self.cfg.pages_per_slot);
        self.stats.charge_reads(1);
        self.trace.record(
            u64::from(slot) * u64::from(self.cfg.pages_per_slot) + u64::from(page),
            AccessKind::Read,
        );
        let recs = &self.slots[slot as usize];
        let cap = self.cfg.page_capacity as usize;
        let lo = (page as usize * cap).min(recs.len());
        let hi = if page + 1 == self.cfg.pages_per_slot {
            recs.len() // last page absorbs any transient overflow
        } else {
            ((page as usize + 1) * cap).min(recs.len())
        };
        &recs[lo..hi]
    }

    /// Number of physical pages of `slot` that currently hold records.
    pub fn pages_used(&self, slot: SlotId) -> u32 {
        let len = self.slots[slot as usize].len();
        if len == 0 {
            0
        } else {
            (self.page_within_slot(len - 1) + 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(slots: u32, k: u32, cap: u32) -> PagedStore<u64, u32> {
        PagedStore::new(StoreConfig {
            slots,
            pages_per_slot: k,
            page_capacity: cap,
        })
        .unwrap()
    }

    #[test]
    fn rejects_zero_parameters() {
        for (s, k, c, field) in [
            (0u32, 1u32, 1u32, "slots"),
            (1, 0, 1, "pages_per_slot"),
            (1, 1, 0, "page_capacity"),
        ] {
            let err = PagedStore::<u64, u32>::new(StoreConfig {
                slots: s,
                pages_per_slot: k,
                page_capacity: c,
            })
            .unwrap_err();
            assert_eq!(err, StoreError::ZeroParameter(field));
        }
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut st = store(4, 1, 8);
        assert_eq!(st.insert(2, 10, 100), None);
        assert_eq!(st.insert(2, 20, 200), None);
        assert_eq!(st.insert(2, 10, 101), Some(100)); // replace
        assert_eq!(st.get(2, &10), Some(&101));
        assert_eq!(st.get(2, &20), Some(&200));
        assert_eq!(st.get(2, &30), None);
        assert_eq!(st.len(2), 2);
        assert_eq!(st.total_records(), 2);
        assert_eq!(st.remove(2, &10), Some(101));
        assert_eq!(st.remove(2, &10), None);
        assert_eq!(st.total_records(), 1);
    }

    #[test]
    fn metadata_is_free() {
        let mut st = store(2, 1, 8);
        st.insert(0, 5, 0);
        st.insert(0, 9, 0);
        let snap = st.stats().snapshot();
        assert_eq!(st.len(0), 2);
        assert_eq!(st.min_key(0), Some(5));
        assert_eq!(st.max_key(0), Some(9));
        assert_eq!(st.total_records(), 2);
        let _ = st.peek_slot(0);
        assert_eq!(st.stats().since(snap).accesses(), 0);
    }

    #[test]
    fn single_page_slot_costs_one_page_per_touch() {
        let mut st = store(2, 1, 16);
        let snap = st.stats().snapshot();
        st.insert(0, 1, 0); // empty slot: no read, 1 write
        let d = st.stats().since(snap);
        assert_eq!((d.reads, d.writes), (0, 1));

        let snap = st.stats().snapshot();
        st.insert(0, 2, 0); // 1 probe read + 1 write
        let d = st.stats().since(snap);
        assert_eq!((d.reads, d.writes), (1, 1));
    }

    fn keys(st: &PagedStore<u64, u32>, slot: SlotId) -> Vec<u64> {
        st.peek_slot(slot).iter().map(|r| r.key).collect()
    }

    #[test]
    fn move_records_preserves_order_and_totals() {
        let mut st = store(3, 1, 16);
        for k in [10u64, 20, 30, 40, 50] {
            st.insert(1, k, k as u32);
        }
        // Front: SOURCE's lowest keys append to the DEST on its left.
        assert_eq!(st.move_records(1, 0, 2, End::Front), 2);
        assert_eq!(keys(&st, 0), vec![10, 20]);
        // Back: SOURCE's highest keys prepend to the DEST on its right.
        st.insert(2, 60, 0);
        assert_eq!(st.move_records(1, 2, 2, End::Back), 2);
        assert_eq!(keys(&st, 2), vec![40, 50, 60]);
        assert_eq!(keys(&st, 1), vec![30]);
        // Both ends again, into non-empty slots.
        assert_eq!(st.move_records(1, 0, 1, End::Front), 1);
        assert_eq!(keys(&st, 0), vec![10, 20, 30]);
        assert_eq!(st.move_records(0, 2, 3, End::Back), 3);
        assert_eq!(keys(&st, 2), vec![10, 20, 30, 40, 50, 60]);
        assert_eq!(st.peek_slot(2)[1].value, 20, "values travel with keys");
        assert_eq!(st.total_records(), 6);
    }

    #[test]
    fn move_records_clamps_to_len_and_zero_is_free() {
        let mut st = store(2, 1, 8);
        st.insert(0, 1, 0);
        let snap = st.stats().snapshot();
        assert_eq!(st.move_records(0, 1, 0, End::Front), 0);
        assert_eq!(st.stats().since(snap).accesses(), 0);
        assert_eq!(st.move_records(0, 1, 99, End::Back), 1);
        assert_eq!((st.len(0), st.len(1)), (0, 1));
        assert_eq!(st.total_records(), 1);
        // An empty SOURCE moves nothing and charges nothing.
        let snap = st.stats().snapshot();
        assert_eq!(st.move_records(0, 1, 5, End::Front), 0);
        assert_eq!(st.stats().since(snap).accesses(), 0);
    }

    #[test]
    fn macro_block_charges_scale_with_pages_touched() {
        // K = 4 pages of capacity 4 → slot capacity 16.
        let mut st = store(3, 4, 4);
        let recs: Vec<Record<u64, u32>> = (100..112).map(|k| Record::new(k, 0)).collect();
        let snap = st.stats().snapshot();
        st.replace(1, recs);
        // 12 records cover pages 0,1,2 → 3 writes.
        assert_eq!(st.stats().since(snap).writes, 3);

        // Moving from the front rewrites SOURCE's whole packed prefix: a
        // read of the departing span (page 0) + writes of its 3 occupied
        // pages; the empty DEST is written from its page 0 (1 page).
        let snap = st.stats().snapshot();
        assert_eq!(st.move_records(1, 0, 4, End::Front), 4);
        let d = st.stats().since(snap);
        assert_eq!((d.reads, d.writes), (1, 3 + 1));

        // Moving from the back touches only SOURCE's tail page; the empty
        // DEST is written from its page 0.
        let snap = st.stats().snapshot();
        assert_eq!(st.move_records(1, 2, 2, End::Back), 2);
        let d = st.stats().since(snap);
        assert_eq!((d.reads, d.writes), (1, 1 + 1));
    }

    /// In the macro-block regime, a move's page trace — the per-page event
    /// log and the coalesced run log — is exactly that of taking the
    /// records out of SOURCE and then putting them into DEST: SOURCE's read
    /// span, SOURCE's write span, then DEST's write span.
    #[test]
    fn macro_block_move_traces_take_then_put() {
        use crate::coalesce::PageRun;
        let ev = |page, kind| crate::trace::AccessEvent { page, kind };
        let run = |start, len, kind| PageRun { start, len, kind };
        let (r, w) = (AccessKind::Read, AccessKind::Write);
        // K = 4 pages of capacity 4; slot s spans global pages 4s..4s+4.
        let loaded = || {
            let mut st = store(3, 4, 4);
            st.replace(0, (0..6).map(|k| Record::new(k, 0)).collect());
            st.replace(1, (100..110).map(|k| Record::new(k, 0)).collect());
            st.replace(2, (200..206).map(|k| Record::new(k, 0)).collect());
            st.trace().set_enabled(true);
            st
        };

        // Front, slot 1 → slot 0: take reads SOURCE's records 0..5 (its
        // pages 0,1) and rewrites all 10 (pages 0..2); put appends at DEST's
        // records 5..11, from the page holding its last record (1) to 2.
        let mut st = loaded();
        st.move_records(1, 0, 5, End::Front);
        assert_eq!(
            st.trace().take(),
            vec![
                ev(4, r),
                ev(5, r),
                ev(4, w),
                ev(5, w),
                ev(6, w),
                ev(1, w),
                ev(2, w)
            ]
        );
        assert_eq!(
            st.trace().take_runs(),
            vec![run(4, 2, r), run(4, 3, w), run(1, 2, w)]
        );
        assert_eq!(keys(&st, 0), (0..6).chain(100..105).collect::<Vec<_>>());

        // Back, slot 1 → slot 2: take reads and rewrites SOURCE's records
        // 5..10 (pages 1,2); put rewrites DEST's whole packed 0..11 (0..2).
        let mut st = loaded();
        st.move_records(1, 2, 5, End::Back);
        assert_eq!(
            st.trace().take(),
            vec![
                ev(5, r),
                ev(6, r),
                ev(5, w),
                ev(6, w),
                ev(8, w),
                ev(9, w),
                ev(10, w)
            ]
        );
        assert_eq!(
            st.trace().take_runs(),
            vec![run(5, 2, r), run(5, 2, w), run(8, 3, w)]
        );
        assert_eq!(keys(&st, 2), (105..110).chain(200..206).collect::<Vec<_>>());
    }

    #[test]
    fn read_page_partitions_slot_contents() {
        let mut st = store(1, 3, 4);
        let recs: Vec<Record<u64, u32>> = (0..10).map(|k| Record::new(k, 0)).collect();
        st.replace(0, recs);
        assert_eq!(
            st.read_page(0, 0).iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            st.read_page(0, 1).iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![4, 5, 6, 7]
        );
        assert_eq!(
            st.read_page(0, 2).iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![8, 9]
        );
        assert_eq!(st.pages_used(0), 3);
    }

    #[test]
    fn last_page_absorbs_transient_overflow() {
        let mut st = store(1, 2, 2);
        let recs: Vec<Record<u64, u32>> = (0..5).map(|k| Record::new(k, 0)).collect();
        st.replace(0, recs); // capacity 4, holding 5
        assert_eq!(st.read_page(0, 1).len(), 3);
        assert_eq!(st.pages_used(0), 2);
    }

    #[test]
    fn take_all_then_replace_models_redistribution() {
        let mut st = store(3, 1, 8);
        for k in 0..6u64 {
            st.insert(0, k, 0);
        }
        let snap = st.stats().snapshot();
        let all = st.take_all(0);
        assert_eq!(all.len(), 6);
        assert_eq!(st.stats().since(snap).reads, 1);
        st.replace(1, all[..3].to_vec());
        st.replace(2, all[3..].to_vec());
        assert_eq!(st.len(1), 3);
        assert_eq!(st.len(2), 3);
        assert_eq!(st.total_records(), 6);
    }

    #[test]
    fn trace_records_global_page_numbers() {
        let mut st = store(4, 2, 2);
        st.trace().set_enabled(true);
        st.insert(3, 1, 0); // slot 3, page 0 → global page 6
        let evs = st.trace().take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].page, 6);
        assert_eq!(evs[0].kind, AccessKind::Write);
    }

    #[test]
    fn search_charges_distinct_probe_pages_only() {
        let mut st = store(1, 4, 4);
        let recs: Vec<Record<u64, u32>> = (0..16).map(|k| Record::new(k * 2, 0)).collect();
        st.replace(0, recs);
        let snap = st.stats().snapshot();
        assert_eq!(st.search(0, &14), Ok(7));
        let d = st.stats().since(snap);
        assert!(
            d.reads >= 1 && d.reads <= 3,
            "probes span at most log pages, got {}",
            d.reads
        );
    }

    #[test]
    fn corrupt_slot_for_audit_is_free_and_unchecked() {
        let mut st = store(2, 1, 4);
        st.insert(0, 5, 0);
        let snap = st.stats().snapshot();
        // Unsorted contents that `replace` would debug-panic on.
        st.corrupt_slot_for_audit(0, vec![Record::new(9, 0), Record::new(3, 0)]);
        assert_eq!(st.stats().since(snap).accesses(), 0);
        assert_eq!(st.total_records(), 2);
        assert_eq!(
            st.peek_slot(0).iter().map(|r| r.key).collect::<Vec<_>>(),
            vec![9, 3]
        );
    }

    fn drained(st: &mut PagedStore<u64, u32>) -> Vec<SlotId> {
        let mut out = vec![99]; // stale contents are discarded
        st.take_dirty_slots(&mut out);
        out
    }

    #[test]
    fn dirty_tracking_disabled_by_default_and_drains_sorted_dedup() {
        let mut st = store(4, 1, 8);
        st.insert(3, 1, 0);
        assert!(drained(&mut st).is_empty());

        st.enable_dirty_tracking();
        st.insert(3, 2, 0);
        st.insert(1, 5, 0);
        st.insert(3, 3, 0); // duplicate slot
        st.remove(1, &5);
        assert_eq!(drained(&mut st), vec![1, 3]);
        // Drain resets the set.
        assert!(drained(&mut st).is_empty());
    }

    #[test]
    fn dirty_tracking_covers_every_mutator() {
        let mut st = store(8, 1, 8);
        st.enable_dirty_tracking();
        drained(&mut st);

        st.insert(0, 1, 0);
        st.insert(0, 1, 9); // replace arm
        assert_eq!(drained(&mut st), vec![0]);

        let idx = st.search(1, &7).unwrap_err();
        st.insert_searched(1, idx, 7, 0);
        assert_eq!(drained(&mut st), vec![1]);

        st.replace_at(1, 0, 3);
        assert_eq!(drained(&mut st), vec![1]);

        st.remove(0, &1);
        assert_eq!(drained(&mut st), vec![0]);
        st.remove(0, &1); // miss: no mutation, no dirty mark
        assert!(drained(&mut st).is_empty());

        st.replace(2, vec![Record::new(1u64, 0u32), Record::new(2, 0)]);
        assert_eq!(drained(&mut st), vec![2]);

        st.move_records(2, 3, 1, End::Back);
        assert_eq!(drained(&mut st), vec![2, 3]);
        st.move_records(7, 3, 1, End::Front); // Empty SOURCE: no dirty mark.
        assert!(drained(&mut st).is_empty());

        st.spread(5, 2, 3, (7..10u64).map(|k| Record::new(k, 0)))
            .unwrap();
        assert_eq!(drained(&mut st), vec![5, 6]);

        st.take_all(3);
        assert_eq!(drained(&mut st), vec![3]);

        st.corrupt_slot_for_audit(4, vec![Record::new(9, 0)]);
        assert_eq!(drained(&mut st), vec![4]);
    }

    #[test]
    fn replace_with_empty_clears_and_charges_once() {
        let mut st = store(1, 1, 4);
        st.insert(0, 1, 0);
        let snap = st.stats().snapshot();
        st.replace(0, Vec::new());
        assert_eq!(st.stats().since(snap).writes, 1);
        assert!(st.is_empty(0));
        // Clearing an already-empty slot is free.
        let snap = st.stats().snapshot();
        st.replace(0, Vec::new());
        assert_eq!(st.stats().since(snap).accesses(), 0);
    }
}
