//! The public `DenseFile` type.
//!
//! A `(d,D)`-dense sequential file: a dynamic ordered set of records stored
//! across `M` consecutive pages such that
//!
//! 1. the file holds at most `N = d·M` records,
//! 2. no page holds more than `D` records,
//! 3. records appear in ascending key order across page addresses.
//!
//! Insertions and deletions are maintained by the paper's CONTROL 1
//! (amortized) or CONTROL 2 (worst-case `O(log²M/(D−d))` page accesses)
//! algorithm, selected by [`DenseFileConfig`].

use dsf_flight::{CommandKind, Moment};
use dsf_pagestore::{IoStats, Key, PagedStore, Record, StoreConfig, TraceBuffer};

use crate::calibrator::{Calibrator, NodeId};
use crate::config::{Algorithm, DenseFileConfig, ResolvedConfig};
use crate::error::{BulkLoadError, DsfError};
use crate::readview::{ReadView, ViewState};
use crate::scan::Scan;
use crate::stats::OpStats;

/// A `(d,D)`-dense sequential file (Willard, SIGMOD 1986).
///
/// ```
/// use dsf_core::{DenseFile, DenseFileConfig};
///
/// let mut file: DenseFile<u64, &str> =
///     DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
/// file.insert(10, "ten").unwrap();
/// file.insert(20, "twenty").unwrap();
/// assert_eq!(file.get(&10), Some(&"ten"));
/// assert_eq!(file.remove(&10), Some("ten"));
/// assert_eq!(file.len(), 1);
/// file.check_invariants().unwrap();
/// ```
pub struct DenseFile<K, V> {
    pub(crate) cfg: ResolvedConfig,
    pub(crate) store: PagedStore<K, V>,
    pub(crate) cal: Calibrator<K>,
    pub(crate) stats: OpStats,
    /// Optimistic read view, if enabled (see
    /// [`DenseFile::enable_optimistic_reads`]). `None` by default, so plain
    /// files pay one branch per command for the feature.
    pub(crate) view: Option<ViewState<K, V>>,
    /// Open [`hold_publication`](Self::hold_publication) calls; the view
    /// publishes only when this is zero.
    view_holds: u32,
}

impl<K: Key, V> DenseFile<K, V> {
    /// Creates an empty file from a configuration.
    pub fn new(config: DenseFileConfig) -> Result<Self, DsfError> {
        let cfg = config.resolve()?;
        let store = PagedStore::new(StoreConfig {
            slots: cfg.slots,
            pages_per_slot: cfg.k,
            page_capacity: cfg.page_capacity,
        })
        .expect("resolved config is non-degenerate");
        let cal = Calibrator::new(cfg.slots, cfg.slot_min, cfg.slot_max);
        Ok(DenseFile {
            cfg,
            store,
            cal,
            stats: OpStats::default(),
            view: None,
            view_holds: 0,
        })
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// The resolved configuration.
    pub fn config(&self) -> &ResolvedConfig {
        &self.cfg
    }

    /// Records currently stored.
    pub fn len(&self) -> u64 {
        self.cal.total()
    }

    /// Whether the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.cal.total() == 0
    }

    /// Maximum records the file may hold (`N = d·M`).
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity()
    }

    /// Page-access counters of the underlying store.
    pub fn io_stats(&self) -> &IoStats {
        self.store.stats()
    }

    /// The optional physical-access trace (for the disk model).
    pub fn io_trace(&self) -> &TraceBuffer {
        self.store.trace()
    }

    /// Per-command maintenance statistics.
    pub fn op_stats(&self) -> &OpStats {
        &self.stats
    }

    /// The calibrator tree (read-only; used by figures and experiments).
    pub fn calibrator(&self) -> &Calibrator<K> {
        &self.cal
    }

    /// The underlying store (read-only; used by experiments).
    pub fn store(&self) -> &PagedStore<K, V> {
        &self.store
    }

    /// Record count of every slot in address order (free metadata — the
    /// rows of the paper's Figure 4).
    pub fn slot_counts(&self) -> Vec<u64> {
        (0..self.cfg.slots)
            .map(|s| self.store.len(s) as u64)
            .collect()
    }

    /// A mutable back door for deliberately corrupting internal state.
    ///
    /// Exists so tests (and the crash-consistency harness) can construct
    /// every [`crate::InvariantViolation`] variant and prove
    /// [`DenseFile::check_invariants`] detects it. Nothing reached through
    /// the returned handle charges I/O or maintains any invariant — a file
    /// touched through [`Audit`] is corrupt until proven otherwise.
    pub fn audit(&mut self) -> Audit<'_, K, V> {
        Audit { file: self }
    }

    /// Records a flag-stable moment's per-slot counts (a row of the
    /// paper's Figure 4) when flight moment snapshots are on; each costs
    /// `O(M)`, so they are an opt-in on top of the recorder itself.
    pub(crate) fn emit_flag_stable(&self, moment: Moment) {
        if dsf_flight::moments_enabled() {
            dsf_flight::record_moment(moment, &self.slot_counts());
        }
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// Looks up a key. Charges the page accesses of one calibrator-guided
    /// probe ("typically two or three", per the paper's step 1).
    pub fn get(&self, key: &K) -> Option<&V> {
        if self.is_empty() {
            return None;
        }
        let slot = self.cal.find_slot(key);
        self.store.get(slot, key)
    }

    /// Whether a key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Streams every record in key order (see [`Scan`]).
    pub fn iter(&self) -> Scan<'_, K, V> {
        Scan::all(self)
    }

    /// Streams the records with keys in `range`, in key order.
    ///
    /// This is the paper's *stream retrieval*: the scan walks physically
    /// consecutive pages, so under the disk model it pays one seek plus one
    /// transfer per page rather than one seek per record.
    pub fn range<R: std::ops::RangeBounds<K>>(&self, range: R) -> Scan<'_, K, V> {
        Scan::bounded(
            self,
            range.start_bound().cloned(),
            range.end_bound().cloned(),
        )
    }

    // ------------------------------------------------------------------
    // Optimistic reads.
    // ------------------------------------------------------------------

    /// A handle for lock-free reads, if
    /// [`enable_optimistic_reads`](Self::enable_optimistic_reads) was
    /// called.
    pub fn read_view(&self) -> Option<ReadView<K, V>> {
        self.view.as_ref().map(|vs| ReadView {
            inner: vs.inner.clone(),
        })
    }

    /// Republishes every slot mutated since the last publication into the
    /// read view. Called at the end of every command and offline pass; one
    /// branch when the view is disabled, a no-op while a
    /// [`hold_publication`](Self::hold_publication) is open.
    #[inline]
    pub(crate) fn publish_view(&mut self) {
        let Some(vs) = self.view.as_mut() else {
            return;
        };
        if self.view_holds > 0 {
            return;
        }
        let mut dirty = std::mem::take(&mut vs.dirty);
        self.store.take_dirty_slots(&mut dirty);
        let publish = vs.publish;
        publish(vs, &self.store, &self.cal, &dirty);
        vs.dirty = dirty;
    }

    /// Defers read-view publication until the matching
    /// [`release_publication`](Self::release_publication): commands in
    /// between still run (and mark their slots dirty), but readers keep
    /// seeing the state before the hold. Holds nest; the outermost release
    /// publishes every slot the held commands dirtied, once. Free when the
    /// view is disabled.
    ///
    /// [`apply_batch`](Self::apply_batch) holds across its commands, so a
    /// batch becomes visible at once. A durable layer holds across a whole
    /// commit — execution, fsync, and any rollback — so readers never see a
    /// command before the commit's outcome is known.
    pub fn hold_publication(&mut self) {
        self.view_holds += 1;
    }

    /// Closes one [`hold_publication`](Self::hold_publication); the
    /// outermost close publishes.
    ///
    /// # Panics
    ///
    /// If no hold is open.
    pub fn release_publication(&mut self) {
        self.view_holds = self
            .view_holds
            .checked_sub(1)
            .expect("release_publication without a matching hold");
        self.publish_view();
    }

    // ------------------------------------------------------------------
    // Commands.
    // ------------------------------------------------------------------

    /// Inserts a record, returning the previous value if the key existed.
    ///
    /// A brand-new key is a *command* in the paper's sense: step 1 places
    /// the record and updates the rank counters, and the configured
    /// maintenance algorithm re-establishes BALANCE(d,D). Replacing the
    /// value of an existing key touches only the record's page.
    ///
    /// # Errors
    ///
    /// [`DsfError::CapacityExceeded`] if the file already holds
    /// `N = d·M` records and `key` is not present.
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>, DsfError> {
        self.insert_hinted(key, value, None).map(|(old, _)| old)
    }

    /// [`insert`](Self::insert) with an optional slot hint from a previous
    /// command in the same batch (see [`DenseFile::apply_batch`]). The hint
    /// is validated against the live counters before use, so the resolved
    /// slot — and therefore the file's entire evolution — is bit-identical
    /// to the unhinted path. Returns the resolved slot alongside the old
    /// value so the batch loop can chain it into the next command's hint.
    pub(crate) fn insert_hinted(
        &mut self,
        key: K,
        value: V,
        hint: Option<u32>,
    ) -> Result<(Option<V>, u32), DsfError> {
        let pre = self.tel_pre();
        let snap = self.store.stats().snapshot();
        let slot = if self.is_empty() {
            self.cfg.slots / 2
        } else {
            match hint {
                Some(h) => self.cal.find_slot_hinted(&key, h),
                None => self.cal.find_slot(&key),
            }
        };
        // Begun before the search so the step-1 probe's page reads land in
        // the flight record's User phase; a replace or capacity refusal
        // cancels the frame (replay discards cancelled commands).
        let flight = self.flight_begin(CommandKind::Insert, slot);
        match self.store.search(slot, &key) {
            Ok(idx) => {
                if flight.is_some() {
                    dsf_flight::cancel_command();
                }
                let old = self.store.replace_at(slot, idx, value);
                self.publish_view();
                Ok((Some(old), slot))
            }
            Err(idx) => {
                if self.cal.total() >= self.capacity() {
                    if flight.is_some() {
                        dsf_flight::cancel_command();
                    }
                    return Err(DsfError::CapacityExceeded {
                        capacity: self.capacity(),
                    });
                }
                self.store.insert_searched(slot, idx, key, value);
                self.cal.update_slot(slot, 1, self.store.min_key(slot));
                self.after_update(slot);
                let accesses = self.store.stats().since(snap).accesses();
                self.stats.record_command(accesses);
                if let Some(f) = flight {
                    self.flight_end(f, accesses);
                }
                if let Some(pre) = pre {
                    self.tel_post(pre, CommandKind::Insert, accesses);
                }
                self.publish_view();
                Ok((None, slot))
            }
        }
    }

    /// Deletes a key, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.remove_hinted(key, None).0
    }

    /// [`remove`](Self::remove) with an optional validated slot hint (see
    /// [`DenseFile::insert_hinted`]). The second element is the resolved
    /// slot (`None` only when the file was empty and no search ran).
    pub(crate) fn remove_hinted(&mut self, key: &K, hint: Option<u32>) -> (Option<V>, Option<u32>) {
        if self.is_empty() {
            return (None, None);
        }
        let pre = self.tel_pre();
        let snap = self.store.stats().snapshot();
        let slot = match hint {
            Some(h) => self.cal.find_slot_hinted(key, h),
            None => self.cal.find_slot(key),
        };
        let flight = self.flight_begin(CommandKind::Delete, slot);
        let old = match self.store.remove(slot, key) {
            Some(old) => old,
            None => {
                if flight.is_some() {
                    dsf_flight::cancel_command();
                }
                return (None, Some(slot));
            }
        };
        self.cal.update_slot(slot, -1, self.store.min_key(slot));
        self.after_update(slot);
        let accesses = self.store.stats().since(snap).accesses();
        self.stats.record_command(accesses);
        if let Some(f) = flight {
            self.flight_end(f, accesses);
        }
        if let Some(pre) = pre {
            self.tel_post(pre, CommandKind::Delete, accesses);
        }
        self.publish_view();
        (Some(old), Some(slot))
    }

    // ------------------------------------------------------------------
    // Telemetry mirroring.
    // ------------------------------------------------------------------

    /// Records a `CommandBegin` flight frame and captures the pre-command
    /// state [`flight_end`](Self::flight_end) needs; `None` (one branch)
    /// while the flight recorder is disabled.
    #[inline]
    fn flight_begin(&self, kind: CommandKind, slot: u32) -> Option<FlightCmd> {
        if !dsf_flight::enabled() {
            return None;
        }
        dsf_flight::begin_command(kind, u64::from(slot));
        Some(FlightCmd {
            shifts: self.stats.shifts,
        })
    }

    /// Records the `CommandEnd` flight frame. `accesses` is the same
    /// since-snapshot delta handed to `OpStats::record_command`, so flight
    /// attribution reconciles exactly with the live counters.
    fn flight_end(&self, f: FlightCmd, accesses: u64) {
        dsf_flight::end_command(accesses, self.stats.shifts - f.shifts);
    }

    /// Pre-command counter snapshot; `None` (one branch, nothing else)
    /// while the global telemetry spine is disabled.
    #[inline]
    fn tel_pre(&self) -> Option<TelPre> {
        if !dsf_telemetry::enabled() {
            return None;
        }
        Some(TelPre {
            shifts: self.stats.shifts,
            records_shifted: self.stats.records_shifted,
            activations: self.stats.activations,
            rollbacks: self.stats.rollbacks,
            flags_lowered: self.stats.flags_lowered,
            redistributions: self.stats.redistributions,
        })
    }

    /// Publishes one finished command to the global spine: the access
    /// histogram observation, per-kind command counters, maintenance-event
    /// deltas since `pre`, and the cheap gauges. The command's own story
    /// (pages per phase, SHIFT steps, wall time) is the flight recorder's.
    fn tel_post(&self, pre: TelPre, kind: CommandKind, accesses: u64) {
        let t = crate::tel::tel();
        t.cmd_hist.record(accesses);
        match kind {
            CommandKind::Insert => t.inserts.inc(),
            CommandKind::Delete => t.deletes.inc(),
        }
        t.shifts.add(self.stats.shifts - pre.shifts);
        t.shift_records
            .add(self.stats.records_shifted - pre.records_shifted);
        t.activations.add(self.stats.activations - pre.activations);
        t.rollbacks.add(self.stats.rollbacks - pre.rollbacks);
        t.flags_lowered
            .add(self.stats.flags_lowered - pre.flags_lowered);
        t.redistributions
            .add(self.stats.redistributions - pre.redistributions);
        t.warning_flags.set(f64::from(self.cal.warned_total()));
        t.records.set(self.len() as f64);
    }

    /// Recomputes the `O(M)` telemetry gauges — above all
    /// `dsf_balance_headroom_worst`, the fraction of its BALANCE(d,D)
    /// threshold `g(v,1)` the tightest calibrator node still has free
    /// (`1 − max_v p(v)/g(v,1)`; 0 = some node exactly at threshold,
    /// negative = BALANCE violated).
    ///
    /// Walking every node is deliberately not done per command; exporters
    /// (`dsf serve-metrics`, `dsf top`, `exp_telemetry`) call this at scrape
    /// or refresh time instead. No-op while telemetry is disabled.
    pub fn refresh_telemetry_gauges(&self) {
        if !dsf_telemetry::enabled() {
            return;
        }
        let t = crate::tel::tel();
        t.warning_flags.set(f64::from(self.cal.warned_total()));
        t.records.set(self.len() as f64);
        let l = f64::from(self.cfg.log_slots);
        let dmin = self.cfg.slot_min as f64;
        let gap = (self.cfg.slot_max - self.cfg.slot_min) as f64;
        let mut worst = 0.0f64;
        for n in self.cal.geometry().nodes() {
            // g(v,1) = d# + depth(v)·(D#−d#)/L, the Theorem 5.5 bound.
            let g1 = if l > 0.0 {
                dmin + f64::from(n.depth()) * gap / l
            } else {
                dmin
            };
            if g1 > 0.0 {
                let p = self.cal.count(n) as f64 / self.cal.width(n) as f64;
                worst = worst.max(p / g1);
            }
        }
        t.balance_headroom.set(1.0 - worst);
    }

    fn after_update(&mut self, slot: u32) {
        match self.cfg.algorithm {
            Algorithm::Control1 => self.control1_after_update(slot),
            Algorithm::Control2 => self.control2_after_update(slot),
        }
    }

    // ------------------------------------------------------------------
    // Bulk loading.
    // ------------------------------------------------------------------

    /// Loads strictly-ascending records into an empty file, spread with
    /// uniform density over the address space — the initial condition of
    /// Theorem 5.5.
    ///
    /// Each record moves once, from `items` straight into its final slot,
    /// so the load needs memory for the loaded file and no more — provided
    /// `items` reports an exact [`size_hint`](Iterator::size_hint) (lower
    /// bound equal to upper), as ranges, arrays, `Vec`s and `map`s over
    /// them do. That length is trusted to size the spread; an input that
    /// breaks its promise is refused. Any other input is first collected
    /// into a `Vec`, which holds a second copy of the records until the
    /// spread ends.
    ///
    /// # Errors
    ///
    /// [`BulkLoadError::NotEmpty`]; [`BulkLoadError::TooMany`], checked
    /// against the exact length before any record is drawn (after collecting
    /// otherwise); [`BulkLoadError::NotSorted`] at the first record not above
    /// its predecessor; [`BulkLoadError::LengthMismatch`] if the input yields
    /// more or fewer records than its exact hint promised. A failed load
    /// leaves the file as it was: empty, every calibrator counter zero, no
    /// page access charged, and ready for another load. Records already
    /// drawn from `items` are dropped.
    pub fn bulk_load<I>(&mut self, items: I) -> Result<(), DsfError>
    where
        I: IntoIterator<Item = (K, V)>,
    {
        if !self.is_empty() {
            return Err(BulkLoadError::NotEmpty.into());
        }
        let items = items.into_iter();
        match items.size_hint() {
            (lo, Some(hi)) if lo == hi => self.load_exact(items, lo as u64),
            _ => {
                let all: Vec<(K, V)> = items.collect();
                let n = all.len() as u64;
                self.load_exact(all, n)
            }
        }
    }

    /// [`bulk_load`](Self::bulk_load) into this empty file once the record
    /// count `n` is known.
    fn load_exact<I>(&mut self, items: I, n: u64) -> Result<(), DsfError>
    where
        I: IntoIterator<Item = (K, V)>,
    {
        if n > self.capacity() {
            return Err(BulkLoadError::TooMany {
                records: n,
                capacity: self.capacity(),
            }
            .into());
        }
        // Order is checked as the spread draws each record. The first
        // record out of order ends the stream, which the spread then refuses
        // as short; records past the `n`-th pass unchecked, so that the
        // spread sees an overlong input as overlong.
        let mut prev: Option<K> = None;
        let mut unsorted = None;
        let checked = items.into_iter().enumerate().map_while(|(index, (k, v))| {
            if (index as u64) < n && prev.is_some_and(|p| p >= k) {
                unsorted = Some(index);
                return None;
            }
            prev = Some(k);
            Some(Record::new(k, v))
        });
        if let Err(yielded) = self.respread(checked, n, 0, self.cfg.slots) {
            return Err(match unsorted {
                Some(index) => BulkLoadError::NotSorted { index },
                None => BulkLoadError::LengthMismatch {
                    hinted: n,
                    yielded: yielded as u64,
                },
            }
            .into());
        }
        self.cal.recompute_subtree(NodeId::ROOT);
        self.post_load_activation_scan();
        self.publish_view();
        Ok(())
    }

    /// Loads an explicit per-slot layout into an empty file (tests, figures
    /// and experiments; Example 5.2 starts from a non-uniform layout).
    ///
    /// The layout must be globally sorted with unique keys, respect the
    /// per-slot density bound `D#`, and satisfy BALANCE(d,D) — Theorem 5.5's
    /// precondition on the initial state.
    pub fn bulk_load_per_slot(&mut self, layout: Vec<Vec<(K, V)>>) -> Result<(), DsfError> {
        if !self.is_empty() {
            return Err(BulkLoadError::NotEmpty.into());
        }
        if layout.len() != self.cfg.slots as usize {
            return Err(BulkLoadError::LayoutWidth {
                got: layout.len(),
                expected: self.cfg.slots,
            }
            .into());
        }
        // Validate global order and per-slot bounds before mutating.
        let mut prev: Option<K> = None;
        let mut index = 0usize;
        let mut total = 0u64;
        for (s, slot_recs) in layout.iter().enumerate() {
            if slot_recs.len() as u64 > self.cfg.slot_max {
                return Err(BulkLoadError::SlotOverflow {
                    slot: s as u32,
                    len: slot_recs.len(),
                    max: self.cfg.slot_max,
                }
                .into());
            }
            for (k, _) in slot_recs {
                if let Some(p) = prev {
                    if p >= *k {
                        return Err(BulkLoadError::NotSorted { index }.into());
                    }
                }
                prev = Some(*k);
                index += 1;
                total += 1;
            }
        }
        if total > self.capacity() {
            return Err(BulkLoadError::TooMany {
                records: total,
                capacity: self.capacity(),
            }
            .into());
        }
        // Enforce Theorem 5.5's BALANCE precondition before touching the
        // store, using the calibrator alone (counts suffice); on rejection
        // the calibrator is reset and the file stays untouched.
        for (s, slot_recs) in layout.iter().enumerate() {
            let min = slot_recs.first().map(|(k, _)| *k);
            self.cal.set_leaf_raw(s as u32, slot_recs.len() as u64, min);
        }
        self.cal.recompute_subtree(NodeId::ROOT);
        if let Some(bad) = self.cal.geometry().nodes().find(|&n| self.cal.p_gt(n, 3)) {
            for s in 0..self.cfg.slots {
                self.cal.set_leaf_raw(s, 0, None);
            }
            self.cal.recompute_subtree(NodeId::ROOT);
            return Err(BulkLoadError::Unbalanced { node: bad.0 }.into());
        }
        for (s, slot_recs) in layout.into_iter().enumerate() {
            let recs: Vec<Record<K, V>> = slot_recs
                .into_iter()
                .map(|(k, v)| Record::new(k, v))
                .collect();
            self.store.replace(s as u32, recs);
        }
        self.post_load_activation_scan();
        self.publish_view();
        Ok(())
    }

    /// Spreads exactly `n` ascending records evenly over the empty `width`
    /// slots starting at `lo` — slot `lo+i` receives records
    /// `[n·i/width, n·(i+1)/width)` — and refreshes their leaves. The shared
    /// kernel of the offline passes that bring their own records: bulk
    /// load, merge, retain. (CONTROL 1's step B and vacuum even out records
    /// already in place with [`PagedStore::redistribute`], as does the PMA
    /// baseline, which charges through a `PagedStore` too.) Each record
    /// moves once, from `records` straight into its slot
    /// ([`PagedStore::spread`]), so the spread holds no copy of its input;
    /// the callers that stage records in a `Vec` pass it by value. Counters
    /// above the leaves are the caller's to recompute.
    ///
    /// `Err` (with the number of records drawn) if `records` does not yield
    /// exactly `n`: the slots stay empty, their leaves untouched, and
    /// nothing is charged.
    pub(crate) fn respread<I>(
        &mut self,
        records: I,
        n: u64,
        lo: u32,
        width: u32,
    ) -> Result<(), usize>
    where
        I: IntoIterator<Item = Record<K, V>>,
    {
        self.store.spread(lo, width, n as usize, records)?;
        self.refresh_leaves(lo, width);
        Ok(())
    }

    /// Copies the counts and minima of slots `lo..lo + width` into their
    /// calibrator leaves.
    pub(crate) fn refresh_leaves(&mut self, lo: u32, width: u32) {
        for slot in lo..lo + width {
            self.cal
                .set_leaf_raw(slot, self.store.len(slot) as u64, self.store.min_key(slot));
        }
    }

    /// Clears every warning flag and re-derives a legal flag state — the
    /// epilogue of whole-file offline passes, whose even spread invalidates
    /// any in-flight evolution.
    pub(crate) fn reset_flags_after_offline_pass(&mut self) {
        for n in self.cal.geometry().nodes() {
            self.cal.set_warning(n, false);
        }
        self.post_load_activation_scan();
    }

    /// After a bulk load, raise warnings wherever Fact 5.1(b) demands it so
    /// the flag state is legal for the first command (shallowest first, as
    /// in step 3).
    pub(crate) fn post_load_activation_scan(&mut self) {
        if self.cfg.algorithm != Algorithm::Control2 {
            return;
        }
        // Heap order is depth order.
        for n in self.cal.geometry().nodes() {
            if n != NodeId::ROOT && !self.cal.is_warned(n) && self.cal.p_ge(n, 2) {
                self.activate(n);
            }
        }
    }

    // ------------------------------------------------------------------
    // Rebuilding (extension: the paper fixes M; real deployments grow).
    // ------------------------------------------------------------------

    /// Drains this file into a new one with a different configuration,
    /// spreading the records uniformly — the standard answer to capacity
    /// exhaustion (`DsfError::CapacityExceeded`). Records stream from the
    /// old slots straight into the new ones, as in
    /// [`bulk_load`](Self::bulk_load), so the peak is the two files.
    ///
    /// Charges a full sequential read of the old file plus a full
    /// sequential write of the new one (`O(M)` page accesses — rebuilds are
    /// outside the per-command worst-case guarantee, exactly as in the
    /// paper, which fixes `M` up front).
    pub fn rebuild_into(mut self, config: DenseFileConfig) -> Result<DenseFile<K, V>, DsfError> {
        // Validate the destination before draining anything: a failed
        // rebuild must not cost the caller their data.
        let resolved = config.resolve()?;
        if resolved.capacity() < self.len() {
            return Err(DsfError::BulkLoad(crate::error::BulkLoadError::TooMany {
                records: self.len(),
                capacity: resolved.capacity(),
            }));
        }
        let n = self.len();
        let mut new = DenseFile::new(config)?;
        let drained = (0..self.cfg.slots)
            .flat_map(|s| self.store.take_all(s).into_iter().map(Record::into_parts));
        new.load_exact(drained, n)?;
        Ok(new)
    }
}

impl<K: Key + Into<u64>, V: Clone> DenseFile<K, V> {
    /// Turns on the optimistic read path and returns a lock-free
    /// [`ReadView`] handle. Idempotent — later calls return a handle to the
    /// same view.
    ///
    /// From this point every single command and offline pass republishes
    /// the slots it touched into the view at its end, and
    /// [`apply_batch`](Self::apply_batch) republishes once at batch end,
    /// over the batch's deduplicated dirty slots (see
    /// [`hold_publication`](Self::hold_publication)). Each republished slot
    /// costs one copy of its records into a recycled image, so the steady
    /// state allocates nothing, and the seqlock's odd window spans only
    /// the pointer swaps and the stores of the calibrator nodes reads route
    /// by (keys need an order-preserving `u64` image, `Into<u64>`). Callers
    /// that never share the file across threads should leave this off;
    /// `ShardedFile`/`DurableKv` enable it so point gets and range scans
    /// stop queuing behind the shard write lock.
    pub fn enable_optimistic_reads(&mut self) -> ReadView<K, V> {
        if self.view.is_none() {
            self.store.enable_dirty_tracking();
            let mut vs = ViewState::new(self.cfg, &self.cal);
            let all: Vec<u32> = (0..self.cfg.slots).collect();
            (vs.publish)(&mut vs, &self.store, &self.cal, &all);
            self.view = Some(vs);
        }
        self.read_view().expect("view just enabled")
    }
}

/// Pre-command snapshot of the maintenance counters, captured only while
/// the global telemetry spine is enabled (see [`DenseFile::insert`]).
struct TelPre {
    shifts: u64,
    records_shifted: u64,
    activations: u64,
    rollbacks: u64,
    flags_lowered: u64,
    redistributions: u64,
}

/// Pre-command state for one flight-recorded command. `Some` only when a
/// `CommandBegin` frame was actually recorded, so the cancel/end calls are
/// never issued against a stale sequence number from an earlier command.
struct FlightCmd {
    shifts: u64,
}

/// Corruption handle returned by [`DenseFile::audit`].
///
/// Grants raw mutable access to the calibrator and to slot contents so
/// invariant tests can fabricate precisely the inconsistency they want to
/// see detected.
/// **Never use outside tests and checkers** — no method here maintains any
/// file invariant or charges page accesses.
pub struct Audit<'a, K: Key, V> {
    file: &'a mut DenseFile<K, V>,
}

impl<K: Key, V> Audit<'_, K, V> {
    /// The raw calibrator, mutably.
    pub fn calibrator_mut(&mut self) -> &mut Calibrator<K> {
        &mut self.file.cal
    }

    /// Replaces the records of `slot` verbatim (no ordering or capacity
    /// checks), then resyncs the calibrator's counters and cached minima so
    /// the *only* inconsistency left is whatever the new contents themselves
    /// violate — the way to fabricate a pure store-level corruption
    /// (unsorted slot, cross-slot disorder, overfull slot) without dragging
    /// `CountMismatch`/`MinKeyMismatch` noise along.
    pub fn corrupt_slot(&mut self, slot: u32, recs: Vec<(K, V)>) {
        let recs: Vec<Record<K, V>> = recs.into_iter().map(|(k, v)| Record::new(k, v)).collect();
        self.file.store.corrupt_slot_for_audit(slot, recs);
        let count = self.file.store.len(slot) as u64;
        let min = self.file.store.min_key(slot);
        self.file.cal.set_leaf_raw(slot, count, min);
        self.file.cal.recompute_subtree(NodeId::ROOT);
        self.file.publish_view();
    }
}

impl<K: Key, V: std::fmt::Debug> std::fmt::Debug for DenseFile<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseFile")
            .field("slots", &self.cfg.slots)
            .field("k", &self.cfg.k)
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .field("algorithm", &self.cfg.algorithm)
            .finish_non_exhaustive()
    }
}
