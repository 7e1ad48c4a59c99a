//! # dsf-bench — the experiment harness
//!
//! Shared plumbing for the figure/experiment binaries in `src/bin/`:
//! a text [`Table`] renderer, a uniform [`Driver`] adapter over every
//! structure in the workspace, and small statistics helpers. Each binary in
//! `src/bin/` regenerates one artifact or claim of the paper; see
//! `EXPERIMENTS.md` at the repository root for the index and recorded
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dsf_baselines::{AmortizedPma, NaiveSequentialFile, OverflowFile, PmaConfig};
use dsf_btree::{BPlusTree, BTreeConfig};
use dsf_core::{DenseFile, DenseFileConfig};
use dsf_pagestore::{AccessEvent, IoSnapshot};

// ---------------------------------------------------------------------
// Table rendering.
// ---------------------------------------------------------------------

/// A fixed-width text table, printed the way the paper's tables read.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders with a title banner.
    pub fn render(&self, title: &str) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {title} ==\n"));
        let hdr: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>w$}", w = widths[i]))
            .collect();
        out.push_str(&hdr.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(hdr.join("  ").len()));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders and prints.
    pub fn print(&self, title: &str) {
        print!("{}", self.render(title));
    }
}

// ---------------------------------------------------------------------
// The uniform driver.
// ---------------------------------------------------------------------

/// A uniform interface over every ordered-file structure in the workspace,
/// so experiments can replay one operation stream against all of them.
pub trait Driver {
    /// Short display name.
    fn name(&self) -> &'static str;
    /// Loads a strictly-ascending backbone into the empty structure the way
    /// a deployment would (bulk load / offline organization), so that every
    /// structure starts an experiment from its natural initial state.
    fn bulk_backbone(&mut self, keys: &[u64]);
    /// Inserts a key (value = key). Returns `false` when the structure is
    /// at capacity and refused.
    fn insert(&mut self, k: u64) -> bool;
    /// Removes a key; `true` if it was present.
    fn remove(&mut self, k: u64) -> bool;
    /// Looks a key up.
    fn get(&self, k: u64) -> bool;
    /// Streams up to `limit` records starting at `start`; returns how many
    /// were produced.
    fn scan(&self, start: u64, limit: usize) -> usize;
    /// Records held.
    fn len(&self) -> u64;
    /// Whether empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Cumulative page accesses.
    fn accesses(&self) -> u64;
    /// Snapshot for per-op attribution.
    fn snapshot(&self) -> IoSnapshot;
    /// Accesses since a snapshot.
    fn since(&self, snap: IoSnapshot) -> u64;
    /// Enables/disables physical tracing.
    fn set_trace(&self, on: bool);
    /// Drains the physical trace.
    fn take_trace(&self) -> Vec<AccessEvent>;
}

/// A [`DenseFile`] driver (CONTROL 1 or CONTROL 2, per the config).
pub struct DenseDriver {
    /// The wrapped file.
    pub file: DenseFile<u64, u64>,
    name: &'static str,
}

impl DenseDriver {
    /// Wraps a dense file built from `cfg` under a display name.
    pub fn new(name: &'static str, cfg: DenseFileConfig) -> Self {
        DenseDriver {
            file: DenseFile::new(cfg).expect("valid experiment config"),
            name,
        }
    }
}

impl Driver for DenseDriver {
    fn name(&self) -> &'static str {
        self.name
    }
    fn bulk_backbone(&mut self, keys: &[u64]) {
        self.file
            .bulk_load(keys.iter().map(|&k| (k, k)))
            .expect("backbone fits");
    }
    fn insert(&mut self, k: u64) -> bool {
        self.file.insert(k, k).is_ok()
    }
    fn remove(&mut self, k: u64) -> bool {
        self.file.remove(&k).is_some()
    }
    fn get(&self, k: u64) -> bool {
        self.file.get(&k).is_some()
    }
    fn scan(&self, start: u64, limit: usize) -> usize {
        self.file.range(start..).take(limit).count()
    }
    fn len(&self) -> u64 {
        self.file.len()
    }
    fn accesses(&self) -> u64 {
        self.file.io_stats().accesses()
    }
    fn snapshot(&self) -> IoSnapshot {
        self.file.io_stats().snapshot()
    }
    fn since(&self, snap: IoSnapshot) -> u64 {
        self.file.io_stats().since(snap).accesses()
    }
    fn set_trace(&self, on: bool) {
        self.file.io_trace().set_enabled(on);
    }
    fn take_trace(&self) -> Vec<AccessEvent> {
        self.file.io_trace().take()
    }
}

/// A [`BPlusTree`] driver.
pub struct BTreeDriver {
    /// The wrapped tree.
    pub tree: BPlusTree<u64, u64>,
}

impl BTreeDriver {
    /// A tree whose leaves hold `page_capacity` records.
    pub fn new(page_capacity: usize) -> Self {
        BTreeDriver {
            tree: BPlusTree::new(BTreeConfig::with_page_capacity(page_capacity))
                .expect("valid experiment config"),
        }
    }
}

impl Driver for BTreeDriver {
    fn name(&self) -> &'static str {
        "b+tree"
    }
    fn bulk_backbone(&mut self, keys: &[u64]) {
        self.tree
            .bulk_load(keys.iter().map(|&k| (k, k)))
            .expect("backbone sorted");
    }
    fn insert(&mut self, k: u64) -> bool {
        self.tree.insert(k, k);
        true
    }
    fn remove(&mut self, k: u64) -> bool {
        self.tree.remove(&k).is_some()
    }
    fn get(&self, k: u64) -> bool {
        self.tree.get(&k).is_some()
    }
    fn scan(&self, start: u64, limit: usize) -> usize {
        self.tree.scan_limited(&start, limit, |_, _| {})
    }
    fn len(&self) -> u64 {
        self.tree.len()
    }
    fn accesses(&self) -> u64 {
        self.tree.stats().accesses()
    }
    fn snapshot(&self) -> IoSnapshot {
        self.tree.stats().snapshot()
    }
    fn since(&self, snap: IoSnapshot) -> u64 {
        self.tree.stats().since(snap).accesses()
    }
    fn set_trace(&self, on: bool) {
        self.tree.trace().set_enabled(on);
    }
    fn take_trace(&self) -> Vec<AccessEvent> {
        self.tree.trace().take()
    }
}

/// A [`NaiveSequentialFile`] driver.
pub struct NaiveDriver {
    /// The wrapped file.
    pub file: NaiveSequentialFile<u64, u64>,
}

impl NaiveDriver {
    /// A packed file with the given page capacity.
    pub fn new(page_capacity: usize) -> Self {
        NaiveDriver {
            file: NaiveSequentialFile::new(page_capacity),
        }
    }
}

impl Driver for NaiveDriver {
    fn name(&self) -> &'static str {
        "naive-seq"
    }
    fn bulk_backbone(&mut self, keys: &[u64]) {
        self.file.bulk_load(keys.iter().map(|&k| (k, k)));
    }
    fn insert(&mut self, k: u64) -> bool {
        self.file.insert(k, k);
        true
    }
    fn remove(&mut self, k: u64) -> bool {
        self.file.remove(&k).is_some()
    }
    fn get(&self, k: u64) -> bool {
        self.file.get(&k).is_some()
    }
    fn scan(&self, start: u64, limit: usize) -> usize {
        let mut n = 0;
        self.file.scan_from(&start, limit, |_, _| n += 1);
        n
    }
    fn len(&self) -> u64 {
        self.file.len()
    }
    fn accesses(&self) -> u64 {
        self.file.stats().accesses()
    }
    fn snapshot(&self) -> IoSnapshot {
        self.file.stats().snapshot()
    }
    fn since(&self, snap: IoSnapshot) -> u64 {
        self.file.stats().since(snap).accesses()
    }
    fn set_trace(&self, on: bool) {
        self.file.trace().set_enabled(on);
    }
    fn take_trace(&self) -> Vec<AccessEvent> {
        self.file.trace().take()
    }
}

/// An [`OverflowFile`] driver.
pub struct OverflowDriver {
    /// The wrapped file.
    pub file: OverflowFile<u64, u64>,
    fill: usize,
}

impl OverflowDriver {
    /// An ISAM-style file with the given geometry; offline organization
    /// fills primary pages to half capacity.
    pub fn new(primary_pages: u32, page_capacity: usize) -> Self {
        OverflowDriver {
            file: OverflowFile::new(primary_pages, page_capacity),
            fill: (page_capacity / 2).max(1),
        }
    }
}

impl Driver for OverflowDriver {
    fn name(&self) -> &'static str {
        "overflow"
    }
    fn bulk_backbone(&mut self, keys: &[u64]) {
        self.file.organize(keys.iter().map(|&k| (k, k)), self.fill);
    }
    fn insert(&mut self, k: u64) -> bool {
        self.file.insert(k, k);
        true
    }
    fn remove(&mut self, k: u64) -> bool {
        self.file.remove(&k).is_some()
    }
    fn get(&self, k: u64) -> bool {
        self.file.get(&k).is_some()
    }
    fn scan(&self, start: u64, limit: usize) -> usize {
        let mut n = 0;
        self.file.scan_from(&start, limit, |_, _| n += 1);
        n
    }
    fn len(&self) -> u64 {
        self.file.len()
    }
    fn accesses(&self) -> u64 {
        self.file.stats().accesses()
    }
    fn snapshot(&self) -> IoSnapshot {
        self.file.stats().snapshot()
    }
    fn since(&self, snap: IoSnapshot) -> u64 {
        self.file.stats().since(snap).accesses()
    }
    fn set_trace(&self, on: bool) {
        self.file.trace().set_enabled(on);
    }
    fn take_trace(&self) -> Vec<AccessEvent> {
        self.file.trace().take()
    }
}

/// An [`AmortizedPma`] driver.
pub struct PmaDriver {
    /// The wrapped array.
    pub pma: AmortizedPma<u64, u64>,
}

impl PmaDriver {
    /// A PMA matching a `(d,D)`-dense file's footprint.
    pub fn new(segments: u32, page_capacity: u32, min_density: u32) -> Self {
        PmaDriver {
            pma: AmortizedPma::new(PmaConfig::for_pages(segments, page_capacity, min_density))
                .expect("valid experiment config"),
        }
    }
}

impl Driver for PmaDriver {
    fn name(&self) -> &'static str {
        "pma"
    }
    fn bulk_backbone(&mut self, keys: &[u64]) {
        self.pma.bulk_load(keys.iter().map(|&k| (k, k)));
    }
    fn insert(&mut self, k: u64) -> bool {
        self.pma.insert(k, k).is_ok()
    }
    fn remove(&mut self, k: u64) -> bool {
        self.pma.remove(&k).is_some()
    }
    fn get(&self, k: u64) -> bool {
        self.pma.get(&k).is_some()
    }
    fn scan(&self, start: u64, limit: usize) -> usize {
        let mut n = 0;
        self.pma.scan_from(&start, limit, |_, _| n += 1);
        n
    }
    fn len(&self) -> u64 {
        self.pma.len()
    }
    fn accesses(&self) -> u64 {
        self.pma.stats().accesses()
    }
    fn snapshot(&self) -> IoSnapshot {
        self.pma.stats().snapshot()
    }
    fn since(&self, snap: IoSnapshot) -> u64 {
        self.pma.stats().since(snap).accesses()
    }
    fn set_trace(&self, on: bool) {
        self.pma.trace().set_enabled(on);
    }
    fn take_trace(&self) -> Vec<AccessEvent> {
        self.pma.trace().take()
    }
}

// ---------------------------------------------------------------------
// Measurement helpers.
// ---------------------------------------------------------------------

/// Per-operation cost profile of a replayed stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostProfile {
    /// Operations replayed.
    pub ops: u64,
    /// Total page accesses.
    pub total: u64,
    /// Worst single operation.
    pub max: u64,
    /// Mean accesses per operation.
    pub mean: f64,
    /// 99th-percentile accesses per operation.
    pub p99: u64,
}

/// Replays `keys` as inserts against `d`, measuring per-op page accesses.
pub fn profile_inserts<D: Driver + ?Sized>(d: &mut D, keys: &[u64]) -> CostProfile {
    let mut costs: Vec<u64> = Vec::with_capacity(keys.len());
    for &k in keys {
        let snap = d.snapshot();
        if !d.insert(k) {
            break;
        }
        costs.push(d.since(snap));
    }
    summarize(&mut costs)
}

/// Replays `keys` as removals against `d`, measuring per-op page accesses.
pub fn profile_removes<D: Driver + ?Sized>(d: &mut D, keys: &[u64]) -> CostProfile {
    let mut costs: Vec<u64> = Vec::with_capacity(keys.len());
    for &k in keys {
        let snap = d.snapshot();
        d.remove(k);
        costs.push(d.since(snap));
    }
    summarize(&mut costs)
}

fn summarize(costs: &mut [u64]) -> CostProfile {
    if costs.is_empty() {
        return CostProfile::default();
    }
    let total: u64 = costs.iter().sum();
    let max = *costs.iter().max().expect("non-empty");
    costs.sort_unstable();
    let p99 = costs[(costs.len() * 99 / 100).min(costs.len() - 1)];
    CostProfile {
        ops: costs.len() as u64,
        total,
        max,
        mean: total as f64 / costs.len() as f64,
        p99,
    }
}

/// An *adaptive* adversary: each step it inspects the calibrator and aims
/// the next insertion at the most loaded region — the slot of the deepest
/// warned node's `DEST` pointer when one exists (stressing the pointer
/// machinery), otherwise the currently densest leaf. This is the strongest
/// oblivious-to-none workload the experiments use; `exp_j_sweep`'s static
/// adversaries bound J from below, this one probes the same bound
/// adaptively.
pub struct AdaptiveAdversary {
    counter: u64,
}

impl AdaptiveAdversary {
    /// A fresh adversary.
    pub fn new() -> Self {
        AdaptiveAdversary { counter: 0 }
    }

    /// Chooses the next key to insert against `file`, or `None` at
    /// capacity. The key lands just above the minimum key of the targeted
    /// slot (distinct keys guaranteed by an internal counter).
    pub fn next_key(&mut self, file: &DenseFile<u64, u64>) -> Option<u64> {
        if file.len() >= file.capacity() {
            return None;
        }
        self.counter += 1;
        let cal = file.calibrator();
        // A deepest warned node's DEST slot (via the SELECT discipline), or
        // a densest-ish leaf found by greedy max-count descent — both
        // O(log M) so the adversary can drive long runs.
        let target_slot = cal.select(0).map(|n| cal.dest(n)).or_else(|| {
            let mut n = dsf_core::NodeId::ROOT;
            while let Some((l, r)) = cal.children(n) {
                n = if cal.count(r) > cal.count(l) { r } else { l };
            }
            Some(cal.range(n).0)
        })?;
        match file.store().min_key(target_slot) {
            Some(mk) => Some(mk | (self.counter << 8) | 1),
            None => Some((u64::from(target_slot) << 40) | self.counter),
        }
    }
}

impl Default for AdaptiveAdversary {
    fn default() -> Self {
        Self::new()
    }
}

/// Counts calibrator nodes currently violating BALANCE(d,D) — a cheap
/// (counter-only) probe the sweep experiments run after every command.
pub fn balance_violations(file: &DenseFile<u64, u64>) -> usize {
    let cal = file.calibrator();
    cal.all_nodes()
        .into_iter()
        .filter(|&n| cal.p_gt(n, 3))
        .count()
}

/// Fills a dense file to half capacity with a uniform backbone whose keys
/// are multiples of `1 << 32` (leaving the gap the hammer aims at), then
/// returns the keys of an adversarial hammer stream that fills the rest.
pub fn hammer_setup(file: &mut DenseFile<u64, u64>) -> Vec<u64> {
    let prefill = file.capacity() / 2;
    file.bulk_load((0..prefill).map(|i| (i << 32, i)))
        .expect("prefill fits");
    let room = (file.capacity() - file.len()) as usize;
    dsf_workloads::hammer(room, 5 << 32, 1)
}

// ---------------------------------------------------------------------
// Scenario replay (E17).
// ---------------------------------------------------------------------

/// The [`dsf_workloads::Geometry`] a scenario generator needs, extracted
/// from a resolved dense-file configuration so the pure generators agree
/// exactly with the calibrator the file will run.
pub fn scenario_geometry(rc: &dsf_core::ResolvedConfig) -> dsf_workloads::Geometry {
    dsf_workloads::Geometry {
        slots: u64::from(rc.slots),
        slot_min: rc.slot_min,
        slot_max: rc.slot_max,
        log_slots: rc.log_slots,
    }
}

/// Per-op-kind cost profiles of a replayed scenario stream.
#[derive(Debug, Clone, Default)]
pub struct OpsProfile {
    /// Structural commands (inserts + removes).
    pub updates: CostProfile,
    /// Stream-retrieval requests.
    pub scans: CostProfile,
    /// Point lookups replayed.
    pub gets: u64,
    /// Inserts the structure refused (capacity); always 0 for in-plan
    /// scenario streams.
    pub refused: u64,
}

/// Replays a full [`dsf_workloads::Op`] stream against a driver, measuring
/// page accesses per operation, split by kind.
pub fn replay_ops<D: Driver + ?Sized>(d: &mut D, ops: &[dsf_workloads::Op]) -> OpsProfile {
    use dsf_workloads::Op;
    let mut updates: Vec<u64> = Vec::new();
    let mut scans: Vec<u64> = Vec::new();
    let mut gets = 0u64;
    let mut refused = 0u64;
    for op in ops {
        let snap = d.snapshot();
        match *op {
            Op::Insert(k) => {
                if !d.insert(k) {
                    refused += 1;
                }
                updates.push(d.since(snap));
            }
            Op::Remove(k) => {
                d.remove(k);
                updates.push(d.since(snap));
            }
            Op::Get(k) => {
                d.get(k);
                gets += 1;
            }
            Op::Scan { start, limit } => {
                d.scan(start, limit);
                scans.push(d.since(snap));
            }
        }
    }
    OpsProfile {
        updates: summarize(&mut updates),
        scans: summarize(&mut scans),
        gets,
        refused,
    }
}

/// The middle value of `v` (sorted in place; `v` has odd length): the
/// statistic of the experiments that time alternating pairs of runs.
pub fn median<T: Copy + PartialOrd>(v: &mut [T]) -> T {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    v[v.len() / 2]
}

/// Formats a float with a sensible width for tables.
pub fn f(x: f64) -> String {
    if x >= 100.0 {
        format!("{x:.0}")
    } else if x >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_core::DenseFileConfig;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(["col", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        let s = t.render("demo");
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
        let lines: Vec<&str> = s.lines().filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 5); // title, header, rule, two rows
    }

    #[test]
    fn table_handles_empty_and_wide_cells() {
        let t = Table::new(["only-header"]);
        let s = t.render("empty");
        assert!(s.contains("only-header"));
        assert_eq!(s.lines().filter(|l| !l.is_empty()).count(), 3);

        let mut t = Table::new(["a"]);
        t.row(["a-very-wide-cell-value"]);
        let s = t.render("wide");
        assert!(s.contains("a-very-wide-cell-value"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn float_formatting_scales_precision() {
        assert_eq!(f(0.1234), "0.12");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1234.5), "1234"); // {:.0} uses round-half-to-even
    }

    #[test]
    fn drivers_agree_on_a_small_workload() {
        let keys = dsf_workloads::uniform_unique(5, 200, 0, 1 << 30);
        let mut drivers: Vec<Box<dyn Driver>> = vec![
            Box::new(DenseDriver::new(
                "control2",
                DenseFileConfig::control2(64, 8, 40),
            )),
            Box::new(DenseDriver::new(
                "control1",
                DenseFileConfig::control1(64, 8, 40),
            )),
            Box::new(BTreeDriver::new(40)),
            Box::new(NaiveDriver::new(40)),
            Box::new(OverflowDriver::new(64, 40)),
            Box::new(PmaDriver::new(64, 40, 8)),
        ];
        for d in drivers.iter_mut() {
            for &k in &keys {
                assert!(d.insert(k), "{} refused insert", d.name());
            }
            assert_eq!(d.len(), 200, "{}", d.name());
            assert!(d.get(keys[7]), "{}", d.name());
            assert!(!d.get(keys[7] ^ 1), "{}", d.name());
            assert_eq!(d.scan(0, 50), 50, "{}", d.name());
            assert!(d.remove(keys[3]), "{}", d.name());
            assert_eq!(d.len(), 199, "{}", d.name());
            assert!(d.accesses() > 0, "{}", d.name());
        }
    }

    #[test]
    fn adaptive_adversary_fills_without_breaking_balance() {
        let mut file: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
        file.bulk_load((0..256u64).map(|i| (i << 32, i))).unwrap();
        let mut adv = AdaptiveAdversary::new();
        let mut inserted = 0;
        while let Some(k) = adv.next_key(&file) {
            if file.insert(k, 0).is_ok() {
                inserted += 1;
            }
            assert_eq!(
                balance_violations(&file),
                0,
                "after {inserted} adaptive inserts"
            );
            if inserted > 300 {
                break;
            }
        }
        assert!(inserted >= 200, "adversary stalled at {inserted}");
        file.check_invariants().unwrap();
    }

    #[test]
    fn profile_reports_extremes() {
        let mut d = DenseDriver::new("control2", DenseFileConfig::control2(32, 8, 40));
        let keys = dsf_workloads::ascending(100, 0, 10);
        let p = profile_inserts(&mut d, &keys);
        assert_eq!(p.ops, 100);
        assert!(p.max >= p.p99);
        assert!(p.mean > 0.0);
        assert!(p.total >= p.max);
    }
}
