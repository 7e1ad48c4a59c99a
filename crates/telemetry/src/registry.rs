//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms behind relaxed atomics.
//!
//! Instruments are registered once (cold path, takes a lock) and handed
//! back as cheap [`Arc`] handles; recording through a handle is lock-free —
//! one relaxed atomic RMW per event — and a single-branch no-op while the
//! registry is disabled, so the cost of *having* telemetry compiled in is
//! one predictable branch per instrumented event.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 counts zero-valued observations,
/// bucket `i ∈ 1..32` counts values in `(2^(i−1), 2^i]`, and bucket 32 is
/// the catch-all for everything above `2^31` — the same power-of-two
/// bucketing as `dsf_core::AccessHistogram`, so the two reconcile exactly
/// over the same event stream.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// Bucket index for an observed value (shared bucketing contract).
#[inline]
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - (value - 1).leading_zeros().min(63) as usize).min(32)
    }
}

/// Inclusive upper bound of bucket `i` (`0` for bucket 0, `2^i` otherwise;
/// bucket 32 is unbounded and rendered as `+Inf`).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i.min(63)
    }
}

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    on: Arc<AtomicBool>,
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter (no-op while the registry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.on.load(Relaxed) {
            self.value.fetch_add(n, Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Relaxed);
    }
}

/// An instantaneous value (stored as `f64` bits, as Prometheus gauges are
/// floating-point anyway).
#[derive(Debug)]
pub struct Gauge {
    on: Arc<AtomicBool>,
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge (no-op while the registry is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if self.on.load(Relaxed) {
            self.bits.store(v.to_bits(), Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Relaxed);
    }
}

/// A fixed-bucket power-of-two histogram with exact `count`, `sum`, and
/// `max` side counters.
#[derive(Debug)]
pub struct Histogram {
    on: Arc<AtomicBool>,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Records one observation (no-op while the registry is disabled).
    ///
    /// Relaxed atomics mean concurrent recorders never lose events, though
    /// a scrape racing a record may observe `count` momentarily ahead of a
    /// bucket — exactness holds at quiescence, which is what the
    /// reconciliation tests measure.
    #[inline]
    pub fn record(&self, value: u64) {
        if !self.on.load(Relaxed) {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest observation recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Per-bucket counts (non-cumulative), in bucket order.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.max.store(0, Relaxed);
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Entry {
    /// Metric family name (`dsf_page_reads_total`).
    pub(crate) family: String,
    /// Rendered label set (`shard="3"`), empty when unlabelled.
    pub(crate) labels: String,
    pub(crate) help: String,
    pub(crate) instrument: Instrument,
}

/// A collection of named instruments with one shared on/off switch.
///
/// Disabled by default: every handle registered from it no-ops until
/// [`Registry::enable`] flips the shared flag (and keeps no-opping again
/// after [`Registry::disable`]). Registration is idempotent — asking for an
/// existing `(family, labels)` pair returns the same underlying instrument.
#[derive(Debug, Default)]
pub struct Registry {
    on: Arc<AtomicBool>,
    entries: Mutex<Vec<Entry>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        assert!(valid_name(k), "invalid label name `{k}`");
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

impl Registry {
    /// An empty, **disabled** registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Starts recording: every handle's next event lands.
    pub fn enable(&self) {
        self.on.store(true, Relaxed);
    }

    /// Stops recording; values already accumulated remain readable.
    pub fn disable(&self) {
        self.on.store(false, Relaxed);
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.on.load(Relaxed)
    }

    fn register(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce(Arc<AtomicBool>) -> Instrument,
    ) -> Instrument {
        assert!(valid_name(name), "invalid metric name `{name}`");
        let labels = render_labels(labels);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = entries
            .iter()
            .find(|e| e.family == name && e.labels == labels)
        {
            return e.instrument.clone();
        }
        let instrument = make(Arc::clone(&self.on));
        entries.push(Entry {
            family: name.to_string(),
            labels,
            help: help.to_string(),
            instrument: instrument.clone(),
        });
        instrument
    }

    /// Registers (or retrieves) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// Registers (or retrieves) a counter with a label set.
    ///
    /// # Panics
    ///
    /// Panics if `(name, labels)` is already registered as a different
    /// instrument type, or on an invalid metric/label name.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        match self.register(name, labels, help, |on| {
            Instrument::Counter(Arc::new(Counter {
                on,
                value: AtomicU64::new(0),
            }))
        }) {
            Instrument::Counter(c) => c,
            other => panic!("`{name}` already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or retrieves) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// Registers (or retrieves) a gauge with a label set.
    ///
    /// # Panics
    ///
    /// See [`Registry::counter_with`].
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        match self.register(name, labels, help, |on| {
            Instrument::Gauge(Arc::new(Gauge {
                on,
                bits: AtomicU64::new(0f64.to_bits()),
            }))
        }) {
            Instrument::Gauge(g) => g,
            other => panic!("`{name}` already registered as a {}", other.type_name()),
        }
    }

    /// Registers (or retrieves) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[], help)
    }

    /// Registers (or retrieves) a histogram with a label set.
    ///
    /// # Panics
    ///
    /// See [`Registry::counter_with`].
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<Histogram> {
        match self.register(name, labels, help, |on| {
            Instrument::Histogram(Arc::new(Histogram {
                on,
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }))
        }) {
            Instrument::Histogram(h) => h,
            other => panic!("`{name}` already registered as a {}", other.type_name()),
        }
    }

    /// Removes one `(family, labels)` entry so it stops rendering in the
    /// exposition. Outstanding handles keep working (recording into a
    /// now-unlisted instrument) — retirement is about bounding exposition
    /// cardinality when the labelled subject is gone (a disconnected
    /// client), not about invalidating handles. Re-registering the same
    /// pair later creates a fresh instrument starting from zero. Returns
    /// whether an entry was removed.
    pub fn retire(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let labels = render_labels(labels);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let before = entries.len();
        entries.retain(|e| !(e.family == name && e.labels == labels));
        entries.len() != before
    }

    /// Zeroes every instrument (handles stay valid). Used by benches to
    /// separate phases and by tests for isolation.
    pub fn reset(&self) {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            match &e.instrument {
                Instrument::Counter(c) => c.reset(),
                Instrument::Gauge(g) => g.reset(),
                Instrument::Histogram(h) => h.reset(),
            }
        }
    }

    /// Number of registered instruments (samples may be larger: a
    /// histogram renders as many exposition lines).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn snapshot_entries(&self) -> Vec<Entry> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::new();
        let c = reg.counter("c_total", "events");
        let g = reg.gauge("g", "level");
        let h = reg.histogram("h", "sizes");
        c.add(5);
        g.set(3.5);
        h.record(9);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!((h.count(), h.sum(), h.max()), (0, 0, 0));
    }

    #[test]
    fn enabled_registry_accumulates_and_resets() {
        let reg = Registry::new();
        reg.enable();
        let c = reg.counter("c_total", "events");
        let h = reg.histogram("h", "sizes");
        c.add(2);
        c.inc();
        h.record(0);
        h.record(3);
        h.record(1000);
        assert_eq!(c.get(), 3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1003);
        assert_eq!(h.max(), 1000);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1); // zero
        assert_eq!(buckets[2], 1); // 3 ∈ (2,4]
        assert_eq!(buckets[10], 1); // 1000 ∈ (512,1024]
        reg.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 0);
    }

    #[test]
    fn registration_is_idempotent_per_label_set() {
        let reg = Registry::new();
        reg.enable();
        let a = reg.counter_with("cmds_total", &[("shard", "0")], "per-shard");
        let b = reg.counter_with("cmds_total", &[("shard", "0")], "per-shard");
        let other = reg.counter_with("cmds_total", &[("shard", "1")], "per-shard");
        a.inc();
        assert_eq!(b.get(), 1, "same (name, labels) shares one instrument");
        assert_eq!(other.get(), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn retire_unlists_but_keeps_handles_working() {
        let reg = Registry::new();
        reg.enable();
        let a = reg.counter_with("cmds_total", &[("client", "1")], "per-client");
        let b = reg.counter_with("cmds_total", &[("client", "2")], "per-client");
        a.inc();
        assert!(reg.retire("cmds_total", &[("client", "1")]));
        assert!(!reg.retire("cmds_total", &[("client", "1")]), "idempotent");
        assert_eq!(reg.len(), 1, "only client 2 remains listed");
        a.inc();
        assert_eq!(a.get(), 2, "retired handle still records");
        b.inc();
        let fresh = reg.counter_with("cmds_total", &[("client", "1")], "per-client");
        assert_eq!(fresh.get(), 0, "re-registration starts from zero");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x", "");
        reg.gauge("x", "");
    }

    #[test]
    fn bucket_index_matches_access_histogram_contract() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(u64::MAX), 32);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 2);
        assert_eq!(bucket_upper_bound(10), 1024);
    }
}
