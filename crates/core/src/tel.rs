//! This crate's handles into the global telemetry spine.
//!
//! [`OpStats`](crate::OpStats) stays the per-file instrument (tests and
//! experiments diff instances against each other); the handles here mirror
//! the same events into the process-wide registry so `dsf serve-metrics`
//! can export them live. Mirroring happens once per *command* (not per
//! counter bump): `DenseFile::insert`/`remove` capture a tiny pre-command
//! snapshot of the [`OpStats`](crate::OpStats) counters when telemetry is
//! enabled and publish the deltas at command end. While the registry is
//! disabled — the default — the entire hook is one branch per command.

use std::sync::{Arc, OnceLock};

use dsf_telemetry::{Counter, Gauge, Histogram};

pub(crate) struct CoreTel {
    /// `dsf_command_page_accesses` — per-command page accesses, bucketed
    /// identically to [`AccessHistogram`](crate::AccessHistogram) so the
    /// exported series reconciles bucket-for-bucket (and max-for-max)
    /// against `OpStats`.
    pub cmd_hist: Arc<Histogram>,
    /// `dsf_commands_total{kind="insert"}`.
    pub inserts: Arc<Counter>,
    /// `dsf_commands_total{kind="delete"}`.
    pub deletes: Arc<Counter>,
    /// `dsf_shifts_total` — CONTROL 2 SHIFT invocations.
    pub shifts: Arc<Counter>,
    /// `dsf_shift_records_moved_total`.
    pub shift_records: Arc<Counter>,
    /// `dsf_activations_total` — ACTIVATE calls.
    pub activations: Arc<Counter>,
    /// `dsf_rollbacks_total` — roll-back rule applications.
    pub rollbacks: Arc<Counter>,
    /// `dsf_flags_lowered_total`.
    pub flags_lowered: Arc<Counter>,
    /// `dsf_redistributions_total` — CONTROL 1 one-shot redistributions.
    pub redistributions: Arc<Counter>,
    /// `dsf_warning_flags` — warned calibrator nodes right now (the raised
    /// flags that drive CONTROL 2's step 4, with their `DEST` pointers).
    pub warning_flags: Arc<Gauge>,
    /// `dsf_records` — records currently held.
    pub records: Arc<Gauge>,
    /// `dsf_balance_headroom_worst` — `1 − max_v p(v)/g(v,1)`: the fraction
    /// of its BALANCE(d,D) threshold the *tightest* calibrator node still
    /// has free. 0 means some node sits exactly at `g(v,1)`; negative means
    /// BALANCE is violated. `O(M)` to compute, so refreshed on demand via
    /// [`DenseFile::refresh_telemetry_gauges`](crate::DenseFile::refresh_telemetry_gauges),
    /// not per command.
    pub balance_headroom: Arc<Gauge>,
    /// `dsf_batch_commands` — commands submitted through
    /// [`DenseFile::apply_batch`](crate::DenseFile::apply_batch) (a subset
    /// of `dsf_commands_total`'s attempts; counted at batch entry, so
    /// replaces/misses/rejections inside a batch are included).
    pub batch_commands: Arc<Counter>,
    /// `dsf_batch_size` — histogram of batch lengths per `apply_batch`
    /// call.
    pub batch_size: Arc<Histogram>,
}

pub(crate) fn tel() -> &'static CoreTel {
    static TEL: OnceLock<CoreTel> = OnceLock::new();
    TEL.get_or_init(|| {
        let r = dsf_telemetry::global();
        CoreTel {
            cmd_hist: r.histogram(
                "dsf_command_page_accesses",
                "page accesses per structural command (the paper's cost unit)",
            ),
            inserts: r.counter_with(
                "dsf_commands_total",
                &[("kind", "insert")],
                "structural commands executed",
            ),
            deletes: r.counter_with(
                "dsf_commands_total",
                &[("kind", "delete")],
                "structural commands executed",
            ),
            shifts: r.counter("dsf_shifts_total", "CONTROL 2 SHIFT invocations"),
            shift_records: r.counter(
                "dsf_shift_records_moved_total",
                "records moved by CONTROL 2 SHIFTs",
            ),
            activations: r.counter("dsf_activations_total", "CONTROL 2 ACTIVATE calls"),
            rollbacks: r.counter(
                "dsf_rollbacks_total",
                "CONTROL 2 roll-back rule applications",
            ),
            flags_lowered: r.counter("dsf_flags_lowered_total", "warning flags lowered"),
            redistributions: r.counter(
                "dsf_redistributions_total",
                "CONTROL 1 one-shot redistributions",
            ),
            warning_flags: r.gauge("dsf_warning_flags", "calibrator nodes currently warned"),
            records: r.gauge("dsf_records", "records currently held by the file"),
            balance_headroom: r.gauge(
                "dsf_balance_headroom_worst",
                "1 - max p(v)/g(v,1): BALANCE headroom at the tightest node",
            ),
            batch_commands: r.counter(
                "dsf_batch_commands",
                "commands submitted via apply_batch (incl. replaces/misses)",
            ),
            batch_size: r.histogram("dsf_batch_size", "commands per apply_batch call"),
        }
    })
}
