//! # dsf-telemetry — the workspace's observability spine.
//!
//! The paper's headline claim is a *worst-case* per-command bound of
//! `O(log²M/(D−d))` page accesses. Trusting that claim in a long-running
//! system requires every command's cost to be measured, attributed, and
//! exportable while traffic is flowing — not just printed at the end of a
//! bench run. This crate is the single metrics spine the rest of the
//! workspace records into:
//!
//! * [`Registry`] — named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   [`Histogram`]s. The hot path is one relaxed-atomic op per event, zero
//!   allocation, and a **single branch no-op while disabled** (the same
//!   discipline as the `dsf-flight` recorder). Registration is the
//!   cold path and takes a lock; recording never does.
//! * [`export`] — Prometheus text exposition served over a tiny
//!   `std::net` HTTP listener (no dependencies; the workspace is offline),
//!   a JSON snapshot writer the bench harness diffs across runs, and an
//!   exposition parser the CI smoke test uses to validate the endpoint.
//!
//! ## The global spine
//!
//! The library crates (`dsf-pagestore`, `dsf-core`, `dsf-durable`,
//! `dsf-concurrent`) record into one process-wide registry reached through
//! [`global`], which starts **disabled**: until [`Registry::enable`] is
//! called, every instrument is an inert branch. Tools that want live
//! metrics (`dsf serve-metrics`, `dsf top`, `exp_telemetry`) enable it
//! explicitly.
//!
//! Metrics aggregate; they do not attribute. *Which* command touched 224
//! pages, and where a slow request spent its time, is the flight
//! recorder's job (`dsf-flight`): it records every command and every
//! served request's timeline exactly, so this crate keeps no per-command
//! ring of its own.
//!
//! ```
//! use dsf_telemetry as tel;
//!
//! let reg = tel::Registry::new();
//! let hist = reg.histogram("demo_page_accesses", "per-command page accesses");
//! hist.record(7); // disabled: no-op
//! reg.enable();
//! hist.record(7);
//! assert_eq!(hist.max(), 7);
//! assert!(reg.render_prometheus().contains("demo_page_accesses_count"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod registry;

pub use export::{parse_exposition, serve, ExpositionSummary, MetricsListener, MetricsServer};
pub use registry::{Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};

use std::sync::OnceLock;

/// The process-wide registry every dsf crate records into. Starts disabled.
pub fn global() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Whether the global spine is currently recording — the one branch every
/// disabled-path instrument takes.
#[inline]
pub fn enabled() -> bool {
    global().is_enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_spine_starts_disabled_and_toggles() {
        // The global registry is process-wide; this test only toggles it
        // briefly and restores the disabled state.
        assert!(!enabled());
        global().enable();
        assert!(enabled());
        global().disable();
        assert!(!enabled());
    }
}
