//! # willard-dsf — dense sequential files with good worst-case maintenance
//!
//! A comprehensive Rust reproduction of
//!
//! > Dan E. Willard, *Good Worst-Case Algorithms for Inserting and Deleting
//! > Records in Dense Sequential Files*, SIGMOD 1986.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core_`] — the paper's contribution: the [`DenseFile`] maintained by
//!   CONTROL 1 (amortized) or
//!   CONTROL 2 (worst-case `O(log²M/(D−d))` page accesses per command),
//!   including the macro-block regime of Theorem 5.7.
//! * [`pagestore`] — the shared paged-storage substrate with page-access
//!   accounting and the rotational-disk cost model.
//! * [`btree`] — a B+-tree over the same substrate (the paper's comparator).
//! * [`baselines`] — the classical alternatives: naive sequential file,
//!   ISAM-style overflow chaining, and an amortized PMA.
//! * [`workloads`] — deterministic workload generators (uniform, burst,
//!   hammer, hotspot, mixed).
//! * [`concurrent`] — the range-sharded concurrent store
//!   ([`ShardedFile`]): per-stripe dense files, in memory or WAL-backed,
//!   behind reader-writer locks, preserving the per-command bound per
//!   stripe.
//! * [`durable`] — crash safety ([`DurableFile`]): checkpoints plus a
//!   CRC-framed write-ahead log with torn-tail recovery.
//! * [`telemetry`] — the observability spine: a process-wide registry of
//!   counters/gauges/histograms every layer records into (disabled by
//!   default; zero-allocation, single-branch when off), per-command spans,
//!   and Prometheus/JSON exporters behind `dsf serve-metrics` and
//!   `dsf top`. See `docs/OBSERVABILITY.md` for the metric catalogue.
//! * [`flight`] — the flight recorder: a bounded binary event ring in
//!   which every layer records under one per-command sequence number,
//!   replayable into causal cost attribution (user step vs SHIFT vs
//!   ACTIVATE vs WAL) audited against the paper's worst-case bound. Its
//!   [`flight::request`] module adds end-to-end request tracing: a
//!   client-propagated trace id plus a per-request phase timeline (wire
//!   decode → queue wait → lock wait → execute → WAL append → fsync → ack
//!   write) recorded into the same ring, folded into per-phase latency
//!   stats and p99 exemplar waterfalls, exportable as Chrome
//!   `trace_event` JSON. Behind `dsf flight record`/`replay`,
//!   `dsf trace record` and `dsf explain`.
//! * [`server`] — the pipelined TCP front-end (`dsf serve`/`dsf client`):
//!   a length-prefixed binary protocol whose per-shard request
//!   accumulator coalesces concurrent clients into the group commits the
//!   layers above make cheap, with per-request durability-on-ack.
//!
//! The most common types are re-exported at the crate root; see the
//! `examples/` directory for runnable walkthroughs and `crates/bench` for
//! the harness that regenerates every figure and claim of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dsf_baselines as baselines;
pub use dsf_btree as btree;
pub use dsf_concurrent as concurrent;
pub use dsf_core as core_;
pub use dsf_durable as durable;
pub use dsf_flight as flight;
pub use dsf_pagestore as pagestore;
pub use dsf_server as server;
pub use dsf_telemetry as telemetry;
pub use dsf_workloads as workloads;

pub use dsf_baselines::{AmortizedPma, NaiveSequentialFile, OverflowFile, PmaConfig};
pub use dsf_btree::{BPlusTree, BTreeConfig};
pub use dsf_concurrent::ShardedFile;
pub use dsf_core::{
    Algorithm, Command, CommandOutcome, DenseFile, DenseFileConfig, DsfError, InvariantViolation,
    MacroBlocking, ReadConflict, ReadView, READ_MAX_ATTEMPTS,
};
pub use dsf_durable::{Durability, DurableFile, SyncPolicy};
pub use dsf_pagestore::{disk::DiskModel, IoStats, Record};
pub use dsf_server::{KvService, Server, ServerConfig};
