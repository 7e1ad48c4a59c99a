//! # dsf-core — Willard's dense sequential file
//!
//! A faithful, production-quality implementation of
//!
//! > Dan E. Willard, *Good Worst-Case Algorithms for Inserting and Deleting
//! > Records in Dense Sequential Files*, SIGMOD 1986.
//!
//! A **(d,D)-dense sequential file** stores a dynamic set of keyed records
//! in ascending key order across `M` consecutive pages, holding at most
//! `N = d·M` records with no page exceeding `D`. The payoff is *stream
//! retrieval*: a range scan reads physically adjacent pages, which on
//! rotational media is dramatically cheaper than chasing a B-tree's
//! scattered leaves. The challenge is maintenance — and this crate provides
//! both of the paper's answers:
//!
//! * [`Algorithm::Control1`] — the amortized algorithm (§3): when a
//!   calibrator node's density exceeds its `g(v,1)` bound, redistribute its
//!   father's range in one shot. `O(log²M/(D−d))` amortized, `O(M)` worst
//!   case.
//! * [`Algorithm::Control2`] — the worst-case algorithm (§4): warning flags
//!   with hysteresis, `DEST`/`SOURCE` pointers, and `J` incremental SHIFT
//!   operations per command spread every rebalance over many commands —
//!   `O(log²M/(D−d))` **per command, worst case** (Theorem 5.5), with the
//!   macro-block reduction (Theorem 5.7) covering small density gaps.
//!
//! ## Quick start
//!
//! ```
//! use dsf_core::{DenseFile, DenseFileConfig};
//!
//! // 256 pages, at most 8·256 = 2048 records, at most 40 records per page.
//! let mut file: DenseFile<u64, String> =
//!     DenseFile::new(DenseFileConfig::control2(256, 8, 40)).unwrap();
//!
//! file.bulk_load((0..1000u64).map(|k| (k * 10, format!("row-{k}")))).unwrap();
//! file.insert(55, "fifty-five".into()).unwrap();
//!
//! // Stream retrieval: records 100..=200 in key order, physically sequential.
//! let streamed: Vec<u64> = file.range(100..=200).map(|(k, _)| *k).collect();
//! assert_eq!(streamed.len(), 11);
//!
//! // The paper's guarantee, measurable: worst command cost stays bounded.
//! println!("worst command: {} page accesses", file.op_stats().max_accesses);
//! # file.check_invariants().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod calibrator;
mod config;
mod control1;
mod control2;
mod error;
mod file;
mod invariant;
mod maintenance;
mod order;
mod readview;
mod scan;
pub mod snapshot;
pub mod stats;
mod tel;

pub use batch::{Command, CommandOutcome};
pub use calibrator::{Calibrator, NodeId};
pub use config::{
    ceil_log2, AblationTweaks, Algorithm, ConfigError, DenseFileConfig, MacroBlocking,
    ResolvedConfig,
};
pub use error::{BulkLoadError, DsfError};
pub use file::{Audit, DenseFile};
pub use invariant::InvariantViolation;
pub use readview::{ReadConflict, ReadView, MAX_ATTEMPTS as READ_MAX_ATTEMPTS};
pub use scan::{Scan, ScanRev};
pub use snapshot::{Codec, SnapshotError};
pub use stats::{AccessHistogram, OpStats};
