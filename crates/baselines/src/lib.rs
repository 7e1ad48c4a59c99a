//! # dsf-baselines — the structures the paper argues against (and beyond)
//!
//! Three comparators, all measured in the same page-access cost model as
//! the dense sequential file:
//!
//! * [`NaiveSequentialFile`] — the classical fully-packed sequential file
//!   (`d = D`). Perfect for streams, but every insertion shifts the entire
//!   suffix of the file: `O(M)` page accesses per update. This is the
//!   starting point of the paper's introduction.
//! * [`OverflowFile`] — an ISAM-style sequential file with per-page
//!   overflow chains, the classical mitigation the paper's introduction
//!   (citing Wiederhold) rejects: it works until "a large surge of
//!   insertions is attempted in a relatively small portion of the
//!   sequential file", after which chains grow without bound and stream
//!   retrieval degenerates into chain-chasing seeks. The
//!   `exp_overflow_burst` experiment reproduces that collapse.
//! * [`AmortizedPma`] — a modern two-threshold Packed Memory Array (the
//!   Itai-Konheim-Rodeh / Bender-style descendant of this paper's CONTROL 1):
//!   gapped segments with height-interpolated density thresholds and
//!   smallest-legal-window rebalancing. Amortized `O(log²N)` element moves,
//!   but — like CONTROL 1 and unlike CONTROL 2 — individual updates can
//!   trigger an `O(M)`-page rebalance. Its segments live in a
//!   [`dsf_pagestore::PagedStore`], and a rebalance is the store's
//!   `redistribute`, the same kernel (and the same charges) as CONTROL 1's
//!   step B. So the store's rules decide two charges: an insert into an
//!   empty PMA reads no page (an empty segment is metadata), and
//!   `bulk_load` charges a write per segment it fills.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod naive;
mod overflow;
mod pma;

pub use naive::NaiveSequentialFile;
pub use overflow::{OverflowFile, OverflowStats};
pub use pma::{AmortizedPma, PmaConfig, PmaError};
