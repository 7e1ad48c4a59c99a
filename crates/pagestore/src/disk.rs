//! Rotational-disk cost model.
//!
//! The paper's closing argument (§4 and §5) is a *systems* claim: retrieving
//! a stream of records with consecutive key values is faster from a dense
//! sequential file than from a B-tree, "because the latter entails much disk
//! arm movement when consecutive records are not stored in adjacent
//! locations". This module turns that claim into numbers by replaying a
//! physical-page access trace through a parametric seek/rotate/transfer
//! model.
//!
//! This is a *substitution* for 1986 hardware (documented in `DESIGN.md`):
//! the absolute milliseconds depend on the chosen parameters, but the
//! relative shape — sequential runs pay one seek, scattered accesses pay one
//! seek each — is hardware-independent and is exactly what the paper's
//! argument rests on.

use crate::trace::AccessEvent;

/// Parameters of a rotational disk.
///
/// ```
/// use dsf_pagestore::disk::DiskModel;
/// use dsf_pagestore::{AccessEvent, AccessKind};
/// let m = DiskModel::ibm3380_class();
/// let seq: Vec<AccessEvent> = (0..100u64)
///     .map(|page| AccessEvent { page, kind: AccessKind::Read })
///     .collect();
/// let scattered: Vec<AccessEvent> = (0..100u64)
///     .map(|i| AccessEvent { page: i * 1000, kind: AccessKind::Read })
///     .collect();
/// // One seek plus transfers vs a seek per page:
/// assert!(m.replay_ms(&scattered) > 10.0 * m.replay_ms(&seq));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Average seek time in milliseconds, paid whenever the arm must move
    /// (i.e. the next page is not physically contiguous with the previous).
    pub avg_seek_ms: f64,
    /// Average rotational latency in milliseconds, paid with every seek.
    pub rotational_latency_ms: f64,
    /// Transfer time per page in milliseconds, paid for every page access.
    pub transfer_ms_per_page: f64,
    /// Forward jumps of at most this many pages are *read through* rather
    /// than seeked over: the head keeps streaming and the skipped pages
    /// cost their transfer time. This models how a sequential sweep over a
    /// dense file treats its empty pages; 0 makes every jump a seek.
    pub read_through_pages: u64,
}

impl DiskModel {
    /// A mid-1980s mainframe disk in the class the paper's readers would
    /// have had in mind (IBM 3380-like): ~16 ms average seek, ~8.3 ms
    /// average rotational latency, ~1 ms to transfer a page.
    pub fn ibm3380_class() -> Self {
        DiskModel {
            avg_seek_ms: 16.0,
            rotational_latency_ms: 8.3,
            transfer_ms_per_page: 1.0,
            read_through_pages: 16,
        }
    }

    /// A modern 7200 rpm SATA drive: ~8 ms seek, ~4.17 ms rotational
    /// latency, ~0.05 ms to transfer a page.
    pub fn modern_hdd() -> Self {
        DiskModel {
            avg_seek_ms: 8.0,
            rotational_latency_ms: 4.17,
            transfer_ms_per_page: 0.05,
            read_through_pages: 16,
        }
    }

    /// Cost of a single random page access (seek + rotate + transfer).
    pub fn random_access_ms(&self) -> f64 {
        self.avg_seek_ms + self.rotational_latency_ms + self.transfer_ms_per_page
    }

    /// Estimated time to perform `trace` in order.
    ///
    /// The first access always pays a full random access. A subsequent
    /// access to the same page is free (drive buffer); a short forward jump
    /// of `g ≤ read_through_pages` pages streams through at
    /// `min(g × transfer, seek + rotate + transfer)` — the scheduler takes
    /// whichever of reading through or seeking is cheaper; anything else
    /// pays a full random access.
    pub fn replay_ms(&self, trace: &[AccessEvent]) -> f64 {
        let mut total = 0.0;
        let mut prev: Option<u64> = None;
        for ev in trace {
            match prev {
                Some(p) if ev.page == p => {
                    // Re-touching the same page is free: it is already in
                    // the drive buffer / under the head.
                }
                Some(p) if ev.page > p && ev.page - p <= self.read_through_pages.max(1) => {
                    let stream = (ev.page - p) as f64 * self.transfer_ms_per_page;
                    total += stream.min(self.random_access_ms());
                }
                _ => total += self.random_access_ms(),
            }
            prev = Some(ev.page);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AccessEvent, AccessKind};

    fn ev(page: u64) -> AccessEvent {
        AccessEvent {
            page,
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn empty_trace_costs_nothing() {
        let m = DiskModel::ibm3380_class();
        assert_eq!(m.replay_ms(&[]), 0.0);
    }

    #[test]
    fn sequential_run_pays_one_seek() {
        let m = DiskModel::ibm3380_class();
        let trace: Vec<_> = (0..100).map(ev).collect();
        let cost = m.replay_ms(&trace);
        let expected = m.random_access_ms() + 99.0 * m.transfer_ms_per_page;
        assert!(
            (cost - expected).abs() < 1e-9,
            "cost {cost} expected {expected}"
        );
    }

    #[test]
    fn scattered_accesses_each_pay_a_seek() {
        let m = DiskModel::ibm3380_class();
        let trace: Vec<_> = (0..100).map(|i| ev(i * 1000)).collect();
        let cost = m.replay_ms(&trace);
        let expected = 100.0 * m.random_access_ms();
        assert!((cost - expected).abs() < 1e-9);
    }

    #[test]
    fn short_forward_gaps_are_read_through() {
        let m = DiskModel::ibm3380_class(); // read_through_pages = 16
                                            // 0 → 10: streams through 10 pages; 10 → 9 (backwards): seeks.
        let trace = vec![ev(0), ev(10), ev(9)];
        let expected = m.random_access_ms() + 10.0 * m.transfer_ms_per_page + m.random_access_ms();
        assert!((m.replay_ms(&trace) - expected).abs() < 1e-9);
        // A gap just past the window seeks.
        let trace = vec![ev(0), ev(17)];
        let expected = 2.0 * m.random_access_ms();
        assert!((m.replay_ms(&trace) - expected).abs() < 1e-9);
    }

    #[test]
    fn same_page_retouch_is_free() {
        let m = DiskModel::modern_hdd();
        let trace = vec![ev(5), ev(5), ev(5)];
        assert!((m.replay_ms(&trace) - m.random_access_ms()).abs() < 1e-9);
    }

    #[test]
    fn sequential_beats_scattered_by_orders_of_magnitude() {
        let m = DiskModel::ibm3380_class();
        let seq: Vec<_> = (0..1000).map(ev).collect();
        let scattered: Vec<_> = (0..1000).map(|i| ev((i * 7919) % 100_000)).collect();
        let ratio = m.replay_ms(&scattered) / m.replay_ms(&seq);
        assert!(
            ratio > 10.0,
            "expected ≥10× win for sequential, got {ratio:.1}×"
        );
    }

    #[test]
    fn presets_are_sane() {
        assert!(
            DiskModel::ibm3380_class().random_access_ms()
                > DiskModel::modern_hdd().random_access_ms()
        );
    }
}
