//! The bounded ring finished timelines land in.
//!
//! The design goal is the same as `dsf-telemetry`'s `SpanRing` — keep
//! the newest N records, count what was lost, never grow — with one
//! stricter requirement: a push happens on the connection thread's ack
//! path and must **never block**. The ring is therefore striped: an
//! atomic cursor picks a slot, the slot's own lock is only ever
//! `try_lock`ed on push, and a contended slot counts a drop instead of
//! waiting. Readers (`snapshot`) take the slot locks properly; they can
//! delay at most one concurrent push per slot they hold.

use crate::TraceRecord;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// A ring slot: the record pushed at cursor n (n % capacity == i),
/// tagged with n so snapshots can restore push order.
type Slot = Mutex<Option<(u64, TraceRecord)>>;

/// A bounded, drop-counting, non-blocking ring of [`TraceRecord`]s.
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Total pushes attempted (also the slot cursor).
    pushed: AtomicU64,
    /// Records lost: overwritten by wrap-around or skipped on slot
    /// contention.
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring retaining at most `capacity` records (at least 1).
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            pushed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Retained capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Pushes one record without ever blocking: a contended slot (a
    /// snapshot holding its lock) drops the record and counts it.
    pub fn push(&self, rec: TraceRecord) {
        let n = self.pushed.fetch_add(1, Relaxed);
        let idx = (n % self.slots.len() as u64) as usize;
        match self.slots[idx].try_lock() {
            Ok(mut slot) => {
                if slot.replace((n, rec)).is_some() {
                    // Wrap-around: the previous tenant is lost.
                    self.dropped.fetch_add(1, Relaxed);
                }
            }
            Err(_) => {
                self.dropped.fetch_add(1, Relaxed);
            }
        }
    }

    /// Total records ever pushed (including dropped ones).
    pub fn total(&self) -> u64 {
        self.pushed.load(Relaxed)
    }

    /// Records lost to wrap-around or contention.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Relaxed)
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let mut tagged: Vec<(u64, TraceRecord)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).clone())
            .collect();
        tagged.sort_unstable_by_key(|(n, _)| *n);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Discards every retained record and resets the counters.
    pub fn clear(&self) {
        for s in &self.slots {
            s.lock().unwrap_or_else(|e| e.into_inner()).take();
        }
        self.pushed.store(0, Relaxed);
        self.dropped.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PHASE_COUNT;

    fn rec(id: u64) -> TraceRecord {
        TraceRecord {
            id,
            client: 0,
            seq: 0,
            kind: 0x01,
            started: id,
            phases: [id; PHASE_COUNT],
        }
    }

    #[test]
    fn retains_newest_and_counts_drops() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.push(rec(i));
        }
        assert_eq!(ring.total(), 10);
        assert_eq!(ring.dropped(), 6);
        let snap = ring.snapshot();
        let ids: Vec<u64> = snap.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn snapshot_restores_push_order_across_wrap() {
        let ring = TraceRing::new(3);
        for i in 0..5 {
            ring.push(rec(i));
        }
        let ids: Vec<u64> = ring.snapshot().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
    }

    #[test]
    fn clear_resets_everything() {
        let ring = TraceRing::new(2);
        ring.push(rec(1));
        ring.push(rec(2));
        ring.push(rec(3));
        ring.clear();
        assert_eq!(ring.total(), 0);
        assert_eq!(ring.dropped(), 0);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = TraceRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(rec(9));
        assert_eq!(ring.snapshot().len(), 1);
    }

    #[test]
    fn concurrent_pushes_never_lose_count() {
        let ring = std::sync::Arc::new(TraceRing::new(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        ring.push(rec(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("pusher");
        }
        assert_eq!(ring.total(), 1000);
        // Retained + dropped accounts for every push.
        assert_eq!(ring.snapshot().len() as u64 + ring.dropped(), 1000);
    }
}
