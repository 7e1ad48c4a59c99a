//! The bounded, drop-counting binary event ring.
//!
//! Events are stored *encoded* (varint frames, see [`crate::codec`]), so
//! capacity is a byte budget rather than an event count: a ring of
//! `1 MiB` holds on the order of 100k events regardless of how bursty the
//! per-command event mix is. When a push would overflow the budget, whole
//! frames are evicted from the front (oldest first) and counted as
//! dropped, so memory stays bounded under any load.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::codec::{decode_frames, varint_from, FlightEvent};

#[derive(Debug, Default)]
struct Inner {
    buf: VecDeque<u8>,
    dropped: u64,
    total: u64,
    /// Scratch for the frame being pushed, reused so a push allocates
    /// nothing.
    frame: Vec<u8>,
}

/// A bounded ring of encoded [`FlightEvent`] frames.
///
/// Pushes take a short mutex. The recorder is opt-in (see
/// [`crate::enable`]), so unlike the metrics registry this hot path may
/// lock: when the flight recorder is off — the default — no site ever
/// reaches the ring.
#[derive(Debug)]
pub struct FlightRing {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl FlightRing {
    /// A ring holding at most `capacity_bytes` of encoded frames.
    pub fn new(capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "flight ring capacity must be non-zero");
        FlightRing {
            capacity: capacity_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Encodes and stores one event, evicting (and counting) the oldest
    /// frames when the byte budget would overflow.
    pub fn push(&self, event: &FlightEvent) {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        inner.frame.clear();
        event.encode(&mut inner.frame);
        inner.total += 1;
        let len = inner.frame.len();
        if len > self.capacity {
            // A single frame larger than the whole ring can never be
            // retained; count it dropped rather than wedging the buffer.
            inner.dropped += 1;
            return;
        }
        if inner.buf.len() + len > self.capacity {
            Self::evict_front(inner, len, self.capacity);
        }
        inner.buf.extend(&inner.frame);
    }

    /// Evicts whole frames from the front until `incoming` more bytes fit
    /// under `capacity` — one `drain` for the whole batch, with the frame
    /// lengths read in place, so a push into a full ring costs the bytes it
    /// evicts, not a rotation of the whole buffer.
    fn evict_front(inner: &mut Inner, incoming: usize, capacity: usize) {
        let retained = inner.buf.len();
        let mut skip = 0usize;
        let mut evicted = 0u64;
        while retained - skip + incoming > capacity && skip < retained {
            let mut pos = skip;
            let len = varint_from(|| {
                let byte = inner.buf.get(pos).copied();
                pos += 1;
                byte
            });
            skip = match len {
                Some(len) => pos.saturating_add(len as usize).min(retained),
                // Unreachable for frames written by `push`, but never loop
                // forever on a buffer we cannot parse.
                None => retained,
            };
            evicted += 1;
        }
        inner.buf.drain(..skip);
        inner.dropped += evicted;
    }

    /// Decodes and returns the retained events (oldest first) along with
    /// the drop counter.
    pub fn snapshot(&self) -> (Vec<FlightEvent>, u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.buf.make_contiguous();
        let (head, _) = inner.buf.as_slices();
        (decode_frames(head), inner.dropped)
    }

    /// Events ever pushed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).total
    }

    /// Events evicted by the byte budget.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Retained encoded bytes right now.
    pub fn bytes(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .buf
            .len()
    }

    /// The byte budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Empties the ring and zeroes the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner = Inner::default();
    }

    /// The retained frames as raw bytes (the persist payload).
    pub fn raw(&self) -> Vec<u8> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.buf.make_contiguous();
        let (head, _) = inner.buf.as_slices();
        head.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CommandKind;

    fn begin(seq: u64) -> FlightEvent {
        FlightEvent::CommandBegin {
            seq,
            kind: CommandKind::Insert,
            target: seq,
        }
    }

    #[test]
    fn ring_retains_in_order() {
        let ring = FlightRing::new(1 << 16);
        for i in 1..=5 {
            ring.push(&begin(i));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(ring.total(), 5);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq()).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn byte_budget_evicts_whole_frames_oldest_first() {
        // Each begin frame is a handful of bytes; a tiny budget forces
        // eviction while every retained frame must still decode cleanly.
        let ring = FlightRing::new(24);
        for i in 1..=50 {
            ring.push(&begin(i));
        }
        let (events, dropped) = ring.snapshot();
        assert!(dropped > 0);
        assert_eq!(dropped + events.len() as u64, 50);
        assert_eq!(ring.total(), 50);
        // The survivors are the newest, contiguous, in order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq()).collect();
        let expect: Vec<u64> = (51 - events.len() as u64..=50).collect();
        assert_eq!(seqs, expect);
        assert!(ring.bytes() <= 24);
    }

    #[test]
    fn oversized_frame_is_counted_not_wedged() {
        let ring = FlightRing::new(8);
        ring.push(&FlightEvent::Moment {
            seq: 1,
            moment: crate::Moment::AfterStep3,
            counts: vec![u64::MAX; 64],
        });
        assert_eq!(ring.dropped(), 1);
        ring.push(&begin(2));
        let (events, _) = ring.snapshot();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let ring = FlightRing::new(1 << 10);
        ring.push(&begin(1));
        ring.clear();
        assert_eq!(ring.total(), 0);
        assert_eq!(ring.dropped(), 0);
        assert!(ring.snapshot().0.is_empty());
    }
}
