//! Per-request wire-to-fsync waterfalls.
//!
//! The command frames answer *"which pages did command seq 42 touch?"*;
//! the telemetry registry answers *"how many fsyncs did the process
//! do?"*. Neither answers the question a tail-latency hunt starts from:
//! **where did the p99 request actually spend its time?** A served
//! command lives a multi-stage life — client socket → connection thread
//! → per-shard accumulator → group apply → WAL append → commit-window
//! close → fsync → ack — and this module records that life as a *phase
//! timeline* per request.
//!
//! ## Model
//!
//! Each traced request owns a [`TraceCtx`]: a trace id (client-assigned
//! over the wire, or a server-side [`fallback_id`]), a start stamp, and
//! one accumulator per [`Phase`]. The context telescopes: every
//! [`TraceCtx::checkpoint`] charges the time since the previous stamp to
//! exactly one phase, so **the per-phase times sum to the end-to-end
//! time by construction** — reconciliation is an identity, not a hope
//! (E19 asserts it against the client's independently measured latency).
//!
//! Work done *per batch* (lock wait, group apply, WAL append, fsync) is
//! captured by a thread-local batch context ([`batch_begin`] /
//! [`batch_checkpoint`] / [`batch_finish`]) on the thread that leads the
//! batch — the connection that found its shard idle — and then added to
//! every member's context, including the commands other connections
//! queued into it. Each member really did wait for the whole batch, so
//! the attribution is exact, not amortized. This is the one measurement
//! of a group commit's lock wait and fsync; `dsf explain` reads a
//! command's from the waterfall of the request it ran as.
//!
//! A finished timeline is recorded as one [`FlightEvent::Request`] frame
//! carrying the seq of the command the request ran as
//! ([`TraceCtx::set_seq`]), so one `.flight` log holds both the
//! wall-clock waterfall and the page-level cost of the same command.
//! Stamps come from the recorder's clock ([`now_nanos`]) and are taken
//! only while the recorder is on ([`enabled`]). [`TraceReport`] folds a
//! log's timelines into per-phase statistics and p99 *exemplars* — the N
//! slowest requests with full waterfalls — exportable as Chrome
//! `trace_event` JSON ([`TraceReport::to_chrome_json`]) for
//! `chrome://tracing` / Perfetto.
//!
//! Deferred page writeback runs on background workers *after* acks and
//! is deliberately **outside** the per-request telescoping; the command
//! frames charge it to the command that dirtied the pages instead.
//!
//! [`FlightEvent::Request`]: crate::FlightEvent::Request

mod report;

pub use report::{PhaseStat, TraceReport};

use crate::{enabled, globals, now_nanos, RequestTimeline, REQUEST_PHASES};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Trace ids with this bit set were assigned by the server (the client
/// sent no id — an old client, or tracing off on its side).
pub const FALLBACK_ID_BIT: u64 = 1 << 63;

/// One hop of a request's life, in waterfall order. Every nanosecond of
/// a finished timeline belongs to exactly one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Decoding the frame. Starts when the read that brought the whole
    /// frame in returned, so it includes serving any earlier frames that
    /// read brought in.
    WireDecode = 0,
    /// From decode to the enqueue into the shard accumulator: the
    /// burst's earlier requests run first.
    Submit = 1,
    /// Sitting in the shard queue until a leader drained the command
    /// (near 0 when the request's own connection leads). For a request
    /// that runs inline (a read, `Flush`, `Shutdown`): waiting for the
    /// burst's earlier requests.
    QueueWait = 2,
    /// The batch's leader waiting for the shard's file lock (or an
    /// inline read falling back to it).
    LockWait = 3,
    /// In-memory command execution (the `DenseFile` group apply; on the
    /// in-memory backend this also absorbs the whole batch).
    Execute = 4,
    /// Building, writing and flushing WAL frames (no fsync).
    WalAppend = 5,
    /// The fsync (commit-window close or strict group commit).
    Fsync = 6,
    /// From batch completion to the response written on the socket
    /// (waking a follower, the burst's later requests, serialization and
    /// the buffered write).
    AckWrite = 7,
}

impl Phase {
    /// Every phase, in waterfall order.
    pub const ALL: [Phase; REQUEST_PHASES] = [
        Phase::WireDecode,
        Phase::Submit,
        Phase::QueueWait,
        Phase::LockWait,
        Phase::Execute,
        Phase::WalAppend,
        Phase::Fsync,
        Phase::AckWrite,
    ];

    /// Stable snake_case name (metric label, trace_event name).
    pub fn name(self) -> &'static str {
        match self {
            Phase::WireDecode => "wire_decode",
            Phase::Submit => "submit",
            Phase::QueueWait => "queue_wait",
            Phase::LockWait => "lock_wait",
            Phase::Execute => "execute",
            Phase::WalAppend => "wal_append",
            Phase::Fsync => "fsync",
            Phase::AckWrite => "ack_write",
        }
    }

    /// The phase with index `i` (inverse of `as usize`).
    pub fn from_index(i: usize) -> Option<Phase> {
        Phase::ALL.get(i).copied()
    }

    /// The phase `timeline` spent the most time in (the latest on ties).
    pub fn dominant(timeline: &RequestTimeline) -> Phase {
        let (i, _) = timeline
            .phases
            .iter()
            .enumerate()
            .max_by_key(|&(_, n)| *n)
            .expect("REQUEST_PHASES > 0");
        Phase::ALL[i]
    }
}

/// Human name of a [`RequestTimeline::kind`] wire tag (mirrors the
/// `dsf-server` protocol tag table; unknown tags render as `other`).
pub fn request_kind_name(kind: u8) -> &'static str {
    match kind {
        0x01 => "insert",
        0x02 => "remove",
        0x03 => "get",
        0x04 => "scan",
        0x05 => "ping",
        0x06 => "count",
        0x07 => "flush",
        0x08 => "shutdown",
        _ => "other",
    }
}

/// A server-assigned trace id for requests that carried none on the
/// wire (old clients): unique, [`FALLBACK_ID_BIT`] set.
pub fn fallback_id() -> u64 {
    FALLBACK_ID_BIT | globals().next_fallback.fetch_add(1, Relaxed)
}

// ---------------------------------------------------------------------
// The per-request context.
// ---------------------------------------------------------------------

/// A live request's trace context, carried (as an `Arc`) from its
/// connection thread through the accumulator, to the batch's leader, and
/// back.
///
/// Interior mutability is all relaxed atomics: the context is only ever
/// touched by one thread at a time (its connection → the leader that
/// drains it → its connection), and each handoff happens through the
/// shard queue's lock, which orders the accesses.
pub struct TraceCtx {
    id: u64,
    client: u64,
    kind: u8,
    seq: AtomicU64,
    started: u64,
    last: AtomicU64,
    phases: [AtomicU64; REQUEST_PHASES],
}

impl TraceCtx {
    /// Opens a timeline anchored at `started` (a [`now_nanos`] stamp
    /// taken when the frame header arrived). `None` while tracing is
    /// off — carry the `Option` and every later stamp is free.
    pub fn begin_at(id: u64, client: u64, kind: u8, started: u64) -> Option<Arc<TraceCtx>> {
        if !enabled() {
            return None;
        }
        Some(Arc::new(TraceCtx {
            id,
            client,
            kind,
            seq: AtomicU64::new(0),
            started,
            last: AtomicU64::new(started),
            phases: std::array::from_fn(|_| AtomicU64::new(0)),
        }))
    }

    /// Charges the time since the previous stamp to `phase` and
    /// advances the stamp — the telescoping step.
    pub fn checkpoint(&self, phase: Phase) {
        let now = now_nanos();
        let prev = self.last.swap(now, Relaxed);
        self.phases[phase as usize].fetch_add(now.saturating_sub(prev), Relaxed);
    }

    /// Adds a whole batch's per-phase time (from [`batch_finish`]) to
    /// this member, advancing the stamp by the batch's span. Exact, not
    /// amortized: every member waited for the whole batch.
    pub fn add_batch(&self, batch: &BatchPhases) {
        let mut total = 0u64;
        for (i, n) in batch.nanos.iter().enumerate() {
            self.phases[i].fetch_add(*n, Relaxed);
            total += n;
        }
        self.last.fetch_add(total, Relaxed);
    }

    /// Joins the flight-recorder command seq to this timeline.
    pub fn set_seq(&self, seq: u64) {
        self.seq.store(seq, Relaxed);
    }

    /// Snapshots the timeline (taken by the connection thread after the
    /// final [`Phase::AckWrite`] stamp).
    pub fn to_timeline(&self) -> RequestTimeline {
        RequestTimeline {
            id: self.id,
            client: self.client,
            seq: self.seq.load(Relaxed),
            kind: self.kind,
            started: self.started,
            phases: std::array::from_fn(|i| self.phases[i].load(Relaxed)),
        }
    }
}

// ---------------------------------------------------------------------
// The per-batch context (thread-local on the batch's leader).
// ---------------------------------------------------------------------

/// Per-phase nanoseconds of one applied batch ([`batch_finish`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchPhases {
    /// Nanoseconds per [`Phase`], indexed by `Phase as usize`.
    pub nanos: [u64; REQUEST_PHASES],
}

#[derive(Clone, Copy)]
struct BatchState {
    active: bool,
    last: u64,
    nanos: [u64; REQUEST_PHASES],
}

thread_local! {
    static BATCH: Cell<BatchState> = const {
        Cell::new(BatchState { active: false, last: 0, nanos: [0; REQUEST_PHASES] })
    };
}

/// Opens the calling thread's batch context (the batch's leader, just
/// before `apply_batch`). Stamps below the accumulator — the shard lock,
/// the WAL, the fsync — land here via [`batch_checkpoint`].
pub fn batch_begin() {
    if !enabled() {
        return;
    }
    BATCH.with(|b| {
        b.set(BatchState {
            active: true,
            last: now_nanos(),
            nanos: [0; REQUEST_PHASES],
        })
    });
}

/// Charges the time since the previous batch stamp to `phase`. A no-op
/// when no batch context is open on this thread (single-caller paths
/// like `DurableFile::sync`, recovery, tests).
#[inline]
pub fn batch_checkpoint(phase: Phase) {
    BATCH.with(|b| {
        let mut st = b.get();
        if !st.active {
            return;
        }
        let now = now_nanos();
        st.nanos[phase as usize] += now.saturating_sub(st.last);
        st.last = now;
        b.set(st);
    });
}

/// Closes the batch context and returns its per-phase time; any residual
/// since the last stamp is charged to [`Phase::Execute`] (after its
/// `LockWait` stamp, an in-memory shard makes no further stamps, so the
/// rest of its batch is attributed to execution, which is what it was).
pub fn batch_finish() -> Option<BatchPhases> {
    BATCH.with(|b| {
        let mut st = b.get();
        if !st.active {
            return None;
        }
        let now = now_nanos();
        st.nanos[Phase::Execute as usize] += now.saturating_sub(st.last);
        st.active = false;
        b.set(st);
        Some(BatchPhases { nanos: st.nanos })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::{disable, enable, switch_lock};

    fn record(total_per_phase: [u64; REQUEST_PHASES]) -> RequestTimeline {
        RequestTimeline {
            id: 7,
            client: 1,
            seq: 3,
            kind: 0x01,
            started: 100,
            phases: total_per_phase,
        }
    }

    #[test]
    fn disabled_tracing_yields_no_context() {
        let _g = switch_lock();
        // Default state is off (other tests in this module re-disable).
        disable();
        assert!(TraceCtx::begin_at(1, 0, 0x01, now_nanos()).is_none());
        batch_begin();
        assert!(batch_finish().is_none());
    }

    #[test]
    fn checkpoints_telescope_exactly() {
        let _g = switch_lock();
        enable();
        let t0 = now_nanos();
        let ctx = TraceCtx::begin_at(9, 2, 0x01, t0).expect("enabled");
        ctx.checkpoint(Phase::WireDecode);
        std::thread::sleep(std::time::Duration::from_millis(2));
        ctx.checkpoint(Phase::QueueWait);
        ctx.checkpoint(Phase::AckWrite);
        let rec = ctx.to_timeline();
        let last = ctx.last.load(Relaxed);
        assert_eq!(rec.total(), last - t0, "phase sum must telescope");
        assert!(rec.phases[Phase::QueueWait as usize] >= 1_000_000);
        disable();
    }

    #[test]
    fn batch_phases_distribute_and_keep_the_telescope() {
        let _g = switch_lock();
        enable();
        let t0 = now_nanos();
        let ctx = TraceCtx::begin_at(1, 0, 0x01, t0).expect("enabled");
        ctx.checkpoint(Phase::QueueWait);
        batch_begin();
        batch_checkpoint(Phase::LockWait);
        std::thread::sleep(std::time::Duration::from_millis(1));
        batch_checkpoint(Phase::Fsync);
        let bp = batch_finish().expect("batch open");
        assert!(bp.nanos[Phase::Fsync as usize] >= 500_000);
        ctx.add_batch(&bp);
        ctx.checkpoint(Phase::AckWrite);
        let rec = ctx.to_timeline();
        assert_eq!(rec.total(), ctx.last.load(Relaxed) - t0);
        assert!(rec.phases[Phase::Fsync as usize] >= 500_000);
        disable();
    }

    #[test]
    fn batch_residual_lands_on_execute() {
        let _g = switch_lock();
        enable();
        batch_begin();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let bp = batch_finish().expect("batch open");
        assert!(bp.nanos[Phase::Execute as usize] >= 500_000);
        assert_eq!(bp.nanos[Phase::Fsync as usize], 0);
        disable();
    }

    #[test]
    fn batch_checkpoint_without_batch_is_a_noop() {
        batch_checkpoint(Phase::Fsync);
        assert!(batch_finish().is_none());
    }

    #[test]
    fn fallback_ids_are_unique_and_marked() {
        let a = fallback_id();
        let b = fallback_id();
        assert_ne!(a, b);
        assert!(a & FALLBACK_ID_BIT != 0);
        assert!(b & FALLBACK_ID_BIT != 0);
    }

    #[test]
    fn dominant_phase_is_the_argmax() {
        let mut phases = [1u64; REQUEST_PHASES];
        phases[Phase::Fsync as usize] = 1_000;
        assert_eq!(Phase::dominant(&record(phases)), Phase::Fsync);
    }

    #[test]
    fn phase_names_and_indices_are_stable() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert_eq!(Phase::from_index(i), Some(*p));
        }
        assert_eq!(Phase::from_index(REQUEST_PHASES), None);
        assert_eq!(request_kind_name(0x01), "insert");
        assert_eq!(request_kind_name(0xEE), "other");
    }
}
