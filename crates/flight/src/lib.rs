//! # dsf-flight — the workspace's flight recorder.
//!
//! The paper's headline claim is a *worst-case* per-command bound of
//! `O(log²M/(D−d))` page accesses — yet an aggregate histogram can only
//! say that some command was expensive, not *which* one or *why*. This
//! crate records a causal, per-command event stream across every layer of
//! the stack:
//!
//! * **dsf-core** records command begin/end, SHIFT / ACTIVATE / roll-back
//!   / flag events and, when [`set_moments`] is on, the flag-stable moments
//!   of CONTROL 2 (the rows of the paper's Figure 4);
//! * **dsf-pagestore** records every page charge, tagged with the
//!   algorithm [`Phase`] that caused it;
//! * **dsf-durable** records WAL frames;
//! * **dsf-server** records each served request's wall-clock timeline
//!   ([`request`]'s eight phases, wire decode through ack write) as one
//!   [`FlightEvent::Request`] frame carrying the seq of the command it
//!   ran as. A group commit's shard-lock wait and fsync are measured
//!   once, by the batch leader, into every member's timeline;
//!
//! all under a single monotonically increasing **command sequence number**
//! threaded through the stack via a thread-local (each command runs on one
//! thread, so concurrent shard commands never collide). Events are varint
//! frames in a bounded, drop-counting byte ring ([`FlightRing`]); a
//! snapshot persists to a [`FlightLog`] (`.flight` file) and replays into
//! per-command [`Attribution`] with J-budget and page-bound auditing.
//! One log therefore answers both "why was request X slow?" and "why did
//! its command touch 224 pages?" (`dsf explain`).
//!
//! Every duration the recorder stores is nanoseconds on one clock,
//! [`now_nanos`]. Like the telemetry spine, the recorder is **off by
//! default**: every instrumentation site is a single relaxed-load branch
//! until [`enable`] is called. [`capture`] records the commands one
//! closure runs on the calling thread; the Example 5.2 goldens and
//! `fig4_example` read their SHIFTs, activations and Figure 4 rows from
//! it. This crate sits at the very bottom of the workspace graph (std
//! only) so every layer can record into it.
//!
//! ```
//! use dsf_flight as flight;
//!
//! flight::clear();
//! flight::enable();
//! let seq = flight::begin_command(flight::CommandKind::Insert, 7);
//! flight::record_access(flight::AccessKind::Read, 2);
//! flight::end_command(2, 0);
//! flight::disable();
//!
//! let log = flight::snapshot_log(flight::BoundBudget { j: 3, k: 1, log_slots: 3, gap: 9 });
//! let attr = log.replay();
//! assert_eq!(attr.command_count(), 1);
//! assert_eq!(attr.commands[0].seq, seq);
//! assert_eq!(attr.commands[0].user_pages(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod log;
mod replay;
pub mod request;
mod ring;

pub use codec::{
    decode_frames, get_varint, put_varint, AccessKind, CommandKind, FlightEvent, Moment, Phase,
    RequestTimeline, PHASES, REQUEST_PHASES,
};
pub use log::{FlightLog, FLIGHT_MAGIC, FLIGHT_VERSION};
pub use replay::{Attribution, AuditReport, BoundBudget, CommandCost, ShiftTrace, Violation};
pub use ring::FlightRing;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

/// Default byte budget of the global ring: on the order of a million
/// command events, or ~100k served requests with their commands' frames.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 23;

struct Globals {
    ring: FlightRing,
    on: AtomicBool,
    moments: AtomicBool,
    seq: AtomicU64,
    /// Zero of [`now_nanos`].
    epoch: Instant,
    /// Counter behind [`request::fallback_id`].
    next_fallback: AtomicU64,
}

fn globals() -> &'static Globals {
    static CELL: OnceLock<Globals> = OnceLock::new();
    CELL.get_or_init(|| Globals {
        ring: FlightRing::new(DEFAULT_FLIGHT_CAPACITY),
        on: AtomicBool::new(false),
        moments: AtomicBool::new(false),
        // Sequence numbers start at 1: seq 0 means "no command".
        seq: AtomicU64::new(1),
        epoch: Instant::now(),
        next_fallback: AtomicU64::new(1),
    })
}

thread_local! {
    /// The command currently (or most recently) executing on this thread.
    /// Kept after `end_command` so the durability layer can stamp the WAL
    /// frames it appends *after* the in-memory command completed.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// [`now_nanos`] when the current command began.
    static STARTED: Cell<u64> = const { Cell::new(0) };
    /// The phase accesses are attributed to; `PHASE_IDLE` (no command in
    /// flight) suppresses access recording entirely, so lookups, scans and
    /// bulk loads never pollute per-command attribution.
    static PHASE: Cell<u8> = const { Cell::new(PHASE_IDLE) };
    /// While this thread runs a [`capture`]: the seqs of the commands it
    /// began, in order.
    static CAPTURED: RefCell<Option<Vec<u64>>> = const { RefCell::new(None) };
}

const PHASE_IDLE: u8 = u8::MAX;

/// Starts recording. The ring's prior contents are kept; call [`clear`]
/// first for a fresh capture.
pub fn enable() {
    globals().on.store(true, Relaxed);
}

/// Stops recording (sites revert to a single not-taken branch).
pub fn disable() {
    globals().on.store(false, Relaxed);
}

/// Whether the recorder is on — the one branch every disabled site takes.
#[inline]
pub fn enabled() -> bool {
    globals().on.load(Relaxed)
}

/// Nanoseconds since the recorder's epoch (monotonic): the one clock of
/// every duration and stamp the recorder stores.
#[inline]
pub fn now_nanos() -> u64 {
    u64::try_from(globals().epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns flag-stable moment snapshots on or off. Each snapshot costs
/// `O(M)` (one count per slot), so this is a separate opt-in on top of
/// [`enable`] — `dsf flight record --moments` uses it to build the
/// Figure-4-style per-moment table.
pub fn set_moments(on: bool) {
    globals().moments.store(on, Relaxed);
}

/// Whether moment snapshots should be captured right now.
#[inline]
pub fn moments_enabled() -> bool {
    let g = globals();
    g.on.load(Relaxed) && g.moments.load(Relaxed)
}

/// Empties the global ring and resets its counters (the sequence counter
/// keeps climbing — it is monotonic for the life of the process).
pub fn clear() {
    globals().ring.clear();
}

/// Direct access to the global ring (snapshotting, capacity checks).
pub fn ring() -> &'static FlightRing {
    &globals().ring
}

/// Marks the start of a structural command on this thread: allocates
/// its seq, records a `CommandBegin` frame, starts its clock, and switches
/// the phase to [`Phase::User`]. Returns the seq, or 0 while disabled.
pub fn begin_command(kind: CommandKind, target: u64) -> u64 {
    if !enabled() {
        return 0;
    }
    let seq = globals().seq.fetch_add(1, Relaxed);
    CAPTURED.with(|c| {
        if let Some(seqs) = c.borrow_mut().as_mut() {
            seqs.push(seq);
        }
    });
    CURRENT.with(|c| c.set(seq));
    STARTED.with(|t| t.set(now_nanos()));
    PHASE.with(|p| p.set(Phase::User.index() as u8));
    globals()
        .ring
        .push(&FlightEvent::CommandBegin { seq, kind, target });
    seq
}

/// Marks the command complete. `accesses` must be the same per-command
/// page-access delta `OpStats::record_command` receives — replay treats it
/// as the authoritative total the per-phase breakdown must sum to. The
/// frame carries the nanoseconds since [`begin_command`]. The seq stays
/// parked on the thread (idle phase) so the durability layer can still
/// stamp WAL frames onto it.
pub fn end_command(accesses: u64, shift_steps: u64) {
    if !enabled() {
        return;
    }
    let seq = CURRENT.with(|c| c.get());
    if seq == 0 {
        return;
    }
    let nanos = now_nanos().saturating_sub(STARTED.with(|t| t.get()));
    globals().ring.push(&FlightEvent::CommandEnd {
        seq,
        accesses,
        shift_steps,
        nanos,
    });
    PHASE.with(|p| p.set(PHASE_IDLE));
}

/// Voids the begun command: it turned out to be a value replace, a miss,
/// or a capacity refusal — not a structural command. Replay discards it.
pub fn cancel_command() {
    if !enabled() {
        return;
    }
    let seq = CURRENT.with(|c| c.get());
    if seq == 0 {
        return;
    }
    globals().ring.push(&FlightEvent::CommandCancel { seq });
    PHASE.with(|p| p.set(PHASE_IDLE));
}

/// Scoped phase override: sets the attribution phase for the enclosing
/// scope and restores the previous one on drop. Constructed via [`phase`].
pub struct PhaseGuard {
    prev: u8,
    armed: bool,
}

/// Enters `p` for the current scope (no-op while disabled).
///
/// `dsf-core` wraps SHIFT in [`Phase::Shift`] and ACTIVATE in
/// [`Phase::Activate`]; `dsf-durable` wraps its WAL append in
/// [`Phase::Wal`] (which also re-arms access recording for the frames it
/// writes *after* the command ended).
#[must_use = "the phase reverts when the guard drops"]
pub fn phase(p: Phase) -> PhaseGuard {
    if !enabled() {
        return PhaseGuard {
            prev: 0,
            armed: false,
        };
    }
    let prev = PHASE.with(|c| c.replace(p.index() as u8));
    PhaseGuard { prev, armed: true }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if self.armed {
            PHASE.with(|c| c.set(self.prev));
        }
    }
}

/// Records `pages` page charges under the current command and phase.
/// Skipped while disabled, while no command is in flight (idle phase), or
/// when `pages == 0`.
#[inline]
pub fn record_access(kind: AccessKind, pages: u64) {
    if !enabled() || pages == 0 {
        return;
    }
    let phase_code = PHASE.with(|p| p.get());
    if phase_code == PHASE_IDLE {
        return;
    }
    let seq = CURRENT.with(|c| c.get());
    if seq == 0 {
        return;
    }
    let phase = match phase_code {
        0 => Phase::User,
        1 => Phase::Shift,
        2 => Phase::Activate,
        3 => Phase::Rollback,
        _ => Phase::Wal,
    };
    globals().ring.push(&FlightEvent::Access {
        seq,
        phase,
        kind,
        pages,
    });
}

fn record_under_current(make: impl FnOnce(u64) -> FlightEvent) {
    if !enabled() {
        return;
    }
    let seq = CURRENT.with(|c| c.get());
    if seq == 0 {
        return;
    }
    globals().ring.push(&make(seq));
}

/// Records one SHIFT(v) invocation for the current command; `new_dest`
/// is DEST(v) after the SHIFT if it advanced.
pub fn record_shift(node: u64, source: u64, dest: u64, moved: u64, new_dest: Option<u64>) {
    record_under_current(|seq| FlightEvent::Shift {
        seq,
        node,
        source,
        dest,
        moved,
        new_dest,
    });
}

/// Records one ACTIVATE(w) for the current command.
pub fn record_activate(node: u64, dest: u64) {
    record_under_current(|seq| FlightEvent::Activate { seq, node, dest });
}

/// Records a roll-back rule application for the current command.
pub fn record_rollback(node: u64, new_dest: u64) {
    record_under_current(|seq| FlightEvent::Rollback {
        seq,
        node,
        new_dest,
    });
}

/// Records a lowered warning flag for the current command.
pub fn record_flag_lowered(node: u64) {
    record_under_current(|seq| FlightEvent::FlagLowered { seq, node });
}

/// Records a WAL frame appended on behalf of the current (just-ended)
/// command.
pub fn record_wal_frame(bytes: u64) {
    record_under_current(|seq| FlightEvent::WalFrame { seq, bytes });
}

/// The command seq currently (or most recently) executing on this thread;
/// 0 while disabled or before any command ran. The buffer pool reads this
/// when a command dirties a frame, so a later *background* writeback — on
/// a scheduler worker thread whose own thread-local seq is always 0 — can
/// still be attributed to the command that caused it.
#[inline]
pub fn current_seq() -> u64 {
    if !enabled() {
        return 0;
    }
    CURRENT.with(|c| c.get())
}

/// Records `pages` of background writeback on behalf of `seq` — the
/// command that dirtied the pages, captured at dirty time via
/// [`current_seq`]. Takes the seq explicitly because writeback completes
/// on a worker thread, outside any command. Skipped for `seq == 0`
/// (pages dirtied outside a recorded command carry no attribution).
pub fn record_writeback(seq: u64, pages: u64) {
    if !enabled() || seq == 0 || pages == 0 {
        return;
    }
    globals().ring.push(&FlightEvent::Writeback { seq, pages });
}

/// Records a served request's finished timeline (no-op while disabled).
/// The timeline names its own seq: it is recorded on the connection
/// thread after the response is written, outside any command.
pub fn record_request(timeline: RequestTimeline) {
    if enabled() {
        globals().ring.push(&FlightEvent::Request(timeline));
    }
}

/// Records a flag-stable moment snapshot (per-slot record counts) for the
/// current command. Only captured when [`set_moments`] is on.
pub fn record_moment(moment: Moment, counts: &[u64]) {
    if !moments_enabled() {
        return;
    }
    record_under_current(|seq| FlightEvent::Moment {
        seq,
        moment,
        counts: counts.to_vec(),
    });
}

/// Snapshots the global ring into a [`FlightLog`] carrying `budget` (the
/// recording file's resolved configuration) for later auditing.
pub fn snapshot_log(budget: BoundBudget) -> FlightLog {
    let g = globals();
    let (events, dropped) = g.ring.snapshot();
    FlightLog {
        budget,
        total: g.ring.total(),
        dropped,
        events,
    }
}

/// Snapshots the global ring and writes it to a `.flight` file.
pub fn save(path: impl AsRef<std::path::Path>, budget: BoundBudget) -> std::io::Result<()> {
    snapshot_log(budget).save(path)
}

/// Runs `f` with the recorder and its moment snapshots on, and returns
/// its result with a log of exactly the commands `f` began on the calling
/// thread: every frame carrying one of their seqs, and no other. Commands
/// other threads run meanwhile are recorded into the ring but left out of
/// the log, so concurrent tests in one process never see each other's
/// commands. Moment snapshots cost `O(M)` each, which suits the small
/// files whose steps a capture is for.
///
/// Captures are serialized on one process-wide lock; each clears the
/// ring first and turns the recorder off when `f` returns or panics. The
/// log carries a zero [`BoundBudget`]: set `log.budget` from the file's
/// configuration before auditing it.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, FlightLog) {
    /// Ends the capture on every way out of `f`, a panic included.
    struct Stop;
    impl Drop for Stop {
        fn drop(&mut self) {
            disable();
            set_moments(false);
            CAPTURED.with(|c| c.take());
        }
    }
    let _lock = switch_lock();
    clear();
    set_moments(true);
    CAPTURED.with(|c| c.replace(Some(Vec::new())));
    let stop = Stop;
    enable();
    let out = f();
    let seqs = CAPTURED.with(|c| c.take()).unwrap_or_default();
    drop(stop);
    let mut log = snapshot_log(BoundBudget::default());
    // Seqs are allocated in increasing order, so `seqs` is sorted.
    log.events
        .retain(|ev| seqs.binary_search(&ev.seq()).is_ok());
    (out, log)
}

/// The lock [`capture`] holds; this crate's tests that flip the
/// process-global switch by hand hold it too.
pub(crate) fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_recorder_threads_one_seq_through_a_command() {
        let _g = switch_lock();
        clear();
        enable();

        // The core records the command...
        let seq = begin_command(CommandKind::Insert, 7);
        assert_ne!(seq, 0);
        record_access(AccessKind::Read, 2);
        {
            let _g = phase(Phase::Shift);
            record_shift(15, 7, 6, 6, Some(7));
            record_access(AccessKind::Write, 2);
        }
        record_access(AccessKind::Write, 1);
        end_command(5, 1);
        // ...and the durability layer stamps its post-command WAL frame.
        {
            let _g = phase(Phase::Wal);
            record_wal_frame(41);
        }

        // Idle-phase charges (a lookup, say) must not be attributed.
        record_access(AccessKind::Read, 99);

        // A replace: begun, then cancelled.
        begin_command(CommandKind::Insert, 3);
        record_access(AccessKind::Read, 1);
        cancel_command();

        disable();
        let log = snapshot_log(BoundBudget {
            j: 3,
            k: 1,
            log_slots: 3,
            gap: 9,
        });
        let attr = log.replay();
        assert_eq!(attr.command_count(), 1);
        assert_eq!(attr.cancelled, 1);
        let c = &attr.commands[0];
        assert_eq!(c.seq, seq);
        assert_eq!(c.user_pages(), 3);
        assert_eq!(c.shift_pages(), 2);
        assert_eq!(c.attributed(), c.accesses);
        assert_eq!(c.wal_frames, 1);
        assert!(c.nanos > 0 && c.nanos <= now_nanos(), "{}", c.nanos);
        assert_eq!(c.shifts.len(), 1);
        assert!(attr.reconciles());
        assert!(attr.audit().ok());
        clear();
    }

    #[test]
    fn a_panicking_capture_still_turns_the_recorder_off() {
        let caught = std::panic::catch_unwind(|| {
            capture(|| {
                begin_command(CommandKind::Insert, 1);
                panic!("closure failed");
            })
        });
        assert!(caught.is_err());
        let _g = switch_lock();
        assert!(!enabled());
        assert!(!globals().moments.load(Relaxed));
        assert!(CAPTURED.with(|c| c.borrow().is_none()));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = switch_lock();
        disable();
        assert_eq!(begin_command(CommandKind::Delete, 0), 0);
        end_command(1, 0);
        record_access(AccessKind::Read, 5);
        let _p = phase(Phase::Shift);
    }
}
