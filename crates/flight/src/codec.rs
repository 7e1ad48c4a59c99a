//! Compact binary framing for flight events.
//!
//! Every event is one *frame*: a LEB128 varint length prefix followed by a
//! one-byte event tag and the event's fields, each a varint. Frames are
//! self-delimiting, so a bounded ring can evict whole frames from its front
//! without decoding them, and a truncated tail (a frame cut off by a crash
//! mid-write) is detected rather than misparsed.

use std::io::{self, Read};

/// Which user command a flight trace belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// An insertion.
    Insert,
    /// A deletion.
    Delete,
}

impl CommandKind {
    fn code(self) -> u64 {
        match self {
            CommandKind::Insert => 0,
            CommandKind::Delete => 1,
        }
    }

    fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(CommandKind::Insert),
            1 => Some(CommandKind::Delete),
            _ => None,
        }
    }

    /// `"insert"` or `"delete"` — the label used by spans and exports.
    pub fn label(self) -> &'static str {
        match self {
            CommandKind::Insert => "insert",
            CommandKind::Delete => "delete",
        }
    }
}

/// The flag-stable moment classes of the paper's §5 that carry a
/// per-slot snapshot (a row of Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Moment {
    /// Immediately after step 3 (activation), e.g. `t₁`, `t₅`.
    AfterStep3,
    /// Immediately after a step-4c flag sweep, e.g. `t₂…t₄`, `t₆…t₈`.
    AfterStep4c,
}

impl Moment {
    fn code(self) -> u64 {
        match self {
            Moment::AfterStep3 => 0,
            Moment::AfterStep4c => 1,
        }
    }

    fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(Moment::AfterStep3),
            1 => Some(Moment::AfterStep4c),
            _ => None,
        }
    }

    /// `"after step 3"` or `"after step 4c"`.
    pub fn label(self) -> &'static str {
        match self {
            Moment::AfterStep3 => "after step 3",
            Moment::AfterStep4c => "after step 4c",
        }
    }
}

/// The algorithm phase a page charge is attributed to. `User` covers the
/// paper's step 1 (locating the slot and applying the user's command);
/// `Shift`, `Activate` and `Rollback` are CONTROL 2's steps 4b, 3 and the
/// roll-back rules; `Wal` is the durability layer's post-command append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Step 1: search + apply the user's insert/delete.
    User,
    /// Step 4b: a SHIFT moving records between slots.
    Shift,
    /// Step 3: ACTIVATE (calibrator-only; normally charges no pages).
    Activate,
    /// Roll-back rule applications (calibrator-only).
    Rollback,
    /// WAL frame append / fsync by `dsf-durable`.
    Wal,
}

/// Number of distinct [`Phase`]s (array-index bound for attribution).
pub const PHASES: usize = 5;

impl Phase {
    /// Stable index into per-phase accumulator arrays.
    pub fn index(self) -> usize {
        match self {
            Phase::User => 0,
            Phase::Shift => 1,
            Phase::Activate => 2,
            Phase::Rollback => 3,
            Phase::Wal => 4,
        }
    }

    fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(Phase::User),
            1 => Some(Phase::Shift),
            2 => Some(Phase::Activate),
            3 => Some(Phase::Rollback),
            4 => Some(Phase::Wal),
            _ => None,
        }
    }
}

/// Read vs write page charge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Physical page read.
    Read,
    /// Physical page write.
    Write,
}

impl AccessKind {
    fn code(self) -> u64 {
        match self {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        }
    }

    fn from_code(c: u64) -> Option<Self> {
        match c {
            0 => Some(AccessKind::Read),
            1 => Some(AccessKind::Write),
            _ => None,
        }
    }
}

/// Number of wall-clock phases in a served request's timeline (the
/// [`crate::request::Phase`] waterfall, wire decode through ack write).
pub const REQUEST_PHASES: usize = 8;

/// A served request's finished wall-clock timeline: the payload of a
/// [`FlightEvent::Request`] frame. [`crate::request::TraceCtx`] builds it
/// ([`crate::request::Phase`] names the slots of `phases`) and the server
/// records it once the response is written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTimeline {
    /// Trace id (client-assigned, or server-assigned with the top bit set).
    pub id: u64,
    /// Server connection id the request arrived on.
    pub client: u64,
    /// The command seq the request ran as (0 = no structural command),
    /// which joins the timeline to that command's page cost.
    pub seq: u64,
    /// Wire tag of the request.
    pub kind: u8,
    /// Nanoseconds from the trace epoch to the frame header's arrival.
    pub started: u64,
    /// Nanoseconds spent in each phase, in waterfall order.
    pub phases: [u64; REQUEST_PHASES],
}

impl RequestTimeline {
    /// End-to-end nanoseconds: the phase sum (saturating, since a log is
    /// untrusted input).
    pub fn total(&self) -> u64 {
        self.phases.iter().fold(0u64, |a, &n| a.saturating_add(n))
    }
}

/// One recorded event. Every variant carries the command sequence number
/// (`seq`) it belongs to — the single identity threaded through dsf-core,
/// dsf-pagestore, dsf-durable and dsf-server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEvent {
    /// A structural command started (step 1 about to run).
    CommandBegin {
        /// Command sequence number.
        seq: u64,
        /// Insert or delete.
        kind: CommandKind,
        /// The slot (or shard) the command targets.
        target: u64,
    },
    /// The command completed; `accesses` is the authoritative per-command
    /// page-access total (the same delta `OpStats::record_command` sees).
    CommandEnd {
        /// Command sequence number.
        seq: u64,
        /// Total page accesses charged to the command.
        accesses: u64,
        /// CONTROL 2 SHIFT invocations the command ran.
        shift_steps: u64,
        /// Wall-clock duration in nanoseconds ([`crate::now_nanos`]).
        nanos: u64,
    },
    /// The begun command turned out not to be structural (a value replace,
    /// a miss, or a capacity refusal) — replay discards its events.
    CommandCancel {
        /// Command sequence number.
        seq: u64,
    },
    /// Page accesses charged while `seq` was in `phase`.
    Access {
        /// Command sequence number.
        seq: u64,
        /// Phase the charge is attributed to.
        phase: Phase,
        /// Read or write.
        kind: AccessKind,
        /// Pages charged.
        pages: u64,
    },
    /// One SHIFT(v) invocation (step 4b).
    Shift {
        /// Command sequence number.
        seq: u64,
        /// The warned node `v` (heap index).
        node: u64,
        /// Source slot records left.
        source: u64,
        /// Destination slot records entered.
        dest: u64,
        /// Records moved.
        moved: u64,
        /// DEST(v) after step 3 of SHIFT, if it advanced.
        new_dest: Option<u64>,
    },
    /// One ACTIVATE(w) (step 3).
    Activate {
        /// Command sequence number.
        seq: u64,
        /// The newly warned node (heap index).
        node: u64,
        /// Its initial DEST pointer.
        dest: u64,
    },
    /// A roll-back rule moved a warned node's DEST.
    Rollback {
        /// Command sequence number.
        seq: u64,
        /// The rolled-back node (heap index).
        node: u64,
        /// The pointer's new value.
        new_dest: u64,
    },
    /// A warning flag was lowered (step 2 or 4c).
    FlagLowered {
        /// Command sequence number.
        seq: u64,
        /// The node whose flag dropped (heap index).
        node: u64,
    },
    /// `dsf-durable` appended a WAL frame for the command.
    WalFrame {
        /// Command sequence number.
        seq: u64,
        /// Frame size in bytes.
        bytes: u64,
    },
    /// A flag-stable moment snapshot (per-slot record counts — the rows of
    /// the paper's Figure 4). Only recorded when moment capture is on.
    Moment {
        /// Command sequence number.
        seq: u64,
        /// Which moment class.
        moment: Moment,
        /// Record count of every slot in address order.
        counts: Vec<u64>,
    },
    /// `dsf-pagestore` wrote back dirty pages in the background on behalf
    /// of the command that dirtied them. Recorded with an explicit seq
    /// (never the recording thread's current command): writeback happens on
    /// scheduler worker threads, long after — and far away from — the
    /// command it belongs to.
    Writeback {
        /// The command whose write dirtied the pages.
        seq: u64,
        /// Pages written back.
        pages: u64,
    },
    /// A served request's wall-clock timeline, recorded by the server when
    /// its response was written. Its `seq` joins it to the command's page
    /// cost; replay leaves page attribution to the command frames.
    Request(RequestTimeline),
}

const TAG_COMMAND_BEGIN: u8 = 0;
const TAG_COMMAND_END: u8 = 1;
const TAG_COMMAND_CANCEL: u8 = 2;
const TAG_ACCESS: u8 = 3;
const TAG_SHIFT: u8 = 4;
const TAG_ACTIVATE: u8 = 5;
const TAG_ROLLBACK: u8 = 6;
const TAG_FLAG_LOWERED: u8 = 7;
const TAG_WAL_FRAME: u8 = 8;
// Tags 9 and 10 were the per-command fsync and lock-wait events of
// format version 1; a group commit's waits now live in its members'
// request timelines.
const TAG_MOMENT: u8 = 11;
const TAG_WRITEBACK: u8 = 12;
const TAG_REQUEST: u8 = 13;

/// Appends `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `buf[*pos..]`, advancing `pos`.
pub fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    varint_from(|| {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        Some(byte)
    })
}

/// Reads one LEB128 varint from a byte source (`None` when it runs dry
/// or the encoding is over-long).
pub(crate) fn varint_from(mut next: impl FnMut() -> Option<u8>) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = next()?;
        if shift >= 64 {
            return None; // over-long encoding
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

impl FlightEvent {
    /// The event's command sequence number.
    pub fn seq(&self) -> u64 {
        match *self {
            FlightEvent::Request(ref r) => r.seq,
            FlightEvent::CommandBegin { seq, .. }
            | FlightEvent::CommandEnd { seq, .. }
            | FlightEvent::CommandCancel { seq }
            | FlightEvent::Access { seq, .. }
            | FlightEvent::Shift { seq, .. }
            | FlightEvent::Activate { seq, .. }
            | FlightEvent::Rollback { seq, .. }
            | FlightEvent::FlagLowered { seq, .. }
            | FlightEvent::WalFrame { seq, .. }
            | FlightEvent::Moment { seq, .. }
            | FlightEvent::Writeback { seq, .. } => seq,
        }
    }

    /// Encodes the event as one self-delimiting frame (length prefix +
    /// tag + payload) appended to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        // One placeholder byte for the length: every payload but a long
        // moment snapshot or a request timeline is under 128 bytes.
        let start = out.len();
        out.push(0);
        let payload = &mut *out;
        match self {
            FlightEvent::CommandBegin { seq, kind, target } => {
                payload.push(TAG_COMMAND_BEGIN);
                put_varint(payload, *seq);
                put_varint(payload, kind.code());
                put_varint(payload, *target);
            }
            FlightEvent::CommandEnd {
                seq,
                accesses,
                shift_steps,
                nanos,
            } => {
                payload.push(TAG_COMMAND_END);
                put_varint(payload, *seq);
                put_varint(payload, *accesses);
                put_varint(payload, *shift_steps);
                put_varint(payload, *nanos);
            }
            FlightEvent::CommandCancel { seq } => {
                payload.push(TAG_COMMAND_CANCEL);
                put_varint(payload, *seq);
            }
            FlightEvent::Access {
                seq,
                phase,
                kind,
                pages,
            } => {
                payload.push(TAG_ACCESS);
                put_varint(payload, *seq);
                put_varint(payload, phase.index() as u64);
                put_varint(payload, kind.code());
                put_varint(payload, *pages);
            }
            FlightEvent::Shift {
                seq,
                node,
                source,
                dest,
                moved,
                new_dest,
            } => {
                payload.push(TAG_SHIFT);
                for v in [*seq, *node, *source, *dest, *moved] {
                    put_varint(payload, v);
                }
                // A presence flag, then the pointer when it advanced.
                put_varint(payload, u64::from(new_dest.is_some()));
                if let Some(nd) = new_dest {
                    put_varint(payload, *nd);
                }
            }
            FlightEvent::Activate { seq, node, dest } => {
                payload.push(TAG_ACTIVATE);
                put_varint(payload, *seq);
                put_varint(payload, *node);
                put_varint(payload, *dest);
            }
            FlightEvent::Rollback {
                seq,
                node,
                new_dest,
            } => {
                payload.push(TAG_ROLLBACK);
                put_varint(payload, *seq);
                put_varint(payload, *node);
                put_varint(payload, *new_dest);
            }
            FlightEvent::FlagLowered { seq, node } => {
                payload.push(TAG_FLAG_LOWERED);
                put_varint(payload, *seq);
                put_varint(payload, *node);
            }
            FlightEvent::WalFrame { seq, bytes } => {
                payload.push(TAG_WAL_FRAME);
                put_varint(payload, *seq);
                put_varint(payload, *bytes);
            }
            FlightEvent::Moment {
                seq,
                moment,
                counts,
            } => {
                payload.push(TAG_MOMENT);
                put_varint(payload, *seq);
                put_varint(payload, moment.code());
                put_varint(payload, counts.len() as u64);
                for &c in counts {
                    put_varint(payload, c);
                }
            }
            FlightEvent::Writeback { seq, pages } => {
                payload.push(TAG_WRITEBACK);
                put_varint(payload, *seq);
                put_varint(payload, *pages);
            }
            FlightEvent::Request(r) => {
                payload.push(TAG_REQUEST);
                for v in [r.seq, r.id, r.client, u64::from(r.kind), r.started] {
                    put_varint(payload, v);
                }
                for &n in &r.phases {
                    put_varint(payload, n);
                }
            }
        }
        let len = out.len() - start - 1;
        if len < 0x80 {
            out[start] = len as u8;
        } else {
            let mut prefix = Vec::with_capacity(2);
            put_varint(&mut prefix, len as u64);
            out.splice(start..=start, prefix);
        }
    }

    /// Decodes one frame payload (the bytes *after* the length prefix).
    pub fn decode_payload(payload: &[u8]) -> Option<FlightEvent> {
        let tag = *payload.first()?;
        let mut p = 1usize;
        let mut v = || get_varint(payload, &mut p);
        // Each arm reads its fields in encode order; trailing bytes are
        // tolerated (forward compatibility with appended fields).
        let ev = match tag {
            TAG_COMMAND_BEGIN => FlightEvent::CommandBegin {
                seq: v()?,
                kind: CommandKind::from_code(v()?)?,
                target: v()?,
            },
            TAG_COMMAND_END => FlightEvent::CommandEnd {
                seq: v()?,
                accesses: v()?,
                shift_steps: v()?,
                nanos: v()?,
            },
            TAG_COMMAND_CANCEL => FlightEvent::CommandCancel { seq: v()? },
            TAG_ACCESS => FlightEvent::Access {
                seq: v()?,
                phase: Phase::from_code(v()?)?,
                kind: AccessKind::from_code(v()?)?,
                pages: v()?,
            },
            TAG_SHIFT => FlightEvent::Shift {
                seq: v()?,
                node: v()?,
                source: v()?,
                dest: v()?,
                moved: v()?,
                new_dest: match v()? {
                    0 => None,
                    1 => Some(v()?),
                    _ => return None,
                },
            },
            TAG_ACTIVATE => FlightEvent::Activate {
                seq: v()?,
                node: v()?,
                dest: v()?,
            },
            TAG_ROLLBACK => FlightEvent::Rollback {
                seq: v()?,
                node: v()?,
                new_dest: v()?,
            },
            TAG_FLAG_LOWERED => FlightEvent::FlagLowered {
                seq: v()?,
                node: v()?,
            },
            TAG_WAL_FRAME => FlightEvent::WalFrame {
                seq: v()?,
                bytes: v()?,
            },
            TAG_MOMENT => {
                let seq = v()?;
                let moment = Moment::from_code(v()?)?;
                let n = v()?;
                if n > payload.len() as u64 {
                    return None; // length field cannot exceed the frame
                }
                let mut counts = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    counts.push(v()?);
                }
                FlightEvent::Moment {
                    seq,
                    moment,
                    counts,
                }
            }
            TAG_WRITEBACK => FlightEvent::Writeback {
                seq: v()?,
                pages: v()?,
            },
            TAG_REQUEST => {
                let (seq, id, client) = (v()?, v()?, v()?);
                let kind = u8::try_from(v()?).ok()?;
                let started = v()?;
                let mut phases = [0u64; REQUEST_PHASES];
                for n in &mut phases {
                    *n = v()?;
                }
                FlightEvent::Request(RequestTimeline {
                    id,
                    client,
                    seq,
                    kind,
                    started,
                    phases,
                })
            }
            _ => return None,
        };
        Some(ev)
    }
}

/// Decodes a contiguous run of frames. Stops cleanly at a truncated tail
/// (returns what decoded so far); a corrupt payload is skipped.
pub fn decode_frames(buf: &[u8]) -> Vec<FlightEvent> {
    let mut events = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let Some(len) = get_varint(buf, &mut pos) else {
            break;
        };
        let len = len as usize;
        let Some(payload) = buf.get(pos..pos + len) else {
            break; // truncated tail
        };
        pos += len;
        if let Some(ev) = FlightEvent::decode_payload(payload) {
            events.push(ev);
        }
    }
    events
}

/// Reads exactly one varint from an `io::Read` (persist-format headers).
pub(crate) fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "over-long varint",
            ));
        }
        v |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn every_variant_roundtrips() {
        let events = vec![
            FlightEvent::CommandBegin {
                seq: 1,
                kind: CommandKind::Insert,
                target: 7,
            },
            FlightEvent::Access {
                seq: 1,
                phase: Phase::Shift,
                kind: AccessKind::Write,
                pages: 3,
            },
            FlightEvent::Shift {
                seq: 1,
                node: 15,
                source: 7,
                dest: 6,
                moved: 6,
                new_dest: Some(7),
            },
            FlightEvent::Shift {
                seq: 1,
                node: 3,
                source: 3,
                dest: 1,
                moved: 1,
                new_dest: None,
            },
            FlightEvent::Activate {
                seq: 1,
                node: 3,
                dest: 0,
            },
            FlightEvent::Rollback {
                seq: 2,
                node: 3,
                new_dest: 0,
            },
            FlightEvent::FlagLowered { seq: 2, node: 15 },
            FlightEvent::WalFrame { seq: 2, bytes: 41 },
            FlightEvent::Writeback { seq: 1, pages: 4 },
            FlightEvent::Moment {
                seq: 1,
                moment: Moment::AfterStep3,
                counts: vec![16, 1, 0, 1, 9, 9, 9, 17],
            },
            FlightEvent::Moment {
                seq: 1,
                moment: Moment::AfterStep4c,
                counts: vec![16, 1, 0, 1, 9, 9, 15, 11],
            },
            FlightEvent::CommandEnd {
                seq: 1,
                accesses: 18,
                shift_steps: 3,
                nanos: 44_000,
            },
            FlightEvent::CommandCancel { seq: 4 },
            FlightEvent::Request(RequestTimeline {
                id: 1 << 63 | 5,
                client: 2,
                seq: 1,
                kind: 0x01,
                started: 9_000,
                phases: [1, 2, 3, 4, 5, 6, u64::MAX, 0],
            }),
        ];
        let mut buf = Vec::new();
        for e in &events {
            e.encode(&mut buf);
        }
        assert_eq!(decode_frames(&buf), events);
    }

    #[test]
    fn truncated_tail_is_dropped_not_misparsed() {
        let mut buf = Vec::new();
        FlightEvent::CommandCancel { seq: 9 }.encode(&mut buf);
        let intact = buf.len();
        FlightEvent::CommandEnd {
            seq: 10,
            accesses: 5,
            shift_steps: 1,
            nanos: 2_000,
        }
        .encode(&mut buf);
        buf.truncate(intact + 2); // cut the second frame mid-payload
        assert_eq!(
            decode_frames(&buf),
            vec![FlightEvent::CommandCancel { seq: 9 }]
        );
    }
}
