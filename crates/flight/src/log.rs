//! The `.flight` file: persisted flight logs.
//!
//! Layout (everything after the magic is LEB128 varints):
//!
//! ```text
//! "DSFFLT1\n"                     8-byte magic
//! version                         format version (currently 3)
//! j  k  log_slots  gap            the BoundBudget recorded at capture time
//! dropped  total                  ring counters at snapshot
//! payload_len                     encoded frame bytes that follow
//! <frames...>                     exactly payload_len bytes of frames
//! ```
//!
//! Embedding the budget means `dsf flight replay` and `dsf explain` audit with the
//! *recording* file's configuration — no flags to mis-remember later.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::codec::{decode_frames, put_varint, read_varint, FlightEvent, RequestTimeline};
use crate::replay::{Attribution, BoundBudget};

/// 8-byte magic opening every `.flight` file.
pub const FLIGHT_MAGIC: &[u8; 8] = b"DSFFLT1\n";

/// Current format version. A file of any other version is refused, not
/// misread.
pub const FLIGHT_VERSION: u64 = 3;

/// A decoded flight log: the events plus the capture-time context needed
/// to replay and audit them.
#[derive(Debug, Clone)]
pub struct FlightLog {
    /// The audit budget of the file that recorded the log.
    pub budget: BoundBudget,
    /// Events ever pushed (retained + dropped).
    pub total: u64,
    /// Events evicted by the ring's byte budget.
    pub dropped: u64,
    /// The retained events, oldest first.
    pub events: Vec<FlightEvent>,
}

impl FlightLog {
    /// Replays the log into per-command attribution.
    pub fn replay(&self) -> Attribution {
        Attribution::replay(self)
    }

    /// The served requests' timelines, oldest first.
    pub fn requests(&self) -> impl Iterator<Item = &RequestTimeline> {
        self.events.iter().filter_map(|ev| match ev {
            FlightEvent::Request(r) => Some(r),
            _ => None,
        })
    }

    /// Serializes the log into the `.flight` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut frames = Vec::new();
        for ev in &self.events {
            ev.encode(&mut frames);
        }
        let mut out = Vec::with_capacity(frames.len() + 64);
        out.extend_from_slice(FLIGHT_MAGIC);
        put_varint(&mut out, FLIGHT_VERSION);
        put_varint(&mut out, self.budget.j);
        put_varint(&mut out, self.budget.k);
        put_varint(&mut out, self.budget.log_slots);
        put_varint(&mut out, self.budget.gap);
        put_varint(&mut out, self.dropped);
        put_varint(&mut out, self.total);
        put_varint(&mut out, frames.len() as u64);
        out.extend_from_slice(&frames);
        out
    }

    /// Writes the log to `path` (atomically enough for a tool artifact:
    /// single create + write + sync).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(&self.to_bytes())?;
        f.sync_all()
    }

    /// Parses a `.flight` byte stream.
    pub fn from_reader(r: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != FLIGHT_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a .flight file (bad magic)",
            ));
        }
        let version = read_varint(r)?;
        if version != FLIGHT_VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unsupported .flight version {version} (this build reads version \
                     {FLIGHT_VERSION})"
                ),
            ));
        }
        let budget = BoundBudget {
            j: read_varint(r)?,
            k: read_varint(r)?,
            log_slots: read_varint(r)?,
            gap: read_varint(r)?,
        };
        let dropped = read_varint(r)?;
        let total = read_varint(r)?;
        let payload_len = read_varint(r)?;
        // Read through `take` rather than pre-sizing a buffer from the
        // header: a corrupt length must not become a huge allocation.
        let mut frames = Vec::new();
        r.take(payload_len).read_to_end(&mut frames)?;
        if frames.len() as u64 != payload_len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated .flight payload",
            ));
        }
        Ok(FlightLog {
            budget,
            total,
            dropped,
            events: decode_frames(&frames),
        })
    }

    /// Loads a `.flight` file from disk.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut f = File::open(path)?;
        Self::from_reader(&mut f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CommandKind;

    #[test]
    fn flight_file_roundtrips() {
        let log = FlightLog {
            budget: BoundBudget {
                j: 3,
                k: 1,
                log_slots: 3,
                gap: 9,
            },
            total: 3,
            dropped: 1,
            events: vec![
                FlightEvent::CommandBegin {
                    seq: 2,
                    kind: CommandKind::Delete,
                    target: 4,
                },
                FlightEvent::CommandEnd {
                    seq: 2,
                    accesses: 5,
                    shift_steps: 1,
                    nanos: 9_000,
                },
            ],
        };
        let bytes = log.to_bytes();
        let back = FlightLog::from_reader(&mut bytes.as_slice()).unwrap();
        assert_eq!(back.budget, log.budget);
        assert_eq!(back.total, 3);
        assert_eq!(back.dropped, 1);
        assert_eq!(back.events, log.events);
    }

    #[test]
    fn corrupt_payload_length_is_an_error_not_an_allocation() {
        let mut bytes = FLIGHT_MAGIC.to_vec();
        for v in [FLIGHT_VERSION, 3, 1, 3, 9, 0, 1, u64::MAX] {
            put_varint(&mut bytes, v);
        }
        bytes.extend_from_slice(&[2, 2, 9]); // one short frame
        let err = FlightLog::from_reader(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn version_1_and_2_headers_are_refused_naming_both_versions() {
        for old in [1, 2] {
            let mut bytes = FLIGHT_MAGIC.to_vec();
            for v in [old, 3, 1, 3, 9, 0, 0, 0] {
                put_varint(&mut bytes, v);
            }
            let err = FlightLog::from_reader(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("version {old}")) && msg.contains("version 3"),
                "{msg}"
            );
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = FlightLog::from_reader(&mut &b"NOTFLGHT\x01"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
