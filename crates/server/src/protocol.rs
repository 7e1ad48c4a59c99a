//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message — request or response — is one **frame**: a little-endian
//! `u32` byte length followed by that many body bytes. The body starts
//! with a one-byte tag; everything after it is fixed-width little-endian
//! integers and length-prefixed UTF-8 strings. There is no external
//! schema, no compression, and no async framing state: a frame is
//! self-contained, so a connection is just a byte stream of frames in
//! each direction.
//!
//! **Pipelining** is the protocol's whole design: a client may send any
//! number of request frames before reading a single response, and the
//! server answers every request of one connection *in request order*.
//! Request/response correlation is therefore positional — no request IDs
//! on the wire — exactly like the classic Redis/memcached framing.
//!
//! **Durability on ack** travels per request: structural commands
//! ([`Request::Insert`], [`Request::Remove`]) carry a [`Durability`] flag.
//! `Strict` means "my response implies my WAL frame was fsynced";
//! `Relaxed` means "my response implies my command was applied and its
//! frame buffered in the commit window" (it becomes durable when the
//! window closes — at the latest on graceful shutdown or
//! [`Request::Flush`]).
//!
//! Decoding never panics on wire input: torn frames, oversized lengths,
//! unknown tags, trailing bytes and invalid UTF-8 all surface as
//! [`ProtocolError`] values, and a server that sees one answers with
//! [`Response::Error`] and closes the connection (framing cannot be
//! resynchronized after corrupt input).

use dsf_durable::Durability;
use std::io::{Read, Write};

/// Hard ceiling on a frame's body length. A peer announcing more is
/// corrupt (or hostile); the frame is rejected *before* any allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Ceiling on one value's byte length ([`Request::Insert`]).
pub const MAX_VALUE: usize = 1 << 16;

/// Ceiling on [`Request::Scan`]'s `limit` (bounds the response frame).
pub const MAX_SCAN: u32 = 4096;

/// Everything that can go wrong turning bytes into messages. Never a
/// panic: every variant is a deterministic function of the input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A frame header announced more than [`MAX_FRAME`] bytes.
    Oversized {
        /// The announced body length.
        len: u64,
        /// The configured ceiling it exceeded.
        max: u64,
    },
    /// The stream ended mid-frame (a torn or short read).
    Torn {
        /// Bytes the frame still needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The body's first byte is not a known message tag.
    UnknownTag(u8),
    /// The body decoded cleanly but had bytes left over.
    Trailing {
        /// Number of undecoded bytes at the end of the body.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A field exceeded its own ceiling (value length, scan limit).
    FieldTooLarge {
        /// Which field.
        field: &'static str,
        /// The announced size.
        len: u64,
        /// The field's ceiling.
        max: u64,
    },
    /// An I/O error while reading or writing a frame.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            ProtocolError::Torn { needed, got } => {
                write!(f, "torn frame: needed {needed} more bytes, got {got}")
            }
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtocolError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            ProtocolError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::FieldTooLarge { field, len, max } => {
                write!(f, "{field} of {len} exceeds the limit {max}")
            }
            ProtocolError::Io(kind) => write!(f, "i/o error: {kind}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e.kind())
    }
}

/// A client request. Structural commands carry their durability-on-ack;
/// reads execute immediately against the shared file (they never enter
/// the accumulator) but still answer in request order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Insert (or replace) `key ↦ value`.
    Insert {
        /// Record key.
        key: u64,
        /// Record value (UTF-8).
        value: String,
        /// Whether the ack must wait for the fsync.
        durability: Durability,
    },
    /// Delete `key`.
    Remove {
        /// Record key.
        key: u64,
        /// Whether the ack must wait for the fsync.
        durability: Durability,
    },
    /// Point lookup.
    Get {
        /// Record key.
        key: u64,
    },
    /// In-order scan of at most `limit` (≤ [`MAX_SCAN`]) records with
    /// key ≥ `start`.
    Scan {
        /// First key of interest.
        start: u64,
        /// Maximum records returned.
        limit: u32,
    },
    /// Liveness probe.
    Ping,
    /// Total records in the file.
    Count,
    /// Barrier: after all of this connection's earlier commands are
    /// applied, close the commit window and fsync. The ack implies every
    /// previously acked `Relaxed` command is now durable.
    Flush,
    /// Ask the server to shut down gracefully (drain, flush, exit).
    Shutdown,
}

/// Outcome of a structural command, mirrored from
/// [`dsf_core::CommandOutcome`] with the value type fixed to `String`
/// and a flight-recorder seq attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The key was new and was inserted.
    Inserted,
    /// The key existed; its value was replaced (old value returned).
    Replaced(String),
    /// The key existed and was removed (old value returned).
    Removed(String),
    /// Remove of an absent key.
    NotFound,
    /// The file refused the command (capacity); message attached.
    Rejected(String),
}

/// A server response, answering requests of one connection in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Outcome of an [`Request::Insert`] or [`Request::Remove`], stamped
    /// with the flight-recorder command seq (`0` while the recorder is
    /// off) so `dsf flight replay` attributes page cost to this request.
    Applied {
        /// What the command did.
        outcome: Outcome,
        /// Flight-recorder sequence number of the command.
        seq: u64,
    },
    /// Answer to [`Request::Get`].
    Value(Option<String>),
    /// Answer to [`Request::Scan`].
    Entries(Vec<(u64, String)>),
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Count`].
    Count(u64),
    /// Answer to [`Request::Flush`]: the window is closed and synced.
    Flushed,
    /// Answer to [`Request::Shutdown`]: the server is draining.
    ShuttingDown,
    /// The request failed; human-readable reason attached. Sent for
    /// protocol violations (then the connection closes) and for storage
    /// errors (connection stays up).
    Error(String),
}

// ---------------------------------------------------------------------
// Tags.
// ---------------------------------------------------------------------

const REQ_INSERT: u8 = 0x01;
const REQ_REMOVE: u8 = 0x02;
const REQ_GET: u8 = 0x03;
const REQ_SCAN: u8 = 0x04;
const REQ_PING: u8 = 0x05;
const REQ_COUNT: u8 = 0x06;
const REQ_FLUSH: u8 = 0x07;
const REQ_SHUTDOWN: u8 = 0x08;

const RSP_APPLIED: u8 = 0x81;
const RSP_VALUE: u8 = 0x82;
const RSP_ENTRIES: u8 = 0x83;
const RSP_PONG: u8 = 0x84;
const RSP_COUNT: u8 = 0x85;
const RSP_FLUSHED: u8 = 0x86;
const RSP_SHUTDOWN: u8 = 0x87;
const RSP_ERROR: u8 = 0x88;

const OUT_INSERTED: u8 = 1;
const OUT_REPLACED: u8 = 2;
const OUT_REMOVED: u8 = 3;
const OUT_NOT_FOUND: u8 = 4;
const OUT_REJECTED: u8 = 5;

const DUR_STRICT: u8 = 0;
const DUR_RELAXED: u8 = 1;

// ---------------------------------------------------------------------
// Body codec: a tiny cursor over the frame body.
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self.at.checked_add(n).ok_or(ProtocolError::Torn {
            needed: n,
            got: self.buf.len() - self.at,
        })?;
        if end > self.buf.len() {
            return Err(ProtocolError::Torn {
                needed: n,
                got: self.buf.len() - self.at,
            });
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        if len > MAX_VALUE {
            return Err(ProtocolError::FieldTooLarge {
                field: "string",
                len: len as u64,
                max: MAX_VALUE as u64,
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn durability(&mut self) -> Result<Durability, ProtocolError> {
        match self.u8()? {
            DUR_STRICT => Ok(Durability::Strict),
            DUR_RELAXED => Ok(Durability::Relaxed),
            other => Err(ProtocolError::UnknownTag(other)),
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(ProtocolError::Trailing {
                extra: self.buf.len() - self.at,
            })
        }
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_durability(out: &mut Vec<u8>, d: Durability) {
    out.push(match d {
        Durability::Strict => DUR_STRICT,
        Durability::Relaxed => DUR_RELAXED,
    });
}

impl Request {
    /// The request's wire tag (the body's first byte; also the
    /// [`dsf_flight::RequestTimeline::kind`] a traced request is stamped with).
    pub fn tag(&self) -> u8 {
        match self {
            Request::Insert { .. } => REQ_INSERT,
            Request::Remove { .. } => REQ_REMOVE,
            Request::Get { .. } => REQ_GET,
            Request::Scan { .. } => REQ_SCAN,
            Request::Ping => REQ_PING,
            Request::Count => REQ_COUNT,
            Request::Flush => REQ_FLUSH,
            Request::Shutdown => REQ_SHUTDOWN,
        }
    }

    /// Serializes the request body (no frame header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Insert {
                key,
                value,
                durability,
            } => {
                out.push(REQ_INSERT);
                put_durability(out, *durability);
                out.extend_from_slice(&key.to_le_bytes());
                put_string(out, value);
            }
            Request::Remove { key, durability } => {
                out.push(REQ_REMOVE);
                put_durability(out, *durability);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Get { key } => {
                out.push(REQ_GET);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Request::Scan { start, limit } => {
                out.push(REQ_SCAN);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&limit.to_le_bytes());
            }
            Request::Ping => out.push(REQ_PING),
            Request::Count => out.push(REQ_COUNT),
            Request::Flush => out.push(REQ_FLUSH),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
        }
    }

    /// Serializes the request body followed by the optional trace-id
    /// extension: eight trailing little-endian bytes carrying
    /// `trace_id` (`0` = untraced, byte-identical to [`encode`]).
    ///
    /// The extension is *trailing on purpose*: a server that predates it
    /// rejects the frame (`Trailing`) instead of misparsing it, and a
    /// new server accepts old frames unchanged — the id is only ever
    /// sent by clients that asked for tracing.
    ///
    /// [`encode`]: Request::encode
    pub fn encode_traced(&self, out: &mut Vec<u8>, trace_id: u64) {
        self.encode(out);
        if trace_id != 0 {
            out.extend_from_slice(&trace_id.to_le_bytes());
        }
    }

    /// Decodes a request body. Rejects unknown tags, torn bodies,
    /// oversized fields and trailing bytes; never panics.
    pub fn decode(body: &[u8]) -> Result<Request, ProtocolError> {
        let mut c = Cursor::new(body);
        let req = Self::decode_body(&mut c)?;
        c.finish()?;
        Ok(req)
    }

    /// Decodes a request body that may end with the eight-byte trace-id
    /// extension; returns `(request, trace_id)` with `trace_id == 0`
    /// when the extension is absent (an old client). Exactly eight
    /// leftover bytes are the id; any other leftover count is
    /// [`ProtocolError::Trailing`], same as [`decode`](Request::decode).
    pub fn decode_traced(body: &[u8]) -> Result<(Request, u64), ProtocolError> {
        let mut c = Cursor::new(body);
        let req = Self::decode_body(&mut c)?;
        let trace_id = if c.remaining() == 8 { c.u64()? } else { 0 };
        c.finish()?;
        Ok((req, trace_id))
    }

    /// Parses one request off the cursor (shared by [`decode`] and
    /// [`decode_traced`]; the caller settles what trailing bytes mean).
    ///
    /// [`decode`]: Request::decode
    /// [`decode_traced`]: Request::decode_traced
    fn decode_body(c: &mut Cursor<'_>) -> Result<Request, ProtocolError> {
        let req = match c.u8()? {
            REQ_INSERT => {
                let durability = c.durability()?;
                let key = c.u64()?;
                let value = c.string()?;
                Request::Insert {
                    key,
                    value,
                    durability,
                }
            }
            REQ_REMOVE => {
                let durability = c.durability()?;
                let key = c.u64()?;
                Request::Remove { key, durability }
            }
            REQ_GET => Request::Get { key: c.u64()? },
            REQ_SCAN => {
                let start = c.u64()?;
                let limit = c.u32()?;
                if limit > MAX_SCAN {
                    return Err(ProtocolError::FieldTooLarge {
                        field: "scan limit",
                        len: u64::from(limit),
                        max: u64::from(MAX_SCAN),
                    });
                }
                Request::Scan { start, limit }
            }
            REQ_PING => Request::Ping,
            REQ_COUNT => Request::Count,
            REQ_FLUSH => Request::Flush,
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        Ok(req)
    }
}

impl Response {
    /// Serializes the response body (no frame header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Applied { outcome, seq } => {
                out.push(RSP_APPLIED);
                out.extend_from_slice(&seq.to_le_bytes());
                match outcome {
                    Outcome::Inserted => out.push(OUT_INSERTED),
                    Outcome::Replaced(old) => {
                        out.push(OUT_REPLACED);
                        put_string(out, old);
                    }
                    Outcome::Removed(old) => {
                        out.push(OUT_REMOVED);
                        put_string(out, old);
                    }
                    Outcome::NotFound => out.push(OUT_NOT_FOUND),
                    Outcome::Rejected(msg) => {
                        out.push(OUT_REJECTED);
                        put_string(out, msg);
                    }
                }
            }
            Response::Value(v) => {
                out.push(RSP_VALUE);
                match v {
                    Some(s) => {
                        out.push(1);
                        put_string(out, s);
                    }
                    None => out.push(0),
                }
            }
            Response::Entries(entries) => {
                out.push(RSP_ENTRIES);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (k, v) in entries {
                    out.extend_from_slice(&k.to_le_bytes());
                    put_string(out, v);
                }
            }
            Response::Pong => out.push(RSP_PONG),
            Response::Count(n) => {
                out.push(RSP_COUNT);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Response::Flushed => out.push(RSP_FLUSHED),
            Response::ShuttingDown => out.push(RSP_SHUTDOWN),
            Response::Error(msg) => {
                out.push(RSP_ERROR);
                put_string(out, msg);
            }
        }
    }

    /// Decodes a response body; the mirror of [`Response::encode`].
    pub fn decode(body: &[u8]) -> Result<Response, ProtocolError> {
        let mut c = Cursor::new(body);
        let rsp = match c.u8()? {
            RSP_APPLIED => {
                let seq = c.u64()?;
                let outcome = match c.u8()? {
                    OUT_INSERTED => Outcome::Inserted,
                    OUT_REPLACED => Outcome::Replaced(c.string()?),
                    OUT_REMOVED => Outcome::Removed(c.string()?),
                    OUT_NOT_FOUND => Outcome::NotFound,
                    OUT_REJECTED => Outcome::Rejected(c.string()?),
                    other => return Err(ProtocolError::UnknownTag(other)),
                };
                Response::Applied { outcome, seq }
            }
            RSP_VALUE => match c.u8()? {
                0 => Response::Value(None),
                1 => Response::Value(Some(c.string()?)),
                other => return Err(ProtocolError::UnknownTag(other)),
            },
            RSP_ENTRIES => {
                let n = c.u32()?;
                if n > MAX_SCAN {
                    return Err(ProtocolError::FieldTooLarge {
                        field: "entry count",
                        len: u64::from(n),
                        max: u64::from(MAX_SCAN),
                    });
                }
                let mut entries = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let k = c.u64()?;
                    let v = c.string()?;
                    entries.push((k, v));
                }
                Response::Entries(entries)
            }
            RSP_PONG => Response::Pong,
            RSP_COUNT => Response::Count(c.u64()?),
            RSP_FLUSHED => Response::Flushed,
            RSP_SHUTDOWN => Response::ShuttingDown,
            RSP_ERROR => Response::Error(c.string()?),
            other => return Err(ProtocolError::UnknownTag(other)),
        };
        c.finish()?;
        Ok(rsp)
    }
}

// ---------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------

/// Writes one frame: `u32` LE length then the body.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), ProtocolError> {
    debug_assert!(body.len() <= MAX_FRAME, "encoder produced oversized frame");
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    Ok(())
}

/// Reads one frame body. `Ok(None)` on a clean EOF *between* frames
/// (the peer closed after a complete message); a stream that ends inside
/// a header or body is a torn read and errors.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Short(got) => {
            return Err(ProtocolError::Torn {
                needed: 4 - got,
                got,
            })
        }
        ReadOutcome::Full => {}
    }
    let len = body_len(header)?;
    let mut body = vec![0u8; len];
    match read_exact_or_eof(r, &mut body)? {
        ReadOutcome::Full => Ok(Some(body)),
        ReadOutcome::Eof => Err(ProtocolError::Torn {
            needed: len,
            got: 0,
        }),
        ReadOutcome::Short(got) => Err(ProtocolError::Torn {
            needed: len - got,
            got,
        }),
    }
}

/// The body length a frame header announces; a length over [`MAX_FRAME`]
/// is refused before anything is allocated for it.
pub(crate) fn body_len(header: [u8; 4]) -> Result<usize, ProtocolError> {
    let len = u32::from_le_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized {
            len: len as u64,
            max: MAX_FRAME as u64,
        });
    }
    Ok(len)
}

enum ReadOutcome {
    Full,
    Eof,
    Short(usize),
}

/// `read_exact` that distinguishes "EOF before any byte" (clean close)
/// from "EOF mid-buffer" (torn), and retries on `Interrupted`.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<ReadOutcome, ProtocolError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Short(filled)
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Encodes `req` and writes it as one frame.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<(), ProtocolError> {
    let mut body = Vec::with_capacity(32);
    req.encode(&mut body);
    write_frame(w, &body)
}

/// Encodes `req` with the trace-id extension and writes it as one frame
/// (identical to [`write_request`] when `trace_id == 0`).
pub fn write_request_traced<W: Write>(
    w: &mut W,
    req: &Request,
    trace_id: u64,
) -> Result<(), ProtocolError> {
    let mut body = Vec::with_capacity(40);
    req.encode_traced(&mut body, trace_id);
    write_frame(w, &body)
}

/// Encodes `rsp` and writes it as one frame.
pub fn write_response<W: Write>(w: &mut W, rsp: &Response) -> Result<(), ProtocolError> {
    let mut body = Vec::with_capacity(32);
    rsp.encode(&mut body);
    write_frame(w, &body)
}

/// Reads and decodes one response frame (`Ok(None)` on clean EOF).
pub fn read_response<R: Read>(r: &mut R) -> Result<Option<Response>, ProtocolError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(body) => Response::decode(&body).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut body = Vec::new();
        req.encode(&mut body);
        assert_eq!(Request::decode(&body).expect("decodes"), req);
    }

    fn round_trip_response(rsp: Response) {
        let mut body = Vec::new();
        rsp.encode(&mut body);
        assert_eq!(Response::decode(&body).expect("decodes"), rsp);
    }

    #[test]
    fn request_round_trips() {
        round_trip_request(Request::Insert {
            key: 42,
            value: "hello".into(),
            durability: Durability::Relaxed,
        });
        round_trip_request(Request::Remove {
            key: u64::MAX,
            durability: Durability::Strict,
        });
        round_trip_request(Request::Get { key: 0 });
        round_trip_request(Request::Scan {
            start: 7,
            limit: MAX_SCAN,
        });
        round_trip_request(Request::Ping);
        round_trip_request(Request::Count);
        round_trip_request(Request::Flush);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn response_round_trips() {
        round_trip_response(Response::Applied {
            outcome: Outcome::Inserted,
            seq: 9,
        });
        round_trip_response(Response::Applied {
            outcome: Outcome::Replaced("old".into()),
            seq: 0,
        });
        round_trip_response(Response::Value(Some("v".into())));
        round_trip_response(Response::Value(None));
        round_trip_response(Response::Entries(vec![(1, "a".into()), (2, "b".into())]));
        round_trip_response(Response::Error("nope".into()));
    }

    #[test]
    fn oversized_header_is_an_error_not_an_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ProtocolError::Oversized { .. }));
    }

    #[test]
    fn torn_body_is_an_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]); // 3 of 8 body bytes
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, ProtocolError::Torn { .. }));
    }

    #[test]
    fn clean_eof_is_none() {
        assert_eq!(read_frame(&mut [].as_slice()).unwrap(), None);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Vec::new();
        Request::Ping.encode(&mut body);
        body.push(0xFF);
        assert!(matches!(
            Request::decode(&body),
            Err(ProtocolError::Trailing { extra: 1 })
        ));
    }

    #[test]
    fn traced_encoding_round_trips_and_downgrades() {
        let req = Request::Insert {
            key: 7,
            value: "v".into(),
            durability: Durability::Strict,
        };
        // Traced frame → traced decoder: id comes back.
        let mut body = Vec::new();
        req.encode_traced(&mut body, 0xDEAD_BEEF_0000_0001);
        assert_eq!(
            Request::decode_traced(&body).expect("traced decodes"),
            (req.clone(), 0xDEAD_BEEF_0000_0001)
        );
        // Traced frame → old decoder: rejected, never misparsed.
        assert!(matches!(
            Request::decode(&body),
            Err(ProtocolError::Trailing { extra: 8 })
        ));
        // Untraced frame (id 0 encodes nothing) → both decoders agree.
        let mut plain = Vec::new();
        req.encode_traced(&mut plain, 0);
        let mut expected = Vec::new();
        req.encode(&mut expected);
        assert_eq!(plain, expected);
        assert_eq!(
            Request::decode_traced(&plain).expect("plain decodes"),
            (req, 0)
        );
    }

    #[test]
    fn traced_decoder_still_rejects_other_trailing_lengths() {
        let mut body = Vec::new();
        Request::Ping.encode(&mut body);
        body.extend_from_slice(&[0xAB; 5]);
        assert!(matches!(
            Request::decode_traced(&body),
            Err(ProtocolError::Trailing { extra: 5 })
        ));
    }

    #[test]
    fn request_tags_match_the_wire() {
        assert_eq!(Request::Ping.tag(), REQ_PING);
        assert_eq!(Request::Get { key: 1 }.tag(), REQ_GET);
        let mut body = Vec::new();
        Request::Count.encode(&mut body);
        assert_eq!(body[0], Request::Count.tag());
    }

    #[test]
    fn scan_limit_bounded() {
        let mut body = vec![REQ_SCAN];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&(MAX_SCAN + 1).to_le_bytes());
        assert!(matches!(
            Request::decode(&body),
            Err(ProtocolError::FieldTooLarge { .. })
        ));
    }
}
