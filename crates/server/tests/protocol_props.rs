//! Property tests for the wire protocol: every frame type round-trips,
//! and arbitrary/torn/oversized input is rejected with a protocol error
//! — never a panic, never an unbounded allocation.

use dsf_durable::Durability;
use dsf_server::protocol::{self, Outcome, ProtocolError, Request, Response, MAX_FRAME, MAX_SCAN};
use proptest::prelude::*;

/// Reads and decodes one request frame (`Ok(None)` on clean EOF).
fn read_request<R: std::io::Read>(r: &mut R) -> Result<Option<Request>, ProtocolError> {
    protocol::read_frame(r)?
        .map(|body| Request::decode(&body))
        .transpose()
}

fn durability(bit: bool) -> Durability {
    if bit {
        Durability::Strict
    } else {
        Durability::Relaxed
    }
}

fn value(n: u64) -> String {
    // Exercise empty, short, and multi-byte-UTF-8 payloads.
    match n % 4 {
        0 => String::new(),
        1 => format!("v{n}"),
        2 => "π≈3.14159 · ε>0".repeat((n % 7) as usize + 1),
        _ => "x".repeat((n % 512) as usize),
    }
}

fn request(choice: u8, key: u64, n: u64, bit: bool) -> Request {
    match choice % 8 {
        0 => Request::Insert {
            key,
            value: value(n),
            durability: durability(bit),
        },
        1 => Request::Remove {
            key,
            durability: durability(bit),
        },
        2 => Request::Get { key },
        3 => Request::Scan {
            start: key,
            limit: (n % u64::from(MAX_SCAN)) as u32,
        },
        4 => Request::Ping,
        5 => Request::Count,
        6 => Request::Flush,
        _ => Request::Shutdown,
    }
}

fn response(choice: u8, key: u64, n: u64) -> Response {
    match choice % 8 {
        0 => Response::Applied {
            outcome: match n % 5 {
                0 => Outcome::Inserted,
                1 => Outcome::Replaced(value(n)),
                2 => Outcome::Removed(value(n)),
                3 => Outcome::NotFound,
                _ => Outcome::Rejected(value(n)),
            },
            seq: key,
        },
        1 => Response::Value((n.is_multiple_of(2)).then(|| value(n))),
        2 => Response::Entries(
            (0..n % 17)
                .map(|i| (key.wrapping_add(i), value(i)))
                .collect(),
        ),
        3 => Response::Pong,
        4 => Response::Count(key),
        5 => Response::Flushed,
        6 => Response::ShuttingDown,
        _ => Response::Error(value(n)),
    }
}

proptest! {
    /// Requests survive encode→frame→read intact.
    #[test]
    fn request_round_trips(choice in any::<u8>(), key in any::<u64>(), n in any::<u64>(), bit in any::<bool>()) {
        let req = request(choice, key, n, bit);
        let mut wire = Vec::new();
        protocol::write_request(&mut wire, &req).unwrap();
        let back = read_request(&mut wire.as_slice()).unwrap().unwrap();
        prop_assert_eq!(format!("{req:?}"), format!("{back:?}"));
        // And the stream is exactly consumed: a second read sees clean EOF.
        let mut r = wire.as_slice();
        read_request(&mut r).unwrap();
        prop_assert!(read_request(&mut r).unwrap().is_none());
    }

    /// Responses survive encode→frame→read intact.
    #[test]
    fn response_round_trips(choice in any::<u8>(), key in any::<u64>(), n in any::<u64>()) {
        let rsp = response(choice, key, n);
        let mut wire = Vec::new();
        protocol::write_response(&mut wire, &rsp).unwrap();
        let back = protocol::read_response(&mut wire.as_slice()).unwrap().unwrap();
        prop_assert_eq!(format!("{rsp:?}"), format!("{back:?}"));
    }

    /// Truncating a valid frame at any point yields `Torn`/`Io` — or
    /// `Ok(None)` exactly when the cut lands on a frame boundary.
    #[test]
    fn torn_frames_error_cleanly(choice in any::<u8>(), key in any::<u64>(), n in any::<u64>(), cut in any::<u64>()) {
        let req = request(choice, key, n, false);
        let mut wire = Vec::new();
        protocol::write_request(&mut wire, &req).unwrap();
        let cut = (cut % wire.len() as u64) as usize; // strictly short
        match read_request(&mut &wire[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0, "mid-frame cut reported as clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "truncated frame decoded"),
            Err(ProtocolError::Torn { .. }) | Err(ProtocolError::Io(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// Arbitrary bytes never panic the decoder; oversized headers are
    /// refused before any allocation of the claimed length.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = read_request(&mut bytes.as_slice());
        let _ = protocol::read_response(&mut bytes.as_slice());
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
    }

    /// A header claiming more than MAX_FRAME is `Oversized` regardless of
    /// what (if anything) follows.
    #[test]
    fn oversized_headers_refused(extra in any::<u32>(), tail in prop::collection::vec(any::<u8>(), 0..16)) {
        let len = (MAX_FRAME as u32).saturating_add(extra % 1024 + 1);
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&tail);
        match read_request(&mut wire.as_slice()) {
            Err(ProtocolError::Oversized { .. }) => {}
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }

    /// A frame with valid length but trailing bytes after the payload is
    /// rejected (`Trailing`), not silently accepted.
    #[test]
    fn trailing_garbage_rejected(key in any::<u64>(), junk in 1u8..16) {
        let req = Request::Get { key };
        let mut body = Vec::new();
        req.encode(&mut body);
        body.extend(std::iter::repeat_n(0xAB, junk as usize));
        let mut wire = Vec::new();
        protocol::write_frame(&mut wire, &body).unwrap();
        match read_request(&mut wire.as_slice()) {
            Err(ProtocolError::Trailing { .. }) => {}
            other => prop_assert!(false, "expected Trailing, got {other:?}"),
        }
    }

    /// Every request survives the traced encoding with its trace id, and
    /// a zero id degrades to the exact legacy byte stream.
    #[test]
    fn traced_requests_round_trip(choice in any::<u8>(), key in any::<u64>(), n in any::<u64>(), bit in any::<bool>(), id in any::<u64>()) {
        let req = request(choice, key, n, bit);
        let mut body = Vec::new();
        req.encode_traced(&mut body, id);
        let (back, got) = Request::decode_traced(&body).unwrap();
        prop_assert_eq!(format!("{req:?}"), format!("{back:?}"));
        prop_assert_eq!(got, id);
        let mut plain = Vec::new();
        req.encode(&mut plain);
        if id == 0 {
            prop_assert_eq!(&body, &plain, "id 0 must encode byte-identically");
        } else {
            // An old decoder never misreads a traced frame: it refuses it
            // as exactly 8 trailing bytes.
            match Request::decode(&body) {
                Err(ProtocolError::Trailing { extra, .. }) => prop_assert_eq!(extra, 8),
                other => prop_assert!(false, "expected Trailing{{extra: 8}}, got {other:?}"),
            }
        }
        // And old-format frames parse through the traced decoder as id 0.
        let (legacy, zero) = Request::decode_traced(&plain).unwrap();
        prop_assert_eq!(format!("{req:?}"), format!("{legacy:?}"));
        prop_assert_eq!(zero, 0);
    }

    /// Torn traced frames error exactly like torn legacy frames.
    #[test]
    fn torn_traced_frames_error_cleanly(choice in any::<u8>(), key in any::<u64>(), n in any::<u64>(), id in 1u64..=u64::MAX, cut in any::<u64>()) {
        let req = request(choice, key, n, false);
        let mut wire = Vec::new();
        protocol::write_request_traced(&mut wire, &req, id).unwrap();
        let cut = (cut % wire.len() as u64) as usize;
        match read_request(&mut &wire[..cut]) {
            Ok(None) => prop_assert_eq!(cut, 0, "mid-frame cut reported as clean EOF"),
            Ok(Some(_)) => prop_assert!(false, "truncated traced frame decoded"),
            Err(ProtocolError::Torn { .. }) | Err(ProtocolError::Io(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// The traced decoder only treats *exactly* 8 trailing bytes as a
    /// trace id; any other trailing length is still rejected, and junk
    /// after the id field is never silently folded into one.
    #[test]
    fn traced_decoder_rejects_other_trailing_lengths(key in any::<u64>(), junk in 1u8..15) {
        let junk = if junk >= 8 { junk + 1 } else { junk }; // skip exactly-8 (a valid id)
        let req = Request::Get { key };
        let mut body = Vec::new();
        req.encode(&mut body);
        body.extend(std::iter::repeat_n(0xAB, junk as usize));
        match Request::decode_traced(&body) {
            Err(ProtocolError::Trailing { extra, .. }) => prop_assert_eq!(extra, junk as usize),
            other => prop_assert!(false, "expected Trailing, got {other:?}"),
        }
    }
}
