//! [`Payload`] — the value the served store keeps in every record.
//!
//! The paper moves records as atomic units, and so does every layer
//! under the server: SHIFT rewrites runs of records between pages, and
//! the read view republishes a dirtied slot by copying its records into
//! a fresh image. With `String` values each of those records points to
//! its own heap buffer, so a copy chases one scattered allocation per
//! record. A `Payload` is the same size as a `String` (24 bytes, so a
//! `u64`-keyed record is 32) but keeps values of up to [`INLINE_MAX`]
//! bytes inside itself and shares longer ones behind an `Arc<str>`:
//! copying a slot's records is then a `memcpy`, plus a refcount increment
//! per long value, and never a `malloc`.
//!
//! On disk a `Payload` is exactly a `String`: its [`Codec`] writes the
//! `u32` length and the UTF-8 bytes, so WAL frames and checkpoints
//! written through either type reopen as the other.

use std::fmt;
use std::sync::Arc;

use dsf_core::snapshot::{Codec, SnapshotError};

/// The longest value a [`Payload`] stores inline, in bytes.
pub const INLINE_MAX: usize = 22;

/// An immutable UTF-8 value of 24 bytes: inline up to [`INLINE_MAX`]
/// bytes, else a shared `Arc<str>`. Cloning one never allocates.
///
/// ```
/// use dsf_server::Payload;
///
/// let short = Payload::from("0000000000002a00");
/// let long = Payload::from("a value longer than twenty-two bytes");
/// assert_eq!(short, "0000000000002a00");
/// assert_eq!(long.clone().as_str(), "a value longer than twenty-two bytes");
/// assert_eq!(String::from(&short), "0000000000002a00");
/// ```
#[derive(Clone)]
pub struct Payload(Repr);

/// Which values are inline is a function of their length alone, so two
/// equal values always have the same representation.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE_MAX] },
    Shared(Arc<str>),
}

impl Payload {
    /// The value's UTF-8 bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared(s) => s.as_bytes(),
        }
    }

    /// The value as a string slice. An inline value's bytes (at most
    /// [`INLINE_MAX`]) are re-checked as UTF-8, which keeps this safe code.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => std::str::from_utf8(self.as_bytes())
                .expect("an inline payload holds the bytes of a str"),
            Repr::Shared(s) => s,
        }
    }
}

impl From<&str> for Payload {
    fn from(s: &str) -> Self {
        if s.len() <= INLINE_MAX {
            let mut bytes = [0; INLINE_MAX];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Payload(Repr::Inline {
                len: s.len() as u8,
                bytes,
            })
        } else {
            Payload(Repr::Shared(Arc::from(s)))
        }
    }
}

impl From<String> for Payload {
    fn from(s: String) -> Self {
        Payload::from(s.as_str())
    }
}

impl From<&Payload> for String {
    fn from(p: &Payload) -> Self {
        p.as_str().to_owned()
    }
}

impl From<Payload> for String {
    fn from(p: Payload) -> Self {
        String::from(&p)
    }
}

impl std::ops::Deref for Payload {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Payload {}

impl PartialEq<&str> for Payload {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for Payload {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Byte for byte `String`'s encoding: a `u32` length, then the UTF-8.
impl Codec for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        let bytes = self.as_bytes();
        (bytes.len() as u32).encode(out);
        out.extend_from_slice(bytes);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        let len = u32::decode(input)? as usize;
        if input.len() < len {
            return Err(SnapshotError::Corrupt("unexpected end of input"));
        }
        let (bytes, rest) = input.split_at(len);
        *input = rest;
        let s = std::str::from_utf8(bytes).map_err(|_| SnapshotError::Corrupt("invalid utf-8"))?;
        Ok(Payload::from(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One-, two-, three- and four-byte UTF-8 characters.
    const CHARS: [char; 8] = ['a', '7', 'é', 'π', '≈', '€', '𝄞', '😀'];

    /// Checks one string against `String`: same bytes, same encoding,
    /// and a decode that consumes exactly the encoding.
    fn check_round_trip(s: &str) {
        let p = Payload::from(s);
        assert_eq!(p.as_str(), s);
        assert_eq!(p.as_bytes().len(), s.len());
        assert_eq!(p, s);
        let (mut from_payload, mut from_string) = (Vec::new(), Vec::new());
        p.encode(&mut from_payload);
        s.to_owned().encode(&mut from_string);
        assert_eq!(from_payload, from_string, "encoding of {s:?}");
        let mut input = from_string.as_slice();
        assert_eq!(Payload::decode(&mut input).unwrap(), p);
        assert!(input.is_empty(), "decode consumed exactly the encoding");
        let mut input = from_payload.as_slice();
        assert_eq!(String::decode(&mut input).unwrap(), s);
    }

    #[test]
    fn a_payload_is_the_size_of_a_string() {
        assert_eq!(
            std::mem::size_of::<Payload>(),
            std::mem::size_of::<String>()
        );
    }

    #[test]
    fn representation_follows_length_alone() {
        for n in 0..=64 {
            let p = Payload::from("x".repeat(n));
            assert_eq!(matches!(p.0, Repr::Inline { .. }), n <= INLINE_MAX, "{n}");
        }
    }

    #[test]
    fn multibyte_characters_straddling_the_inline_boundary_round_trip() {
        // Every ASCII prefix length puts each character's bytes on every
        // side of byte 22/23 in turn.
        for c in CHARS {
            for pad in 0..=INLINE_MAX + 1 {
                for tail in 0..3 {
                    let s = format!("{}{c}{}", "p".repeat(pad), "t".repeat(tail));
                    check_round_trip(&s);
                }
            }
        }
    }

    #[test]
    fn clones_compare_and_convert_like_the_string() {
        for s in [
            "",
            "k",
            &"v".repeat(INLINE_MAX),
            &"w".repeat(INLINE_MAX + 1),
        ] {
            let p = Payload::from(s);
            let q = p.clone();
            assert_eq!(p, q);
            assert_eq!(String::from(q), s);
            assert_eq!(format!("{p:?}"), format!("{s:?}"));
        }
        assert_ne!(Payload::from("a"), Payload::from("b"));
    }

    #[test]
    fn corrupt_encodings_are_refused() {
        let mut short: &[u8] = &[5, 0, 0, 0, b'a'];
        assert!(Payload::decode(&mut short).is_err());
        let mut bad: &[u8] = &[2, 0, 0, 0, 0xc3, 0x28];
        assert!(Payload::decode(&mut bad).is_err());
    }

    proptest! {
        /// Any UTF-8 string of 0–64 bytes round-trips through `Payload`
        /// and its `Codec`, encoding to exactly `String`'s bytes.
        #[test]
        fn every_short_string_round_trips_like_a_string(
            picks in prop::collection::vec(0..CHARS.len(), 0..65)
        ) {
            let mut s = String::new();
            for i in picks {
                if s.len() + CHARS[i].len_utf8() > 64 {
                    break;
                }
                s.push(CHARS[i]);
            }
            check_round_trip(&s);
        }
    }
}
