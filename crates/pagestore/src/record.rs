//! Record and key abstractions shared by every structure in the workspace.

use std::fmt;

/// Marker trait for key types usable in the dense sequential file and its
/// comparators.
///
/// Keys must be totally ordered (`Ord`), cheap to copy (`Copy`) — they are
/// mirrored into the in-memory calibrator tree as search fingers — and
/// printable for diagnostics. A blanket implementation covers every type
/// with those bounds, so `u64`, `i32`, `[u8; 16]`, tuples of such, etc. all
/// work out of the box.
pub trait Key: Ord + Copy + fmt::Debug {}

impl<T: Ord + Copy + fmt::Debug> Key for T {}

/// A single record: a key plus an opaque payload.
///
/// The paper treats records as atomic units moved between pages; payloads
/// are never inspected by any maintenance algorithm.
#[derive(Debug, PartialEq, Eq)]
pub struct Record<K, V> {
    /// Search key; unique within a file.
    pub key: K,
    /// Opaque payload carried along with the key.
    pub value: V,
}

impl<K: Clone, V: Clone> Clone for Record<K, V> {
    fn clone(&self) -> Self {
        Record {
            key: self.key.clone(),
            value: self.value.clone(),
        }
    }

    /// Field-wise, so refilling a record reuses the payload's heap buffer
    /// (a `String` or `Vec` value is copied in place, not reallocated).
    fn clone_from(&mut self, source: &Self) {
        self.key.clone_from(&source.key);
        self.value.clone_from(&source.value);
    }
}

impl<K, V> Record<K, V> {
    /// Creates a record from its parts.
    pub fn new(key: K, value: V) -> Self {
        Record { key, value }
    }

    /// Splits the record back into its parts.
    pub fn into_parts(self) -> (K, V) {
        (self.key, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_from_reuses_the_value_buffer() {
        let mut dst = Record::new(1u64, String::with_capacity(64));
        let buf = dst.value.as_ptr();
        dst.clone_from(&Record::new(2, "refilled".to_string()));
        assert_eq!(dst, Record::new(2, "refilled".to_string()));
        assert_eq!(dst.value.as_ptr(), buf, "payload copied in place");
    }

    #[test]
    fn record_round_trip() {
        let r = Record::new(7u64, "payload");
        assert_eq!(r.key, 7);
        assert_eq!(r.value, "payload");
        let (k, v) = r.into_parts();
        assert_eq!((k, v), (7, "payload"));
    }

    #[test]
    fn key_trait_blanket_impl_covers_common_types() {
        fn assert_key<K: Key>() {}
        assert_key::<u64>();
        assert_key::<i64>();
        assert_key::<(u32, u16)>();
        assert_key::<[u8; 8]>();
        assert_key::<char>();
    }
}
