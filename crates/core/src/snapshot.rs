//! Snapshot persistence: serialize a dense file to bytes and back.
//!
//! A snapshot captures the file's geometry (`M`, `d`, `D`, `J`, `K`,
//! algorithm) and every slot's records in address order, framed by a magic
//! header and an [`fnv1a64`] checksum. Loading rebuilds the calibrator from
//! the slot contents and re-runs the activation scan, so the warning-flag
//! state is legal without being persisted (flags and `DEST` pointers are
//! derived bookkeeping; BALANCE — which *is* required of a valid snapshot —
//! holds at the end of every command, hence at every save point, and is
//! re-verified on load).
//!
//! Snapshots are offline operations: they read the store through uncounted
//! access and charge no page accesses, like any bulk build.

use std::io::{Read, Write};

use dsf_pagestore::{Key, Record};

use crate::config::{Algorithm, DenseFileConfig, MacroBlocking, ResolvedConfig};
use crate::error::DsfError;
use crate::file::DenseFile;
use crate::readview::{ReadConflict, ReadView};

const MAGIC: &[u8; 4] = b"DSF1";
const VERSION: u32 = 1;

/// Errors raised by snapshot encode/decode.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unsupported format version.
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The input ended early or a field was malformed.
    Corrupt(&'static str),
    /// The checksum over the payload does not match.
    ChecksumMismatch,
    /// The decoded contents were rejected by the file loader (e.g. the
    /// snapshot violates BALANCE or ordering — a corrupted or forged file).
    Rejected(DsfError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a dense-file snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (supported: {VERSION})"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Rejected(e) => write!(f, "snapshot contents rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Fixed-size little-endian encoding for snapshot fields.
///
/// Implemented for the primitive key/value types a dense file typically
/// stores; implement it for your own types to snapshot them.
pub trait Codec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError>;
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], SnapshotError> {
    if input.len() < n {
        return Err(SnapshotError::Corrupt("unexpected end of input"));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact length")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, SnapshotError> {
        Ok(())
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        match take(input, 1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("invalid bool")),
        }
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt("invalid utf-8"))
    }
}

impl Codec for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        let len = u32::decode(input)? as usize;
        Ok(take(input, len)?.to_vec())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<const N: usize> Codec for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        let bytes = take(input, N)?;
        Ok(bytes.try_into().expect("exact length"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, SnapshotError> {
        match take(input, 1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            _ => Err(SnapshotError::Corrupt("invalid option tag")),
        }
    }
}

/// The checksum used by every on-disk format in this workspace
/// (snapshots, WAL frames, physical images): FNV-1a's 64-bit offset basis
/// and xor-then-multiply loop, but with the multiplier `0x1000_0000_01b3`
/// (2^44 + 0x1b3) where FNV-1a's 64-bit prime is `0x100_0000_01b3`
/// (2^40 + 0x1b3). It is therefore *not* FNV-1a, and a standard FNV-1a
/// reader rejects every checksum. The multiplier stays: changing it would
/// invalidate every existing snapshot, log and image.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an [`fnv1a64`] hash `h` over more bytes, so a checksum of
/// parts held apart needs no copy: `fnv1a64_continue(fnv1a64(a), b)` is
/// `fnv1a64` of `a` followed by `b`.
pub fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Encodes a complete snapshot (header + per-slot records + checksum) from
/// a configuration and the slot contents in address order. The single
/// encoder behind both [`DenseFile::write_snapshot`] and
/// [`ReadView::try_snapshot_bytes`], so the two are byte-identical by
/// construction whenever they see the same slot contents.
fn encode_snapshot<'a, K, V, I>(cfg: &ResolvedConfig, slot_contents: I) -> Vec<u8>
where
    K: Key + Codec + 'a,
    V: Codec + 'a,
    I: Iterator<Item = &'a [Record<K, V>]>,
{
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);
    VERSION.encode(&mut buf);
    let alg: u8 = match cfg.algorithm {
        Algorithm::Control1 => 1,
        Algorithm::Control2 => 2,
    };
    alg.encode(&mut buf);
    cfg.requested_pages.encode(&mut buf);
    // d and D in user units (records per physical page).
    ((cfg.slot_min / u64::from(cfg.k)) as u32).encode(&mut buf);
    cfg.page_capacity.encode(&mut buf);
    cfg.j.encode(&mut buf);
    cfg.k.encode(&mut buf);
    cfg.slots.encode(&mut buf);
    let mut written = 0u32;
    for recs in slot_contents {
        (recs.len() as u32).encode(&mut buf);
        for rec in recs {
            rec.key.encode(&mut buf);
            rec.value.encode(&mut buf);
        }
        written += 1;
    }
    debug_assert_eq!(written, cfg.slots, "one entry per slot");
    fnv1a64(&buf).encode(&mut buf);
    buf
}

impl<K: Key + Codec, V: Codec + Clone> ReadView<K, V> {
    /// Serializes the latest published generation to snapshot bytes —
    /// **without** taking any file lock.
    ///
    /// Every cell is captured inside one epoch-validated window, so the
    /// result is byte-identical to what [`DenseFile::write_snapshot`] would
    /// produce at that batch boundary (mid-command and mid-batch states
    /// are never published). Under sustained concurrent mutation the window may lose
    /// every retry; the caller then falls back to a locked snapshot.
    pub fn try_snapshot_bytes(&self) -> Result<Vec<u8>, ReadConflict> {
        let cells = self.collect_all_cells()?;
        let cfg = self.inner.cfg;
        Ok(encode_snapshot(&cfg, cells.iter().map(|a| a.as_slice())))
    }
}

impl<K: Key + Codec, V: Codec> DenseFile<K, V> {
    /// Serializes the file (geometry + contents) to `w`.
    pub fn write_snapshot<W: Write>(&self, w: &mut W) -> Result<(), SnapshotError> {
        let buf = encode_snapshot(
            &self.cfg,
            (0..self.cfg.slots).map(|s| self.store.peek_slot(s)),
        );
        w.write_all(&buf)?;
        Ok(())
    }

    /// Reconstructs a file from a snapshot produced by
    /// [`DenseFile::write_snapshot`].
    pub fn read_snapshot<R: Read>(r: &mut R) -> Result<Self, SnapshotError> {
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        if buf.len() < MAGIC.len() + 8 {
            return Err(SnapshotError::Corrupt("too short"));
        }
        let (payload, tail) = buf.split_at(buf.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("eight bytes"));
        if fnv1a64(payload) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut input = payload;
        if take(&mut input, 4)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::decode(&mut input)?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        let alg = match u8::decode(&mut input)? {
            1 => Algorithm::Control1,
            2 => Algorithm::Control2,
            _ => return Err(SnapshotError::Corrupt("unknown algorithm")),
        };
        let pages = u32::decode(&mut input)?;
        let d = u32::decode(&mut input)?;
        let big_d = u32::decode(&mut input)?;
        let j = u32::decode(&mut input)?;
        let k = u32::decode(&mut input)?;
        let slots = u32::decode(&mut input)?;

        let mut config = DenseFileConfig::control2(pages, d, big_d)
            .with_j(j)
            .with_macro_blocking(MacroBlocking::Force(k));
        config.algorithm = alg;
        let mut file = DenseFile::new(config).map_err(SnapshotError::Rejected)?;
        if file.config().slots != slots {
            return Err(SnapshotError::Corrupt("slot count disagrees with geometry"));
        }

        let mut layout: Vec<Vec<(K, V)>> = Vec::with_capacity(slots as usize);
        for _ in 0..slots {
            let n = u32::decode(&mut input)? as usize;
            let mut recs = Vec::with_capacity(n);
            for _ in 0..n {
                let key = K::decode(&mut input)?;
                let value = V::decode(&mut input)?;
                recs.push((key, value));
            }
            layout.push(recs);
        }
        if !input.is_empty() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        // bulk_load_per_slot re-validates ordering, per-slot bounds and
        // BALANCE, then re-derives the flag state.
        file.bulk_load_per_slot(layout)
            .map_err(SnapshotError::Rejected)?;
        Ok(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DenseFileConfig;

    #[test]
    fn checksum_values_are_pinned() {
        // The on-disk formats depend on these exact values; a "fix" to the
        // standard FNV-1a prime would turn the last two into
        // 0xaf63_dc4c_8601_ec8c and 0x664b_fd3a_b19a_8bea.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(fnv1a64(b"willard-dsf"), 0xc41c_883a_b19a_8bea);
        assert_eq!(
            fnv1a64_continue(fnv1a64(b"willard"), b"-dsf"),
            fnv1a64(b"willard-dsf")
        );
    }

    fn loaded() -> DenseFile<u64, u64> {
        let mut f = DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
        f.bulk_load((0..250u64).map(|i| (i * 7, i))).unwrap();
        for i in 0..100u64 {
            f.insert(i * 7 + 3, 1000 + i).unwrap();
        }
        for i in (0..250u64).step_by(3) {
            f.remove(&(i * 7));
        }
        f
    }

    #[test]
    fn round_trip_preserves_contents_and_geometry() {
        let f = loaded();
        let mut bytes = Vec::new();
        f.write_snapshot(&mut bytes).unwrap();
        let g: DenseFile<u64, u64> = DenseFile::read_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(g.len(), f.len());
        assert_eq!(g.config().slots, f.config().slots);
        assert_eq!(g.config().j, f.config().j);
        assert_eq!(g.config().k, f.config().k);
        assert_eq!(g.config().algorithm, f.config().algorithm);
        let a: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<(u64, u64)> = g.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
        g.check_invariants().unwrap();
    }

    #[test]
    fn read_view_snapshot_is_byte_identical() {
        let mut f = loaded();
        let view = f.enable_optimistic_reads();
        // More mutations after enabling: the published generation must track
        // the file exactly at every command boundary.
        for i in 0..40u64 {
            f.insert(9000 + i * 2, i).unwrap();
        }
        for i in (0..100u64).step_by(4) {
            f.remove(&(i * 7 + 3));
        }
        let mut locked = Vec::new();
        f.write_snapshot(&mut locked).unwrap();
        let optimistic = view.try_snapshot_bytes().unwrap();
        assert_eq!(locked, optimistic);
        // And the bytes restore to a working file.
        let g: DenseFile<u64, u64> = DenseFile::read_snapshot(&mut optimistic.as_slice()).unwrap();
        assert_eq!(g.len(), f.len());
        g.check_invariants().unwrap();
    }

    #[test]
    fn read_view_snapshot_declines_on_poisoned_epoch() {
        let mut f = loaded();
        let view = f.enable_optimistic_reads();
        view.poison_epoch_for_test();
        assert!(view.try_snapshot_bytes().is_err());
        view.unpoison_epoch_for_test();
        assert!(view.try_snapshot_bytes().is_ok());
    }

    #[test]
    fn restored_file_keeps_working() {
        let f = loaded();
        let mut bytes = Vec::new();
        f.write_snapshot(&mut bytes).unwrap();
        let mut g: DenseFile<u64, u64> = DenseFile::read_snapshot(&mut bytes.as_slice()).unwrap();
        for i in 5000..5100u64 {
            g.insert(i, i).unwrap();
        }
        g.check_invariants().unwrap();
        assert_eq!(g.range(5000..5100).count(), 100);
    }

    #[test]
    fn macro_block_round_trip() {
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
        assert!(f.config().k > 1);
        f.bulk_load((0..200u64).map(|i| (i, i))).unwrap();
        let mut bytes = Vec::new();
        f.write_snapshot(&mut bytes).unwrap();
        let g: DenseFile<u64, u64> = DenseFile::read_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(g.config().k, f.config().k);
        assert_eq!(g.len(), 200);
        g.check_invariants().unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let f = loaded();
        let mut bytes = Vec::new();
        f.write_snapshot(&mut bytes).unwrap();

        // Flip a payload byte: checksum catches it.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        assert!(matches!(
            DenseFile::<u64, u64>::read_snapshot(&mut bad.as_slice()),
            Err(SnapshotError::ChecksumMismatch)
        ));

        // Truncation.
        let short = &bytes[..bytes.len() / 2];
        assert!(DenseFile::<u64, u64>::read_snapshot(&mut &short[..]).is_err());

        // Wrong magic (with a recomputed checksum, so the magic check fires).
        let mut forged = bytes.clone();
        forged[0] = b'X';
        let body_len = forged.len() - 8;
        let sum = fnv1a64(&forged[..body_len]);
        forged.truncate(body_len);
        sum.encode(&mut forged);
        assert!(matches!(
            DenseFile::<u64, u64>::read_snapshot(&mut forged.as_slice()),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn string_and_bytes_payloads() {
        let mut f: DenseFile<u64, String> =
            DenseFile::new(DenseFileConfig::control2(16, 4, 24)).unwrap();
        for i in 0..40u64 {
            f.insert(i, format!("value-{i}-αβγ")).unwrap();
        }
        let mut bytes = Vec::new();
        f.write_snapshot(&mut bytes).unwrap();
        let g: DenseFile<u64, String> = DenseFile::read_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(g.get(&7), Some(&"value-7-αβγ".to_string()));
        assert_eq!(g.len(), 40);
    }

    #[test]
    fn codec_primitives_round_trip() {
        let mut out = Vec::new();
        42u8.encode(&mut out);
        7u16.encode(&mut out);
        (-5i64).encode(&mut out);
        true.encode(&mut out);
        "hej".to_string().encode(&mut out);
        (1u32, 2u64).encode(&mut out);
        vec![1u8, 2, 3].encode(&mut out);
        let mut input = out.as_slice();
        assert_eq!(u8::decode(&mut input).unwrap(), 42);
        assert_eq!(u16::decode(&mut input).unwrap(), 7);
        assert_eq!(i64::decode(&mut input).unwrap(), -5);
        assert!(bool::decode(&mut input).unwrap());
        assert_eq!(String::decode(&mut input).unwrap(), "hej");
        assert_eq!(<(u32, u64)>::decode(&mut input).unwrap(), (1, 2));
        assert_eq!(Vec::<u8>::decode(&mut input).unwrap(), vec![1, 2, 3]);
        assert!(input.is_empty());

        let mut out = Vec::new();
        [9u8; 4].encode(&mut out);
        Some(7u32).encode(&mut out);
        Option::<u32>::None.encode(&mut out);
        (1u8, 2u16, 3u32).encode(&mut out);
        let mut input = out.as_slice();
        assert_eq!(<[u8; 4]>::decode(&mut input).unwrap(), [9u8; 4]);
        assert_eq!(Option::<u32>::decode(&mut input).unwrap(), Some(7));
        assert_eq!(Option::<u32>::decode(&mut input).unwrap(), None);
        assert_eq!(<(u8, u16, u32)>::decode(&mut input).unwrap(), (1, 2, 3));
        assert!(input.is_empty());
        // Decoding past the end fails cleanly.
        assert!(u64::decode(&mut input).is_err());
    }

    #[test]
    fn file_snapshot_via_filesystem() {
        let f = loaded();
        let path = std::env::temp_dir().join("dsf_snapshot_test.dsf");
        {
            let mut file = std::fs::File::create(&path).unwrap();
            f.write_snapshot(&mut file).unwrap();
        }
        let mut file = std::fs::File::open(&path).unwrap();
        let g: DenseFile<u64, u64> = DenseFile::read_snapshot(&mut file).unwrap();
        assert_eq!(g.len(), f.len());
        std::fs::remove_file(&path).ok();
    }
}
