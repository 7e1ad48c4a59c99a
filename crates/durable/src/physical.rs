//! The physical image: the dense file laid out on disk *as the paper
//! describes it* — `M` consecutive fixed-size pages, records stored at
//! their page addresses.
//!
//! The snapshot format (`dsf_core::snapshot`) is a compact logical dump;
//! this module writes the **physical** layout instead: page `p` of the file
//! lives at byte offset `header + p × page_size`, holding its records
//! (length-prefixed, `Codec`-encoded) and a CRC. That buys the property the
//! whole paper is about: a key-range of records occupies a *contiguous byte
//! range of the file*, so stream retrieval is a seek plus sequential reads
//! — against the real filesystem, not a simulator.
//!
//! The header carries a **page directory** — one occupancy bit per page —
//! loaded at open time, exactly the resident metadata an ISAM install (or
//! the paper's calibrator) keeps in memory. [`PhysicalImage::stream_range`]
//! uses it to binary-search only over populated pages (O(log M) seeks, like
//! a cold ISAM probe) and then reads forward until the range ends, skipping
//! holes without touching them. [`PhysicalImage::point_read`] is the
//! comparison case — every lookup pays the positioning. The
//! `exp_physical_io` experiment measures both with real `read()` traffic.

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use dsf_core::snapshot::{fnv1a64, Codec, SnapshotError};
use dsf_core::{DenseFile, DenseFileConfig, MacroBlocking};
use dsf_pagestore::Key;

use crate::DurableError;

const MAGIC: &[u8; 8] = b"DSFPHYS2";

/// Geometry of an image, stored in its header page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageHeader {
    /// Bytes per physical page (user-chosen; typically 4096).
    pub page_size: u32,
    /// Logical slots (`M#`).
    pub slots: u32,
    /// Pages per slot (`K`).
    pub k: u32,
    /// Records per page (`D`).
    pub page_capacity: u32,
    /// `d` in user units.
    pub min_density: u32,
    /// Shift budget.
    pub j: u32,
    /// Requested page count `M`.
    pub requested_pages: u32,
    /// Maintenance algorithm (1 = CONTROL 1, 2 = CONTROL 2).
    pub algorithm: u32,
}

/// Byte-level statistics of one physical I/O operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoReport {
    /// Pages read from the image.
    pub pages_read: u64,
    /// `seek` calls issued (non-contiguous repositioning).
    pub seeks: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// `read` syscalls issued. A coalesced run of `n` pages is one call;
    /// the per-page path issues `n`.
    pub read_calls: u64,
    /// Pages written to the image.
    pub pages_written: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// `write` syscalls issued.
    pub write_calls: u64,
}

impl IoReport {
    /// Total read + write syscalls (the fell-swoop figure of merit).
    pub fn io_calls(&self) -> u64 {
        self.read_calls + self.write_calls
    }

    /// Adds another report's counters into this one.
    pub fn absorb(&mut self, other: &IoReport) {
        self.pages_read += other.pages_read;
        self.seeks += other.seeks;
        self.bytes_read += other.bytes_read;
        self.read_calls += other.read_calls;
        self.pages_written += other.pages_written;
        self.bytes_written += other.bytes_written;
        self.write_calls += other.write_calls;
    }
}

/// Pages moved per coalesced transfer: bounds run-buffer memory (with 4 KiB
/// pages a run buffer is ≤ 256 KiB) and, for range streams, the worst-case
/// over-read past the last in-range page.
const RUN_PAGES: usize = 64;

/// Lookahead for range streams, kept small because a stream stops as soon as
/// it sees a key past the range end: reading far ahead would charge pages
/// the per-page path never touches.
const STREAM_RUN_PAGES: usize = 4;

/// A dense file stored on disk in physical page layout.
#[derive(Debug)]
pub struct PhysicalImage {
    file: File,
    header: ImageHeader,
    /// Pages occupied by the header + directory.
    header_pages: u64,
    /// Populated data pages, ascending (decoded from the directory bitmap).
    populated: Vec<u64>,
    /// Whether the file handle permits `write_pages`.
    writable: bool,
    /// Lifetime I/O counters for the raw page interface (the
    /// [`dsf_pagestore::PageBackend`] impl), accumulated across calls.
    io: IoReport,
}

impl PhysicalImage {
    /// Writes `file` to `path` in physical layout with `page_size`-byte
    /// pages.
    ///
    /// # Errors
    ///
    /// Fails if any page's encoded records exceed `page_size` (choose a
    /// bigger page or a smaller `D`), or on I/O problems.
    pub fn create<K, V, P>(
        dense: &DenseFile<K, V>,
        path: P,
        page_size: u32,
    ) -> Result<Self, DurableError>
    where
        K: Key + Codec,
        V: Codec,
        P: AsRef<Path>,
    {
        let cfg = dense.config();
        let header = ImageHeader {
            page_size,
            slots: cfg.slots,
            k: cfg.k,
            page_capacity: cfg.page_capacity,
            min_density: (cfg.slot_min / u64::from(cfg.k)) as u32,
            j: cfg.j,
            requested_pages: cfg.requested_pages,
            algorithm: match cfg.algorithm {
                dsf_core::Algorithm::Control1 => 1,
                dsf_core::Algorithm::Control2 => 2,
            },
        };
        let mut out = File::create(path.as_ref())?;

        // Header: fixed fields, then the page directory (one occupancy bit
        // per data page), then a checksum over both; padded to a whole
        // number of pages.
        let total_pages = u64::from(header.slots) * u64::from(header.k);
        let mut bitmap = vec![0u8; total_pages.div_ceil(8) as usize];
        for slot in 0..cfg.slots {
            for page in 0..cfg.k {
                if !dense.store().read_page(slot, page).is_empty() {
                    let g = u64::from(slot) * u64::from(cfg.k) + u64::from(page);
                    bitmap[(g / 8) as usize] |= 1 << (g % 8);
                }
            }
        }
        let mut hbuf = Vec::with_capacity(page_size as usize);
        hbuf.extend_from_slice(MAGIC);
        for v in [
            header.page_size,
            header.slots,
            header.k,
            header.page_capacity,
            header.min_density,
            header.j,
            header.requested_pages,
            header.algorithm,
        ] {
            v.encode(&mut hbuf);
        }
        hbuf.extend_from_slice(&bitmap);
        fnv1a64(&hbuf).encode(&mut hbuf);
        let header_pages = (hbuf.len() as u64).div_ceil(u64::from(page_size)).max(1);
        if u64::from(page_size) < 64 {
            return Err(DurableError::Io(std::io::Error::other(
                "page_size below header size",
            )));
        }
        hbuf.resize((header_pages * u64::from(page_size)) as usize, 0);
        out.write_all(&hbuf)?;

        // Data pages: each physical page carries (count, records..., crc),
        // zero-padded to page_size. Pages are accumulated into run-sized
        // buffers so the image is written with one syscall per RUN_PAGES
        // pages instead of one per page.
        let mut run = Vec::with_capacity(RUN_PAGES * page_size as usize);
        for slot in 0..cfg.slots {
            for page in 0..cfg.k {
                let recs = dense.store().read_page(slot, page);
                let mut body = Vec::new();
                (recs.len() as u32).encode(&mut body);
                for rec in recs {
                    rec.key.encode(&mut body);
                    rec.value.encode(&mut body);
                }
                fnv1a64(&body).encode(&mut body);
                if body.len() > page_size as usize {
                    return Err(DurableError::Io(std::io::Error::other(format!(
                        "page {slot}/{page} needs {} bytes, page_size is {page_size}",
                        body.len()
                    ))));
                }
                body.resize(page_size as usize, 0);
                run.extend_from_slice(&body);
                if run.len() >= RUN_PAGES * page_size as usize {
                    out.write_all(&run)?;
                    run.clear();
                }
            }
        }
        if !run.is_empty() {
            out.write_all(&run)?;
        }
        out.sync_all()?;
        drop(out);
        Self::open(path)
    }

    /// Opens an image for physical reads; loads the page directory.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, DurableError> {
        let file = File::open(path.as_ref())?;
        Self::from_file(file, false)
    }

    /// Opens an image for reads *and* raw page writes (the
    /// [`dsf_pagestore::PageBackend`] interface used by a write-back buffer pool).
    pub fn open_rw<P: AsRef<Path>>(path: P) -> Result<Self, DurableError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        Self::from_file(file, true)
    }

    fn from_file(mut file: File, writable: bool) -> Result<Self, DurableError> {
        let mut fixed = vec![0u8; 8 + 8 * 4];
        file.read_exact(&mut fixed)?;
        if &fixed[..8] != MAGIC {
            return Err(DurableError::Snapshot(SnapshotError::BadMagic));
        }
        let mut input = &fixed[8..];
        let mut fields = [0u32; 8];
        for f in &mut fields {
            *f = u32::decode(&mut input).map_err(DurableError::Snapshot)?;
        }
        let header = ImageHeader {
            page_size: fields[0],
            slots: fields[1],
            k: fields[2],
            page_capacity: fields[3],
            min_density: fields[4],
            j: fields[5],
            requested_pages: fields[6],
            algorithm: fields[7],
        };
        if header.algorithm != 1 && header.algorithm != 2 {
            return Err(DurableError::Snapshot(SnapshotError::Corrupt(
                "unknown algorithm",
            )));
        }
        if header.page_size < 64 {
            return Err(DurableError::Snapshot(SnapshotError::Corrupt(
                "tiny page_size",
            )));
        }
        let total_pages = u64::from(header.slots) * u64::from(header.k);
        let mut bitmap = vec![0u8; total_pages.div_ceil(8) as usize];
        file.read_exact(&mut bitmap)?;
        let mut crc_bytes = [0u8; 8];
        file.read_exact(&mut crc_bytes)?;
        let stored = u64::from_le_bytes(crc_bytes);
        let mut hashed = fixed.clone();
        hashed.extend_from_slice(&bitmap);
        if fnv1a64(&hashed) != stored {
            return Err(DurableError::Snapshot(SnapshotError::ChecksumMismatch));
        }
        let header_len = fixed.len() as u64 + bitmap.len() as u64 + 8;
        let header_pages = header_len.div_ceil(u64::from(header.page_size)).max(1);
        let populated: Vec<u64> = (0..total_pages)
            .filter(|&g| bitmap[(g / 8) as usize] & (1 << (g % 8)) != 0)
            .collect();
        Ok(PhysicalImage {
            file,
            header,
            header_pages,
            populated,
            writable,
            io: IoReport::default(),
        })
    }

    /// The image geometry.
    pub fn header(&self) -> ImageHeader {
        self.header
    }

    /// Total physical pages of the image (excluding the header page).
    pub fn pages(&self) -> u64 {
        u64::from(self.header.slots) * u64::from(self.header.k)
    }

    fn page_offset(&self, page: u64) -> u64 {
        (self.header_pages + page) * u64::from(self.header.page_size)
    }

    /// Reads `n` consecutive raw pages starting at `first` in **one fell
    /// swoop**: at most one seek plus exactly one read syscall.
    fn read_pages_raw(
        &mut self,
        first: u64,
        n: usize,
        report: &mut IoReport,
        expect_seek: bool,
    ) -> Result<Vec<u8>, DurableError> {
        let ps = self.header.page_size as usize;
        if expect_seek {
            self.file.seek(SeekFrom::Start(self.page_offset(first)))?;
            report.seeks += 1;
        }
        let mut buf = vec![0u8; n * ps];
        self.file.read_exact(&mut buf)?;
        report.read_calls += 1;
        report.pages_read += n as u64;
        report.bytes_read += (n * ps) as u64;
        Ok(buf)
    }

    /// Decodes one raw page image into its records, verifying the page CRC.
    fn decode_page<K: Key + Codec, V: Codec>(
        buf: &[u8],
        page_capacity: u32,
    ) -> Result<Vec<(K, V)>, DurableError> {
        let mut input = buf;
        let n = u32::decode(&mut input).map_err(DurableError::Snapshot)?;
        if n > page_capacity + 1 {
            return Err(DurableError::Snapshot(SnapshotError::Corrupt(
                "page over-full",
            )));
        }
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let k = K::decode(&mut input).map_err(DurableError::Snapshot)?;
            let v = V::decode(&mut input).map_err(DurableError::Snapshot)?;
            out.push((k, v));
        }
        // Verify the page CRC over the consumed prefix.
        let consumed = buf.len() - input.len();
        let stored = u64::decode(&mut input).map_err(DurableError::Snapshot)?;
        if fnv1a64(&buf[..consumed]) != stored {
            return Err(DurableError::Snapshot(SnapshotError::ChecksumMismatch));
        }
        Ok(out)
    }

    /// Reads one physical page's records.
    fn read_page<K: Key + Codec, V: Codec>(
        &mut self,
        page: u64,
        report: &mut IoReport,
        expect_seek: bool,
    ) -> Result<Vec<(K, V)>, DurableError> {
        let buf = self.read_pages_raw(page, 1, report, expect_seek)?;
        Self::decode_page(&buf, self.header.page_capacity)
    }

    /// First key of populated page index `i` (one seek + read).
    fn populated_min<K: Key + Codec, V: Codec>(
        &mut self,
        i: usize,
        report: &mut IoReport,
    ) -> Result<K, DurableError> {
        let page = self.populated[i];
        self.read_page::<K, V>(page, report, true)?
            .first()
            .map(|(k, _)| *k)
            .ok_or(DurableError::Snapshot(SnapshotError::Corrupt(
                "directory bit set on an empty page",
            )))
    }

    /// Streams every record with key in `[lo, hi]` straight off the disk:
    /// an O(log M)-probe positioning phase, then strictly forward reads.
    pub fn stream_range<K: Key + Codec, V: Codec>(
        &mut self,
        lo: K,
        hi: K,
    ) -> Result<(Vec<(K, V)>, IoReport), DurableError> {
        let mut report = IoReport::default();
        let n = self.populated.len();
        if n == 0 {
            return Ok((Vec::new(), report));
        }
        // Binary search over the populated pages (the directory is resident
        // metadata, like the calibrator) for the last one whose min key is
        // ≤ lo: exactly O(log n) probes, no empty page ever touched.
        let (mut a, mut b) = (0usize, n);
        let mut start = 0usize;
        while a < b {
            let mid = a + (b - a) / 2;
            if self.populated_min::<K, V>(mid, &mut report)? <= lo {
                start = mid;
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        // Forward sweep over populated pages, coalesced: each maximal
        // stretch of physically contiguous populated pages (capped at
        // STREAM_RUN_PAGES of lookahead) is read with one syscall, and
        // contiguous successor runs continue without a seek.
        let ps = self.header.page_size as usize;
        let mut out = Vec::new();
        let mut prev_page: Option<u64> = None;
        let mut i = start;
        'sweep: while i < n {
            let first = self.populated[i];
            let mut j = i + 1;
            while j < n
                && j - i < STREAM_RUN_PAGES
                && self.populated[j] == self.populated[j - 1] + 1
            {
                j += 1;
            }
            let seek = prev_page != Some(first.wrapping_sub(1));
            let buf = self.read_pages_raw(first, j - i, &mut report, seek)?;
            prev_page = Some(first + (j - i) as u64 - 1);
            for page_buf in buf.chunks_exact(ps) {
                let recs = Self::decode_page::<K, V>(page_buf, self.header.page_capacity)?;
                for (k, v) in recs {
                    if k > hi {
                        break 'sweep;
                    }
                    if k >= lo {
                        out.push((k, v));
                    }
                }
            }
            i = j;
        }
        Ok((out, report))
    }

    /// Looks up one key with a cold binary search over pages — the
    /// random-access comparison case for [`PhysicalImage::stream_range`].
    pub fn point_read<K: Key + Codec, V: Codec>(
        &mut self,
        key: K,
    ) -> Result<(Option<V>, IoReport), DurableError> {
        let (found, mut report) = self.stream_range::<K, V>(key, key)?;
        let v = found.into_iter().next().map(|(_, v)| v);
        // A point read's sweep is at most a page or two; fold it in.
        report.seeks = report.seeks.max(1);
        Ok((v, report))
    }

    /// Loads the whole image back into an in-memory dense file (geometry
    /// and contents; flags re-derived), verifying every page CRC.
    pub fn load<K: Key + Codec, V: Codec>(&mut self) -> Result<DenseFile<K, V>, DurableError> {
        let h = self.header;
        let mut config =
            DenseFileConfig::control2(h.requested_pages, h.min_density, h.page_capacity)
                .with_j(h.j)
                .with_macro_blocking(MacroBlocking::Force(h.k));
        config.algorithm = if h.algorithm == 1 {
            dsf_core::Algorithm::Control1
        } else {
            dsf_core::Algorithm::Control2
        };
        let mut file: DenseFile<K, V> = DenseFile::new(config)?;
        let mut layout: Vec<Vec<(K, V)>> = (0..h.slots).map(|_| Vec::new()).collect();
        let mut report = IoReport::default();
        // One initial seek, then the whole image streams in RUN_PAGES-sized
        // reads: ceil(M / RUN_PAGES) syscalls instead of M.
        let total = self.pages();
        let ps = h.page_size as usize;
        let mut page = 0u64;
        let mut first_read = true;
        while page < total {
            let n = RUN_PAGES.min((total - page) as usize);
            let buf = self.read_pages_raw(page, n, &mut report, first_read)?;
            first_read = false;
            for page_buf in buf.chunks_exact(ps) {
                let slot = (page / u64::from(h.k)) as usize;
                layout[slot].extend(Self::decode_page::<K, V>(page_buf, h.page_capacity)?);
                page += 1;
            }
        }
        file.bulk_load_per_slot(layout)
            .map_err(DurableError::File)?;
        Ok(file)
    }

    // ------------------------------------------------------------------
    // Raw page interface (the `PageBackend` impl): whole raw page images,
    // one seek + one syscall per run, counters accumulated in `self.io`.
    // ------------------------------------------------------------------

    /// Lifetime I/O counters of the raw page interface.
    pub fn io_totals(&self) -> IoReport {
        self.io
    }

    /// Resets the raw-interface counters.
    pub fn reset_io(&mut self) {
        self.io = IoReport::default();
    }

    /// Reads `buf.len() / page_size` consecutive raw page images starting
    /// at data page `first` with one seek + one read syscall.
    pub fn read_pages(&mut self, first: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let ps = self.header.page_size as usize;
        assert_eq!(buf.len() % ps, 0, "partial-page read");
        let n = (buf.len() / ps) as u64;
        if first + n > self.pages() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "page run past end of image",
            ));
        }
        self.file.seek(SeekFrom::Start(self.page_offset(first)))?;
        self.file.read_exact(buf)?;
        self.io.seeks += 1;
        self.io.read_calls += 1;
        self.io.pages_read += n;
        self.io.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Writes `data.len() / page_size` consecutive raw page images starting
    /// at data page `first` with one seek + one write syscall.
    ///
    /// This is a frame-level interface (for a write-back buffer pool): it
    /// replaces page images wholesale and does **not** update the page
    /// directory, so only pages already marked populated should gain
    /// records this way. Requires [`PhysicalImage::open_rw`].
    pub fn write_pages(&mut self, first: u64, data: &[u8]) -> std::io::Result<()> {
        if !self.writable {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "image opened read-only; use open_rw",
            ));
        }
        let ps = self.header.page_size as usize;
        assert_eq!(data.len() % ps, 0, "partial-page write");
        let n = (data.len() / ps) as u64;
        if first + n > self.pages() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "page run past end of image",
            ));
        }
        self.file.seek(SeekFrom::Start(self.page_offset(first)))?;
        self.file.write_all(data)?;
        self.io.seeks += 1;
        self.io.write_calls += 1;
        self.io.pages_written += n;
        self.io.bytes_written += data.len() as u64;
        Ok(())
    }

    /// Flushes raw page writes to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

impl dsf_pagestore::PageBackend for PhysicalImage {
    fn page_size(&self) -> usize {
        self.header.page_size as usize
    }

    fn read_run(&mut self, first_page: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.read_pages(first_page, buf)
    }

    fn write_run(&mut self, first_page: u64, data: &[u8]) -> std::io::Result<()> {
        self.write_pages(first_page, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temppath(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dsf-phys-{tag}-{}-{:?}.img",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample_file() -> DenseFile<u64, u64> {
        let mut f = DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
        f.bulk_load((0..400u64).map(|i| (i * 7, i))).unwrap();
        for i in 0..100u64 {
            f.insert(i * 7 + 3, 1000 + i).unwrap();
        }
        f
    }

    #[test]
    fn image_round_trip() {
        let path = temppath("roundtrip");
        let f = sample_file();
        let mut img = PhysicalImage::create(&f, &path, 4096).unwrap();
        assert_eq!(img.pages(), 64);
        let g: DenseFile<u64, u64> = img.load().unwrap();
        assert_eq!(g.len(), f.len());
        let a: Vec<(u64, u64)> = f.iter().map(|(k, v)| (*k, *v)).collect();
        let b: Vec<(u64, u64)> = g.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(a, b);
        g.check_invariants().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stream_range_reads_the_right_records_with_few_seeks() {
        let path = temppath("stream");
        let f = sample_file();
        let mut img = PhysicalImage::create(&f, &path, 4096).unwrap();
        let (got, report) = img.stream_range::<u64, u64>(700, 1400).unwrap();
        let want: Vec<(u64, u64)> = f.range(700..=1400).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
        // Positioning costs O(log M) seeks; the sweep itself none.
        assert!(report.seeks <= 10, "seeks {}", report.seeks);
        assert!(report.pages_read < 30, "pages {}", report.pages_read);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn point_reads_hit_and_miss() {
        let path = temppath("point");
        let f = sample_file();
        let mut img = PhysicalImage::create(&f, &path, 4096).unwrap();
        let (v, _) = img.point_read::<u64, u64>(14).unwrap();
        assert_eq!(v, Some(2));
        let (v, _) = img.point_read::<u64, u64>(15).unwrap();
        assert_eq!(v, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_too_small_is_rejected() {
        let path = temppath("tiny");
        let f = sample_file();
        let err = PhysicalImage::create(&f, &path, 64).unwrap_err();
        assert!(matches!(err, DurableError::Io(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_pages_are_detected() {
        let path = temppath("corrupt");
        let f = sample_file();
        PhysicalImage::create(&f, &path, 4096).unwrap();
        // Flip a byte in the middle of some data page.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        // Keep flipping until we actually hit a non-padding byte region...
        // simpler: flip the first byte of page 1's body.
        bytes[4096 + 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let mut img = PhysicalImage::open(&path).unwrap();
        assert!(img.load::<u64, u64>().is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_corruption_is_detected() {
        let path = temppath("hdr");
        let f = sample_file();
        PhysicalImage::create(&f, &path, 4096).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xff; // inside the header fields
        std::fs::write(&path, &bytes).unwrap();
        assert!(PhysicalImage::open(&path).is_err());
        bytes[10] ^= 0xff;
        bytes[0] = b'X'; // magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(PhysicalImage::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn algorithm_round_trips() {
        let path = temppath("alg");
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control1(32, 4, 24)).unwrap();
        f.bulk_load((0..50u64).map(|i| (i, i))).unwrap();
        let mut img = PhysicalImage::create(&f, &path, 2048).unwrap();
        let g: DenseFile<u64, u64> = img.load().unwrap();
        assert_eq!(g.config().algorithm, dsf_core::Algorithm::Control1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn macro_block_images_round_trip() {
        let path = temppath("macro");
        let mut f: DenseFile<u64, u64> =
            DenseFile::new(DenseFileConfig::control2(64, 6, 8)).unwrap();
        assert!(f.config().k > 1);
        f.bulk_load((0..200u64).map(|i| (i * 3, i))).unwrap();
        let mut img = PhysicalImage::create(&f, &path, 1024).unwrap();
        let g: DenseFile<u64, u64> = img.load().unwrap();
        assert_eq!(g.config().k, f.config().k);
        assert_eq!(g.len(), 200);
        let (got, _) = img.stream_range::<u64, u64>(90, 150).unwrap();
        let want: Vec<(u64, u64)> = f.range(90..=150).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        std::fs::remove_file(&path).ok();
    }
}
