//! The filesystem boundary of the durability layer, made swappable.
//!
//! [`DurableFile`](crate::DurableFile) performs every filesystem effect —
//! creating files, appending to the log, fsyncing, the checkpoint
//! temp-file rename — through the [`Vfs`] trait. Production code uses
//! [`StdFs`] (a zero-cost shim over `std::fs`); the crash-consistency
//! harness uses [`FaultFs`], a deterministic fault-injecting in-memory
//! filesystem that models the gap between *visible* state (what syscalls
//! observe) and *durable* state (what survives a power failure).
//!
//! ## The fault model
//!
//! `FaultFs` counts every mutating syscall and consults a seeded
//! [`FaultPlan`]:
//!
//! * **transient `EIO`** — the scheduled syscall fails with no effect and
//!   the filesystem keeps working; the caller may retry;
//! * **crash** — the scheduled syscall fails after a *seeded partial
//!   effect* (a write applies an arbitrary byte prefix — a torn write) and
//!   every later syscall fails until [`FaultFs::power_cycle`];
//! * **power cycle** — un-fsynced data is lost adversarially: each file
//!   reverts to its durable image plus a seeded prefix of whatever
//!   unsynced suffix was visible, so a torn log tail can land at *any*
//!   byte boundary. Renames are atomic: a rename not yet made durable by a
//!   directory fsync simply has not happened.
//!
//! Content becomes durable on `sync_data`/`sync_all` of the file; a rename
//! becomes durable on `sync_dir` of the parent. (One simplification
//! relative to POSIX: fsyncing a freshly created file also makes its
//! directory entry durable. The WAL only ever creates fresh files at
//! already-durable names or renames over them, so no code path depends on
//! the difference.)

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An open writable file handle of a [`Vfs`].
pub trait VfsFile: Write {
    /// Flushes the file's data (and enough metadata to read it back) to
    /// stable storage.
    fn sync_data(&mut self) -> io::Result<()>;

    /// Flushes the file's data and all metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;

    /// Truncates (or zero-extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Positions the write cursor at the end of the file; returns the
    /// file's length.
    fn seek_end(&mut self) -> io::Result<u64>;
}

/// The filesystem operations the durability layer needs.
pub trait Vfs: Clone {
    /// The writable file handle type.
    type File: VfsFile;

    /// The sequential reader [`open_read`](Vfs::open_read) returns.
    type Reader: Read;

    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Whether `path` names an existing file.
    fn exists(&self, path: &Path) -> bool;

    /// Opens the file at `path` for one buffered front-to-back read.
    fn open_read(&self, path: &Path) -> io::Result<Self::Reader>;

    /// Creates (truncating if present) `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Self::File>;

    /// Opens `path` for writing without truncation, creating it if absent.
    fn open_rw(&self, path: &Path) -> io::Result<Self::File>;

    /// Atomically renames `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsyncs the directory at `dir`, making renames within it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// StdFs: the real filesystem.
// ---------------------------------------------------------------------

/// The production [`Vfs`]: plain `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl VfsFile for std::fs::File {
    fn sync_data(&mut self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        use std::io::Seek;
        self.seek(io::SeekFrom::End(0))
    }
}

impl Vfs for StdFs {
    type File = std::fs::File;
    type Reader = io::BufReader<std::fs::File>;

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn open_read(&self, path: &Path) -> io::Result<Self::Reader> {
        std::fs::File::open(path).map(io::BufReader::new)
    }

    fn create(&self, path: &Path) -> io::Result<Self::File> {
        std::fs::File::create(path)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Self::File> {
        std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Best effort: platforms that refuse to open directories still
        // order the rename; swallow the open failure like the pre-Vfs code.
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// FaultFs: the deterministic fault-injecting filesystem.
// ---------------------------------------------------------------------

/// The kind of a counted syscall, recorded so a harness can check which
/// code paths its crash points actually landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyscallKind {
    /// Truncating create (`Vfs::create`).
    Create,
    /// Non-truncating writable open (`Vfs::open_rw`).
    OpenRw,
    /// Opening a file for reading (`Vfs::open_read`); the read that
    /// follows is not counted again.
    ReadFile,
    /// A `write` on an open handle.
    Write,
    /// `sync_data` on an open handle.
    SyncData,
    /// `sync_all` on an open handle.
    SyncAll,
    /// `set_len` on an open handle.
    SetLen,
    /// `Vfs::rename`.
    Rename,
    /// `Vfs::sync_dir`.
    SyncDir,
}

/// A seeded schedule of faults for one [`FaultFs`] run.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash on the Nth counted syscall (1-based): the syscall applies a
    /// seeded partial effect, then fails, and the filesystem is dead until
    /// [`FaultFs::power_cycle`].
    pub crash_at: Option<u64>,
    /// Syscall ordinals (1-based) that fail with transient `EIO` and **no
    /// effect**; operation continues normally afterwards.
    pub eio_at: Vec<u64>,
    /// Seed for every adversarial choice (torn-write cuts, lost-suffix
    /// lengths).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan that crashes on syscall `n`, with adversarial choices drawn
    /// from `seed`.
    pub fn crash_at(n: u64, seed: u64) -> Self {
        FaultPlan {
            crash_at: Some(n),
            eio_at: Vec::new(),
            seed,
        }
    }

    /// A plan that injects one transient `EIO` at syscall `n`.
    pub fn eio_at(n: u64, seed: u64) -> Self {
        FaultPlan {
            crash_at: None,
            eio_at: vec![n],
            seed,
        }
    }
}

#[derive(Debug, Default)]
struct FaultState {
    /// What syscalls currently observe.
    visible: HashMap<PathBuf, Vec<u8>>,
    /// What a power failure preserves.
    durable: HashMap<PathBuf, Vec<u8>>,
    /// Renames applied to `visible` but not yet fsynced into `durable`.
    pending_renames: Vec<(PathBuf, PathBuf)>,
    plan: FaultPlan,
    rng: u64,
    syscalls: u64,
    injected_eio: u64,
    crashed: bool,
    crash_kind: Option<SyscallKind>,
    kinds: Vec<SyscallKind>,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

enum Gate {
    /// Apply the full effect.
    Proceed,
    /// Crash mid-syscall: apply a partial effect of seeded size, then fail.
    CrashPartial(u64),
}

impl FaultState {
    /// Counts one syscall and decides its fate.
    fn gate(&mut self, kind: SyscallKind) -> io::Result<Gate> {
        if self.crashed {
            return Err(io::Error::other("FaultFs: filesystem is crashed"));
        }
        self.syscalls += 1;
        self.kinds.push(kind);
        let n = self.syscalls;
        if self.plan.eio_at.contains(&n) {
            self.injected_eio += 1;
            return Err(io::Error::other(format!(
                "FaultFs: injected transient EIO at syscall {n} ({kind:?})"
            )));
        }
        if self.plan.crash_at == Some(n) {
            self.crashed = true;
            self.crash_kind = Some(kind);
            return Ok(Gate::CrashPartial(splitmix(&mut self.rng)));
        }
        Ok(Gate::Proceed)
    }

    fn crash_err(kind: SyscallKind, n: u64) -> io::Error {
        io::Error::other(format!("FaultFs: injected crash at syscall {n} ({kind:?})"))
    }
}

/// A deterministic fault-injecting in-memory filesystem (see the module
/// docs for the model). Cheap to clone: clones share state, so a harness
/// can keep a handle while a [`DurableFile`](crate::DurableFile) owns
/// another.
#[derive(Debug, Clone, Default)]
pub struct FaultFs(Arc<Mutex<FaultState>>);

impl FaultFs {
    /// An empty filesystem executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = plan.seed ^ 0xD5F0_FAE1_7C0D_E5EE;
        FaultFs(Arc::new(Mutex::new(FaultState {
            plan,
            rng,
            ..FaultState::default()
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs a new fault plan (syscall counting continues); used for
    /// multi-crash schedules.
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut st = self.lock();
        st.rng = plan.seed ^ 0xD5F0_FAE1_7C0D_E5EE;
        st.plan = plan;
    }

    /// Counted syscalls so far.
    pub fn syscalls(&self) -> u64 {
        self.lock().syscalls
    }

    /// Transient `EIO`s injected so far.
    pub fn injected_eio(&self) -> u64 {
        self.lock().injected_eio
    }

    /// Whether the filesystem is crashed (dead until
    /// [`power_cycle`](Self::power_cycle)).
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// The syscall kind the crash landed on, if crashed.
    pub fn crash_kind(&self) -> Option<SyscallKind> {
        self.lock().crash_kind
    }

    /// The kinds of every counted syscall, in order.
    pub fn kind_log(&self) -> Vec<SyscallKind> {
        self.lock().kinds.clone()
    }

    /// The currently visible bytes of `path`.
    pub fn visible_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().visible.get(path).cloned()
    }

    /// Simulates the reboot after a crash (or a surprise power failure if
    /// not crashed): un-fsynced state is adversarially lost, pending
    /// renames are dropped, and the filesystem becomes operational again
    /// with all faults disarmed.
    pub fn power_cycle(&self) {
        let mut st = self.lock();
        let mut rng = st.rng;
        // Renames not yet pinned by a directory fsync are *unspecified* on
        // a real filesystem: the entry may have reached the on-disk
        // directory anyway. Decide each pending rename by seed — commit or
        // revert, atomically either way (a rename is never torn).
        let pending = std::mem::take(&mut st.pending_renames);
        let mut renamed: Vec<PathBuf> = Vec::new();
        for (from, to) in pending {
            renamed.push(from.clone());
            renamed.push(to.clone());
            if splitmix(&mut rng) & 1 == 1 {
                if let Some(content) = st.durable.remove(&from) {
                    st.durable.insert(to, content);
                } else if let Some(content) = st.visible.get(&to).cloned() {
                    st.durable.insert(to, content);
                }
            }
        }
        let mut after: HashMap<PathBuf, Vec<u8>> = HashMap::new();
        let mut names: Vec<PathBuf> = st.durable.keys().cloned().collect();
        names.sort();
        for name in names {
            let dur = &st.durable[&name];
            let content = if renamed.contains(&name) {
                dur.clone()
            } else {
                match st.visible.get(&name) {
                    None => dur.clone(),
                    Some(vis) if vis == dur => dur.clone(),
                    Some(vis) => {
                        // Keep the common prefix, then a seeded mix point:
                        // visible bytes up to the cut, durable bytes past
                        // it. For an append-only file this is exactly "the
                        // tail tore at an arbitrary byte".
                        let p = vis
                            .iter()
                            .zip(dur.iter())
                            .take_while(|(a, b)| a == b)
                            .count();
                        let hi = vis.len().max(dur.len());
                        let cut = p + (splitmix(&mut rng) as usize) % (hi - p + 1);
                        let mut out = vis[..cut.min(vis.len())].to_vec();
                        if dur.len() > cut {
                            out.extend_from_slice(&dur[cut..]);
                        }
                        out
                    }
                }
            };
            after.insert(name, content);
        }
        st.rng = rng;
        st.visible = after.clone();
        st.durable = after;
        st.crashed = false;
        st.plan = FaultPlan::default();
    }
}

/// A writable handle into a [`FaultFs`] file.
#[derive(Debug)]
pub struct FaultFile {
    fs: FaultFs,
    path: PathBuf,
    pos: u64,
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.fs.lock();
        let gate = st.gate(SyscallKind::Write)?;
        let n = st.syscalls;
        let apply = |st: &mut FaultState, bytes: &[u8], pos: u64| {
            let data = st.visible.entry(self.path.clone()).or_default();
            let pos = pos as usize;
            if data.len() < pos {
                data.resize(pos, 0);
            }
            let overlap = (data.len() - pos).min(bytes.len());
            data[pos..pos + overlap].copy_from_slice(&bytes[..overlap]);
            data.extend_from_slice(&bytes[overlap..]);
        };
        match gate {
            Gate::Proceed => {
                apply(&mut st, buf, self.pos);
                self.pos += buf.len() as u64;
                Ok(buf.len())
            }
            Gate::CrashPartial(r) => {
                // Torn write: a seeded prefix of the buffer lands.
                let cut = (r as usize) % (buf.len() + 1);
                apply(&mut st, &buf[..cut], self.pos);
                Err(FaultState::crash_err(SyscallKind::Write, n))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl VfsFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.sync_impl(SyscallKind::SyncData)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.sync_impl(SyscallKind::SyncAll)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut st = self.fs.lock();
        let gate = st.gate(SyscallKind::SetLen)?;
        let n = st.syscalls;
        match gate {
            Gate::Proceed => {
                let data = st.visible.entry(self.path.clone()).or_default();
                data.resize(len as usize, 0);
                Ok(())
            }
            // A crashed truncate did not happen (size is metadata: it
            // either commits or it does not).
            Gate::CrashPartial(_) => Err(FaultState::crash_err(SyscallKind::SetLen, n)),
        }
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        let st = self.fs.lock();
        let len = st.visible.get(&self.path).map_or(0, Vec::len) as u64;
        drop(st);
        self.pos = len;
        Ok(len)
    }
}

impl FaultFile {
    fn sync_impl(&mut self, kind: SyscallKind) -> io::Result<()> {
        let mut st = self.fs.lock();
        let gate = st.gate(kind)?;
        let n = st.syscalls;
        match gate {
            Gate::Proceed => {
                let content = st.visible.get(&self.path).cloned().unwrap_or_default();
                st.durable.insert(self.path.clone(), content);
                Ok(())
            }
            // A crashed fsync persisted nothing new (the crash-at-the-next-
            // syscall case covers "everything reached disk anyway").
            Gate::CrashPartial(_) => Err(FaultState::crash_err(kind, n)),
        }
    }
}

impl Vfs for FaultFs {
    type File = FaultFile;
    /// A cursor over the file's visible bytes as of the open.
    type Reader = io::Cursor<Vec<u8>>;

    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().visible.contains_key(path)
    }

    fn open_read(&self, path: &Path) -> io::Result<Self::Reader> {
        let mut st = self.lock();
        let gate = st.gate(SyscallKind::ReadFile)?;
        let n = st.syscalls;
        match gate {
            Gate::Proceed => st
                .visible
                .get(path)
                .cloned()
                .map(io::Cursor::new)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "FaultFs: no such file")),
            Gate::CrashPartial(_) => Err(FaultState::crash_err(SyscallKind::ReadFile, n)),
        }
    }

    fn create(&self, path: &Path) -> io::Result<Self::File> {
        let mut st = self.lock();
        let gate = st.gate(SyscallKind::Create)?;
        let n = st.syscalls;
        match gate {
            Gate::Proceed => {
                st.visible.insert(path.to_path_buf(), Vec::new());
                Ok(FaultFile {
                    fs: self.clone(),
                    path: path.to_path_buf(),
                    pos: 0,
                })
            }
            Gate::CrashPartial(_) => Err(FaultState::crash_err(SyscallKind::Create, n)),
        }
    }

    fn open_rw(&self, path: &Path) -> io::Result<Self::File> {
        let mut st = self.lock();
        let gate = st.gate(SyscallKind::OpenRw)?;
        let n = st.syscalls;
        match gate {
            Gate::Proceed => {
                st.visible.entry(path.to_path_buf()).or_default();
                Ok(FaultFile {
                    fs: self.clone(),
                    path: path.to_path_buf(),
                    pos: 0,
                })
            }
            Gate::CrashPartial(_) => Err(FaultState::crash_err(SyscallKind::OpenRw, n)),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let gate = st.gate(SyscallKind::Rename)?;
        let n = st.syscalls;
        match gate {
            Gate::Proceed => {
                let content = st.visible.remove(from).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, "FaultFs: rename source missing")
                })?;
                st.visible.insert(to.to_path_buf(), content);
                st.pending_renames
                    .push((from.to_path_buf(), to.to_path_buf()));
                Ok(())
            }
            // An errored rename did not happen (POSIX rename is atomic).
            Gate::CrashPartial(_) => Err(FaultState::crash_err(SyscallKind::Rename, n)),
        }
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let gate = st.gate(SyscallKind::SyncDir)?;
        let n = st.syscalls;
        match gate {
            Gate::Proceed => {
                let pending = std::mem::take(&mut st.pending_renames);
                for (from, to) in pending {
                    // The renamed content was fsynced under its old name
                    // (the WAL always syncs the temp file before renaming);
                    // the directory fsync moves the durable entry.
                    if let Some(content) = st.durable.remove(&from) {
                        st.durable.insert(to, content);
                    } else if let Some(content) = st.visible.get(&to).cloned() {
                        // Renaming a never-synced file: conservatively make
                        // the visible content durable with the entry (the
                        // WAL never does this, but don't lose data silently
                        // if a future caller does).
                        st.durable.insert(to, content);
                    }
                }
                Ok(())
            }
            Gate::CrashPartial(_) => Err(FaultState::crash_err(SyscallKind::SyncDir, n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn synced_data_survives_power_cycle_unsynced_does_not() {
        let fs = FaultFs::new(FaultPlan::default());
        let mut f = fs.create(&p("/a")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync_data().unwrap();
        f.write_all(b"-volatile-with-a-long-tail").unwrap();
        fs.power_cycle();
        let got = fs.visible_bytes(&p("/a")).unwrap();
        assert!(got.starts_with(b"durable"), "{got:?}");
        assert!(got.len() <= b"durable-volatile-with-a-long-tail".len());
        // The kept suffix is a prefix of what was written: torn, never
        // reordered.
        assert_eq!(got, b"durable-volatile-with-a-long-tail"[..got.len()]);
    }

    #[test]
    fn crash_at_write_applies_a_prefix_then_kills_the_fs() {
        let fs = FaultFs::new(FaultPlan::crash_at(2, 7));
        let mut f = fs.create(&p("/a")).unwrap(); // syscall 1
        let err = f.write_all(b"0123456789").unwrap_err(); // syscall 2: crash
        assert!(err.to_string().contains("crash"), "{err}");
        assert!(fs.crashed());
        assert_eq!(fs.crash_kind(), Some(SyscallKind::Write));
        let torn = fs.visible_bytes(&p("/a")).unwrap();
        assert!(torn.len() <= 10);
        assert_eq!(torn, b"0123456789"[..torn.len()]);
        // Everything later fails until power_cycle.
        assert!(fs.open_read(&p("/a")).is_err());
        fs.power_cycle();
        assert!(!fs.crashed());
        // Nothing was ever synced: the file reverts to empty existence in
        // durable space? It was never durable at all — it's gone.
        assert!(fs.visible_bytes(&p("/a")).is_none());
    }

    #[test]
    fn transient_eio_has_no_effect_and_operation_continues() {
        let fs = FaultFs::new(FaultPlan::eio_at(2, 0));
        let mut f = fs.create(&p("/a")).unwrap(); // 1
        assert!(f.write_all(b"xx").is_err()); // 2: EIO, nothing applied
        assert_eq!(fs.visible_bytes(&p("/a")).unwrap(), b"");
        f.write_all(b"yy").unwrap(); // 3: fine
        assert_eq!(fs.visible_bytes(&p("/a")).unwrap(), b"yy");
        assert_eq!(fs.injected_eio(), 1);
    }

    #[test]
    fn unsynced_rename_commits_or_reverts_but_never_tears() {
        // Without a directory fsync a rename's durability is unspecified:
        // across seeds the power cycle must produce both outcomes, and
        // each must be atomic — whole old content or whole new, no mix.
        let mut saw_old = false;
        let mut saw_new = false;
        for seed in 0..16u64 {
            let fs = FaultFs::new(FaultPlan {
                seed,
                ..FaultPlan::default()
            });
            let mut old = fs.create(&p("/ck")).unwrap();
            old.write_all(b"old").unwrap();
            old.sync_all().unwrap();
            let mut tmp = fs.create(&p("/ck.tmp")).unwrap();
            tmp.write_all(b"new!").unwrap();
            tmp.sync_all().unwrap();
            fs.rename(&p("/ck.tmp"), &p("/ck")).unwrap();
            assert_eq!(fs.visible_bytes(&p("/ck")).unwrap(), b"new!");
            fs.power_cycle();
            match fs.visible_bytes(&p("/ck")).unwrap() {
                b if b == b"old" => {
                    saw_old = true;
                    // The temp file's durable content survives under its
                    // own name when the rename reverts.
                    assert_eq!(fs.visible_bytes(&p("/ck.tmp")).unwrap(), b"new!");
                }
                b if b == b"new!" => {
                    saw_new = true;
                    assert!(fs.visible_bytes(&p("/ck.tmp")).is_none());
                }
                b => panic!("torn rename: {b:?}"),
            }
        }
        assert!(saw_old && saw_new, "both outcomes must be reachable");
    }

    #[test]
    fn synced_rename_is_durable() {
        let fs = FaultFs::new(FaultPlan::default());
        let mut old = fs.create(&p("/ck")).unwrap();
        old.write_all(b"old").unwrap();
        old.sync_all().unwrap();
        let mut tmp = fs.create(&p("/ck.tmp")).unwrap();
        tmp.write_all(b"new!").unwrap();
        tmp.sync_all().unwrap();
        fs.rename(&p("/ck.tmp"), &p("/ck")).unwrap();
        fs.sync_dir(&p("/")).unwrap();
        fs.power_cycle();
        assert_eq!(fs.visible_bytes(&p("/ck")).unwrap(), b"new!");
        assert!(fs.visible_bytes(&p("/ck.tmp")).is_none());
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| {
            let fs = FaultFs::new(FaultPlan::crash_at(4, seed));
            let mut f = fs.create(&p("/a")).unwrap();
            f.write_all(b"base").unwrap();
            f.sync_data().unwrap();
            let _ = f.write_all(b"0123456789abcdef");
            fs.power_cycle();
            fs.visible_bytes(&p("/a")).unwrap()
        };
        assert_eq!(run(42), run(42));
        // Different seeds reach different torn lengths for at least one of
        // a handful of seeds (overwhelmingly likely).
        let outcomes: std::collections::HashSet<Vec<u8>> = (0..16u64).map(run).collect();
        assert!(outcomes.len() > 1, "seeds never vary the tear point");
    }

    #[test]
    fn set_len_truncates_visibly() {
        let fs = FaultFs::new(FaultPlan::default());
        let mut f = fs.create(&p("/a")).unwrap();
        f.write_all(b"0123456789").unwrap();
        f.set_len(4).unwrap();
        assert_eq!(fs.visible_bytes(&p("/a")).unwrap(), b"0123");
        assert_eq!(f.seek_end().unwrap(), 4);
        f.write_all(b"X").unwrap();
        assert_eq!(fs.visible_bytes(&p("/a")).unwrap(), b"0123X");
    }
}
