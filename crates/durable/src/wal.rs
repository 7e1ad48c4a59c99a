//! The write-ahead log and recovery machinery.

use std::io::{Read, Write};
use std::ops::Deref;
use std::path::{Path, PathBuf};

use dsf_core::snapshot::{fnv1a64, fnv1a64_continue, Codec, SnapshotError};
use dsf_core::{Command, CommandOutcome, DenseFile, DenseFileConfig, DsfError, ReadView};
use dsf_flight::request::{self, Phase};
use dsf_pagestore::Key;

use crate::vfs::{StdFs, Vfs, VfsFile};

const CHECKPOINT: &str = "checkpoint.dsf";
const CHECKPOINT_TMP: &str = "checkpoint.dsf.tmp";
const WAL: &str = "wal.log";

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;

/// Magic + epoch at the head of the WAL; a log is only replayed when its
/// epoch matches the checkpoint's, so a crash between "new checkpoint
/// renamed" and "log truncated" can never replay a stale log onto the new
/// state. Version 02: frame checksums are salted with the epoch (see
/// [`frame_checksum`]), so a stale frame can never validate under a header
/// whose epoch bytes were torn into looking current.
const WAL_MAGIC: &[u8; 8] = b"DSFWAL02";
const WAL_HEADER: usize = 16;

/// When the log is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` after every structural command (safest, slowest).
    EveryCommand,
    /// Only on explicit [`DurableFile::sync`] / [`DurableFile::checkpoint`]
    /// calls; a crash may lose the unsynced suffix of commands (never
    /// consistency).
    Manual,
    /// Timed, size-bounded **group commit**: command frames buffer in an
    /// open *commit window* (no syscall per command) and the whole window
    /// is written and fsynced at once when it holds `max_frames` frames,
    /// when it has been open for `max_micros` microseconds (checked at
    /// command boundaries — this is a single-threaded engine, there is no
    /// timer thread), at the next [`Durability::Strict`] command, or at an
    /// explicit [`DurableFile::sync`] / [`DurableFile::checkpoint`] /
    /// [`DurableFile::close_window`].
    ///
    /// A [`Durability::Relaxed`] command returns *before* its window's
    /// fsync and is durable only once
    /// [`DurableFile::durable_lsn`] reaches its LSN; a crash (process or
    /// power) loses the open window, and a failed window commit undoes
    /// every command the window held — memory rewinds to the durable
    /// watermark, exactly the state recovery would reconstruct.
    CommitWindow {
        /// Close the window once it buffers this many frames.
        max_frames: u32,
        /// Close the window at the first command boundary at least this
        /// many microseconds after the window opened.
        max_micros: u64,
    },
}

/// How durable a structural command must be when its call returns, under
/// [`SyncPolicy::CommitWindow`] (the other policies ignore this and behave
/// as they always have).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Durable on acknowledgement: the command closes the open window
    /// (one write + one fsync covering every frame buffered so far), so
    /// the relaxed commands queued before it share its fsync.
    #[default]
    Strict,
    /// Acknowledged once the frame is buffered in the open window; durable
    /// when the window closes. Track with [`DurableFile::durable_lsn`].
    Relaxed,
}

/// Errors from the durability layer.
#[derive(Debug)]
pub enum DurableError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The checkpoint could not be parsed.
    Snapshot(SnapshotError),
    /// The underlying dense file rejected a command or configuration.
    File(DsfError),
    /// `open` was called on a directory without a checkpoint.
    NotInitialized,
    /// A failed checkpoint (or an unrecoverable log write) left the log
    /// unusable: the on-disk checkpoint epoch may be ahead of the log, so
    /// appending another command could be silently discarded by recovery.
    /// Structural commands fail with this error until a
    /// [`DurableFile::checkpoint`] retry succeeds (or the file is
    /// reopened).
    LogPoisoned,
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurableError::Snapshot(e) => write!(f, "bad checkpoint: {e}"),
            DurableError::File(e) => write!(f, "dense file error: {e}"),
            DurableError::NotInitialized => {
                write!(f, "directory has no checkpoint; use create() first")
            }
            DurableError::LogPoisoned => {
                write!(
                    f,
                    "write-ahead log poisoned by a failed checkpoint; retry checkpoint() or reopen"
                )
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<SnapshotError> for DurableError {
    fn from(e: SnapshotError) -> Self {
        DurableError::Snapshot(e)
    }
}

impl From<DsfError> for DurableError {
    fn from(e: DsfError) -> Self {
        DurableError::File(e)
    }
}

/// The frame checksum: [`fnv1a64`] over the epoch (little-endian) followed by
/// the frame body, streamed without copying either. Salting with the
/// epoch binds every frame to its log generation, so bytes of an
/// epoch-`e` frame surviving a torn log reset can never replay under an
/// epoch-`e+1` header.
fn frame_checksum(epoch: u64, body: &[u8]) -> u64 {
    fnv1a64_continue(fnv1a64(&epoch.to_le_bytes()), body)
}

/// The body of one log frame: an effective command, borrowed from
/// wherever the caller holds it.
enum FrameOp<'a, K, V> {
    Insert(&'a K, &'a V),
    Remove(&'a K),
}

impl<K: Codec, V: Codec> FrameOp<'_, K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FrameOp::Insert(k, v) => {
                out.push(OP_INSERT);
                k.encode(out);
                v.encode(out);
            }
            FrameOp::Remove(k) => {
                out.push(OP_REMOVE);
                k.encode(out);
            }
        }
    }
}

/// The append path of the log: buffers one frame, writes it with a single
/// syscall, and **rolls the file back** when a write or post-write fsync
/// fails, so a frame whose command errored out (and was undone in memory)
/// can never survive on disk ahead of the in-memory state.
struct WalWriter<W: VfsFile> {
    file: W,
    /// Bytes of the frame(s) being appended (always empty between
    /// commands; a group commit buffers one frame per batched command).
    pending: Vec<u8>,
    /// Frames currently buffered in `pending`.
    pending_frames: u64,
    /// File length up to which every byte is an acknowledged frame.
    written: u64,
    /// Set when a rollback itself failed: the file's tail is in an unknown
    /// state and no further append may be trusted.
    poisoned: bool,
}

impl<W: VfsFile> WalWriter<W> {
    fn new(file: W, written: u64) -> Self {
        WalWriter {
            file,
            pending: Vec::new(),
            pending_frames: 0,
            written,
            poisoned: false,
        }
    }

    /// Encodes one frame straight into `pending` — `u32` body length,
    /// body, epoch-salted checksum — and returns its size in bytes.
    fn append<K: Codec, V: Codec>(&mut self, epoch: u64, op: FrameOp<'_, K, V>) -> u64 {
        let start = self.pending.len();
        let body = start + 4;
        self.pending.extend_from_slice(&[0; 4]);
        op.encode(&mut self.pending);
        let len = (self.pending.len() - body) as u32;
        self.pending[start..body].copy_from_slice(&len.to_le_bytes());
        let sum = frame_checksum(epoch, &self.pending[body..]);
        self.pending.extend_from_slice(&sum.to_le_bytes());
        self.pending_frames += 1;
        (self.pending.len() - start) as u64
    }

    /// Writes every pending frame with one syscall. On failure the
    /// partially written bytes are scrubbed with `set_len` back to the last
    /// acknowledged length.
    fn flush(&mut self) -> Result<(), DurableError> {
        if self.poisoned {
            self.pending.clear();
            self.pending_frames = 0;
            return Err(DurableError::LogPoisoned);
        }
        if self.pending.is_empty() {
            return Ok(());
        }
        let frames = std::mem::take(&mut self.pending_frames);
        match self.file.write_all(&self.pending) {
            Ok(()) => {
                self.written += self.pending.len() as u64;
                self.pending.clear();
                crate::tel::tel().frames.add(frames);
                Ok(())
            }
            Err(e) => {
                self.pending.clear();
                let target = self.written;
                self.rollback_to(target);
                Err(DurableError::Io(e))
            }
        }
    }

    /// Truncates the file back to `len` bytes (scrubbing a torn or
    /// unacknowledged frame); poisons the writer if the scrub fails.
    fn rollback_to(&mut self, len: u64) {
        crate::tel::tel().recovery_scrubs.inc();
        if self.file.set_len(len).is_err() || self.file.seek_end().is_err() {
            self.poisoned = true;
        } else {
            self.written = len;
        }
    }

    fn sync_data(&mut self) -> Result<(), DurableError> {
        if self.poisoned {
            return Err(DurableError::LogPoisoned);
        }
        let start = dsf_telemetry::enabled().then(std::time::Instant::now);
        // Batch timeline: everything since the last stamp was appending
        // and buffering frames; what follows is the sync itself, which
        // every member of the batch waited for.
        request::batch_checkpoint(Phase::WalAppend);
        let res = self.file.sync_data().map_err(DurableError::Io);
        request::batch_checkpoint(Phase::Fsync);
        if let Some(t0) = start {
            let t = crate::tel::tel();
            t.fsyncs.inc();
            t.fsync_micros
                .record(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
        res
    }
}

/// A crash-safe dense sequential file: checkpoint + write-ahead log.
///
/// Dereferences to [`DenseFile`] for all read operations (`get`, `range`,
/// `rank`, statistics, invariant checking); structural commands go through
/// [`DurableFile::insert`] / [`DurableFile::remove`] so they hit the log.
///
/// Every filesystem effect goes through a [`Vfs`] (third type parameter,
/// defaulting to the real filesystem, [`StdFs`]); the crash-consistency
/// harness substitutes [`crate::FaultFs`] to inject torn writes, transient
/// `EIO` and crash points deterministically.
///
/// ```
/// use dsf_core::DenseFileConfig;
/// use dsf_durable::{DurableFile, SyncPolicy};
///
/// let dir = std::env::temp_dir().join(format!("dsf-doc-{}", std::process::id()));
/// # std::fs::remove_dir_all(&dir).ok();
/// let cfg = DenseFileConfig::control2(32, 4, 24);
/// let mut f: DurableFile<u64, u64> =
///     DurableFile::create(&dir, cfg, SyncPolicy::Manual).unwrap();
/// f.insert(1, 100).unwrap();
/// f.insert(2, 200).unwrap();
/// drop(f); // crash-equivalent: nothing was synced, but the bytes were written
///
/// let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
/// assert_eq!(g.get(&1), Some(&100));
/// assert_eq!(g.len(), 2);
/// # std::fs::remove_dir_all(&dir).ok();
/// ```
pub struct DurableFile<K, V, F: Vfs = StdFs> {
    fs: F,
    file: DenseFile<K, V>,
    /// `None` after a failed checkpoint left the on-disk epoch ambiguous
    /// (see [`DurableError::LogPoisoned`]).
    log: Option<WalWriter<F::File>>,
    dir: PathBuf,
    policy: SyncPolicy,
    commands_since_checkpoint: u64,
    epoch: u64,
    /// Frames buffered in the currently open commit window (0 = closed).
    window_frames: u64,
    /// When the open window's first frame was buffered (drives the
    /// `max_micros` trigger; `None` while closed).
    window_opened: Option<std::time::Instant>,
    /// How to rewind each windowed command in memory if the window's
    /// commit fails — commands acknowledged `Relaxed` were never durably
    /// acknowledged, so a failed fsync takes them all back.
    window_undo: Vec<UndoRec<K, V>>,
    /// LSN of the last structural command accepted into the log (the
    /// in-memory state is always at this LSN). Session-local: resets at
    /// open.
    appended_lsn: u64,
    /// LSN through which commands are on stable storage; always
    /// `<= appended_lsn`, equal except under an open commit window or
    /// unsynced `Manual` appends.
    durable_lsn: u64,
}

/// How to undo one windowed command in memory if its window commit fails.
enum UndoRec<K, V> {
    /// A fresh insert: undo by removing the key.
    Insert(K),
    /// A replacement: undo by restoring the old value.
    Replace(K, V),
    /// A removal: undo by re-inserting the old value.
    Remove(K, V),
}

impl<K, V, F: Vfs> Deref for DurableFile<K, V, F> {
    type Target = DenseFile<K, V>;

    fn deref(&self) -> &Self::Target {
        &self.file
    }
}

impl<K: Key + Codec, V: Codec + Clone> DurableFile<K, V> {
    /// Initializes `dir` (created if missing) with an empty file and an
    /// empty log. Fails if a checkpoint already exists.
    pub fn create<P: AsRef<Path>>(
        dir: P,
        config: DenseFileConfig,
        policy: SyncPolicy,
    ) -> Result<Self, DurableError> {
        Self::create_with(StdFs, dir, config, policy)
    }

    /// Opens an existing directory: loads the checkpoint, replays the log's
    /// valid prefix, and truncates any torn tail.
    pub fn open<P: AsRef<Path>>(dir: P, policy: SyncPolicy) -> Result<Self, DurableError> {
        Self::open_with(StdFs, dir, policy)
    }
}

impl<K: Key + Codec, V: Codec + Clone, F: Vfs> DurableFile<K, V, F> {
    /// [`DurableFile::create`] against an explicit [`Vfs`].
    pub fn create_with<P: AsRef<Path>>(
        fs: F,
        dir: P,
        config: DenseFileConfig,
        policy: SyncPolicy,
    ) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        fs.create_dir_all(&dir)?;
        if fs.exists(&dir.join(CHECKPOINT)) {
            return Err(DurableError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "directory already contains a checkpoint",
            )));
        }
        let file: DenseFile<K, V> = DenseFile::new(config)?;
        write_checkpoint(&fs, &dir, &file, 0).map_err(CkptFail::into_error)?;
        let log = fresh_log(&fs, &dir, 0)?;
        Ok(DurableFile {
            fs,
            file,
            log: Some(log),
            dir,
            policy,
            commands_since_checkpoint: 0,
            epoch: 0,
            window_frames: 0,
            window_opened: None,
            window_undo: Vec::new(),
            appended_lsn: 0,
            durable_lsn: 0,
        })
    }

    /// [`DurableFile::open`] against an explicit [`Vfs`].
    pub fn open_with<P: AsRef<Path>>(
        fs: F,
        dir: P,
        policy: SyncPolicy,
    ) -> Result<Self, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        let ckpt_path = dir.join(CHECKPOINT);
        if !fs.exists(&ckpt_path) {
            return Err(DurableError::NotInitialized);
        }
        let mut ckpt = fs.open_read(&ckpt_path)?;
        let mut epoch = [0u8; 8];
        ckpt.read_exact(&mut epoch).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => DurableError::Snapshot(SnapshotError::Corrupt(
                "checkpoint shorter than its epoch header",
            )),
            _ => DurableError::Io(e),
        })?;
        let epoch = u64::from_le_bytes(epoch);
        let mut file: DenseFile<K, V> = DenseFile::read_snapshot(&mut ckpt)?;

        // Replay the log's valid prefix — but only if its epoch matches the
        // checkpoint's; a stale-epoch log (crash between checkpoint rename
        // and log reset) predates this checkpoint and must be discarded.
        let wal_path = dir.join(WAL);
        let replayed = if fs.exists(&wal_path) {
            replay(&mut file, fs.open_read(&wal_path)?, epoch)?
        } else {
            Replayed::default()
        };
        crate::tel::tel().frames_replayed.add(replayed.commands);
        if replayed.torn {
            // A torn tail (or an entire torn/stale log) is being discarded.
            crate::tel::tel().recovery_scrubs.inc();
        }
        let valid_len = replayed.valid_len;
        let log = if valid_len == 0 {
            // Missing, torn-header, or stale-epoch log: start it fresh.
            fresh_log(&fs, &dir, epoch)?
        } else {
            // Truncate a torn tail so future appends continue the prefix,
            // and make the truncation durable *before* accepting appends:
            // otherwise a later crash could resurrect torn bytes behind
            // frames acknowledged after this open.
            let mut f = fs.open_rw(&wal_path)?;
            f.set_len(valid_len)?;
            f.sync_data()?;
            f.seek_end()?;
            WalWriter::new(f, valid_len)
        };
        Ok(DurableFile {
            fs,
            file,
            log: Some(log),
            dir,
            policy,
            commands_since_checkpoint: replayed.commands,
            epoch,
            window_frames: 0,
            window_opened: None,
            window_undo: Vec::new(),
            appended_lsn: 0,
            durable_lsn: 0,
        })
    }

    /// Inserts a record durably (logged — and, except under an open commit
    /// window, fsynced per the policy — before the call returns). Returns
    /// the previous value on replacement. Equivalent to
    /// [`insert_with`](Self::insert_with) at [`Durability::Strict`].
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>, DurableError> {
        self.insert_with(key, value, Durability::Strict)
    }

    /// [`insert`](Self::insert) with an explicit [`Durability`]. Under
    /// [`SyncPolicy::CommitWindow`], `Relaxed` returns once the frame is
    /// buffered in the open window (durable at the window's fsync; watch
    /// [`durable_lsn`](Self::durable_lsn)); `Strict` closes the window
    /// before returning. Other policies ignore the durability.
    pub fn insert_with(
        &mut self,
        key: K,
        value: V,
        durability: Durability,
    ) -> Result<Option<V>, DurableError> {
        self.file.hold_publication();
        let result = self.insert_held(key, value, durability);
        self.file.release_publication();
        result
    }

    /// [`insert_with`](Self::insert_with)'s body, run with read-view
    /// publication held so readers see the command only once its outcome
    /// is known.
    fn insert_held(
        &mut self,
        key: K,
        value: V,
        durability: Durability,
    ) -> Result<Option<V>, DurableError> {
        if self.log_poisoned() {
            return Err(DurableError::LogPoisoned);
        }
        // Apply in memory first: only effective commands reach the log, and
        // a capacity rejection leaves both state and log untouched.
        let old = self.file.insert(key, value.clone())?;
        let op = FrameOp::Insert(&key, &value);
        if self.windowed() {
            let undo = match &old {
                Some(v) => UndoRec::Replace(key, v.clone()),
                None => UndoRec::Insert(key),
            };
            self.window_append(op, undo);
            // A failed window close has already undone this command (with
            // the rest of the window): the error is the acknowledgement.
            self.maybe_close_window(durability)?;
            return Ok(old);
        }
        if let Err(e) = self.append(op) {
            // Keep memory and log in lock-step: undo the in-memory command
            // so the failed append does not leave memory ahead of the log.
            match old {
                Some(v) => {
                    let _ = self.file.insert(key, v);
                }
                None => {
                    self.file.remove(&key);
                }
            }
            return Err(e);
        }
        Ok(old)
    }

    /// Deletes a key durably. A miss changes nothing and logs nothing.
    /// Equivalent to [`remove_with`](Self::remove_with) at
    /// [`Durability::Strict`].
    pub fn remove(&mut self, key: &K) -> Result<Option<V>, DurableError> {
        self.remove_with(key, Durability::Strict)
    }

    /// [`remove`](Self::remove) with an explicit [`Durability`] — see
    /// [`insert_with`](Self::insert_with).
    pub fn remove_with(
        &mut self,
        key: &K,
        durability: Durability,
    ) -> Result<Option<V>, DurableError> {
        self.file.hold_publication();
        let result = self.remove_held(key, durability);
        self.file.release_publication();
        result
    }

    /// [`remove_with`](Self::remove_with)'s body, run with read-view
    /// publication held (see [`insert_held`](Self::insert_held)).
    fn remove_held(&mut self, key: &K, durability: Durability) -> Result<Option<V>, DurableError> {
        if self.log_poisoned() {
            return Err(DurableError::LogPoisoned);
        }
        let old = self.file.remove(key);
        if let Some(v) = old {
            if self.windowed() {
                self.window_append(FrameOp::Remove(key), UndoRec::Remove(*key, v.clone()));
                self.maybe_close_window(durability)?;
                return Ok(Some(v));
            }
            if let Err(e) = self.append(FrameOp::Remove(key)) {
                let _ = self.file.insert(*key, v);
                return Err(e);
            }
            return Ok(Some(v));
        }
        Ok(None)
    }

    /// Applies a batch of commands with **group commit**: the batch
    /// executes in memory through [`DenseFile::apply_batch`] while every
    /// effective command's frame is buffered, then the whole run of frames
    /// reaches the OS with a single `write` and — under
    /// [`SyncPolicy::EveryCommand`] — a single `fsync`, instead of one of
    /// each per command. Durability is all-or-nothing at the batch
    /// boundary: on any flush or sync failure the log is scrubbed back to
    /// the pre-batch watermark *and* every effective command is undone in
    /// memory (reverse order), so memory and log stay in lock-step exactly
    /// as in the single-command path.
    ///
    /// A crash mid-commit may leave any *prefix* of the batch's frames on
    /// disk; recovery replays that prefix — never a torn or reordered
    /// subset — which is the same contract an unacknowledged single
    /// command already has (the batch was never acknowledged).
    pub fn apply_batch(
        &mut self,
        cmds: &[Command<K, V>],
    ) -> Result<Vec<CommandOutcome<V>>, DurableError> {
        self.apply_batch_durable(cmds, Durability::Strict)
    }

    /// [`apply_batch`](Self::apply_batch) with an explicit [`Durability`].
    /// Under [`SyncPolicy::CommitWindow`], `Relaxed` buffers the batch's
    /// frames into the open window and returns before any syscall; the
    /// batch is durable when the window closes. `Strict` closes the window
    /// (batch frames and any relaxed commands waiting before them) before
    /// returning.
    pub fn apply_batch_durable(
        &mut self,
        cmds: &[Command<K, V>],
        durability: Durability,
    ) -> Result<Vec<CommandOutcome<V>>, DurableError> {
        self.apply_batch_durable_with(cmds, durability, |_, _, _| {})
    }

    /// [`apply_batch_durable`](Self::apply_batch_durable) with a
    /// per-command observer, called with `(index, outcome, flight_seq)`
    /// immediately after each command executes in memory — `flight_seq`
    /// is [`dsf_flight::current_seq`] at that instant (0 while the
    /// recorder is off), i.e. the sequence number the flight ring
    /// attributed the command's page and WAL-frame charges to. The network
    /// front-end uses this to stamp responses for end-to-end attribution.
    ///
    /// On `Err` the batch was rolled back *after* the observer already saw
    /// the in-memory outcomes; callers must treat observed outcomes as
    /// provisional until the call returns `Ok`. The read view is not
    /// provisional: it publishes the batch once, when the call returns
    /// (see [`enable_optimistic_reads`](Self::enable_optimistic_reads)).
    pub fn apply_batch_durable_with<O>(
        &mut self,
        cmds: &[Command<K, V>],
        durability: Durability,
        observe: O,
    ) -> Result<Vec<CommandOutcome<V>>, DurableError>
    where
        O: FnMut(usize, &CommandOutcome<V>, u64),
    {
        self.file.hold_publication();
        let result = self.apply_batch_held(cmds, durability, observe);
        self.file.release_publication();
        result
    }

    /// [`apply_batch_durable_with`](Self::apply_batch_durable_with)'s body,
    /// run with read-view publication held across execution, the commit's
    /// syscalls and any rollback.
    fn apply_batch_held<O>(
        &mut self,
        cmds: &[Command<K, V>],
        durability: Durability,
        mut observe: O,
    ) -> Result<Vec<CommandOutcome<V>>, DurableError>
    where
        O: FnMut(usize, &CommandOutcome<V>, u64),
    {
        if self.log_poisoned() {
            return Err(DurableError::LogPoisoned);
        }
        if cmds.is_empty() {
            return Ok(Vec::new());
        }
        let epoch = self.epoch;
        let policy = self.policy;
        let log = self.log.as_mut().ok_or(DurableError::LogPoisoned)?;
        let base = log.written;
        let mut frames = 0u64;
        // In-memory application and frame buffering interleave so the
        // flight recorder attributes each WAL frame to the command that
        // produced it; no syscall happens until the group flush below.
        let outcomes = self.file.apply_batch_with(cmds, |i, outcome| {
            observe(i, outcome, dsf_flight::current_seq());
            let op = match (&cmds[i], outcome) {
                (Command::Insert(k, v), CommandOutcome::Inserted | CommandOutcome::Replaced(_)) => {
                    FrameOp::Insert(k, v)
                }
                (Command::Remove(k), CommandOutcome::Removed(_)) => FrameOp::Remove(k),
                // Misses and rejections log nothing (as in the
                // single-command path).
                _ => return,
            };
            let bytes = log.append(epoch, op);
            frames += 1;
            dsf_flight::record_wal_frame(bytes);
        });
        // Batch timeline: the pass above is pure in-memory execution (the
        // frame bytes only reached the log's buffer); syscalls start next.
        request::batch_checkpoint(Phase::Execute);
        if matches!(policy, SyncPolicy::CommitWindow { .. }) {
            // The frames are already buffered in the log's pending window
            // (the observer above appended them); arm the undo records and
            // let the window triggers decide when the syscalls happen. A
            // failed close undoes the whole window — this batch included —
            // via those records, so no rollback is needed here.
            for (cmd, outcome) in cmds.iter().zip(&outcomes) {
                let undo = match (cmd, outcome) {
                    (Command::Insert(k, _), CommandOutcome::Inserted) => UndoRec::Insert(*k),
                    (Command::Insert(k, _), CommandOutcome::Replaced(old)) => {
                        UndoRec::Replace(*k, old.clone())
                    }
                    (Command::Remove(k), CommandOutcome::Removed(old)) => {
                        UndoRec::Remove(*k, old.clone())
                    }
                    _ => continue,
                };
                self.window_undo.push(undo);
            }
            if frames > 0 && self.window_frames == 0 {
                self.window_opened = Some(std::time::Instant::now());
            }
            self.window_frames += frames;
            self.appended_lsn += frames;
            if dsf_telemetry::enabled() {
                crate::tel::tel().group_commit_frames.record(frames);
            }
            self.maybe_close_window(durability)?;
            return Ok(outcomes);
        }
        // Group commit: one write for every buffered frame, at most one
        // fsync for the whole batch.
        let mut commit_err = log.flush().err();
        request::batch_checkpoint(Phase::WalAppend);
        if commit_err.is_none() && policy == SyncPolicy::EveryCommand && frames > 0 {
            if let Err(e) = log.sync_data() {
                log.rollback_to(base);
                commit_err = Some(e);
            }
        }
        if let Some(e) = commit_err {
            // Prefix-consistent batch rollback: the log was scrubbed back
            // to the pre-batch watermark, so undo every effective command
            // in memory. Reverse order makes duplicate keys unwind
            // correctly and keeps every intermediate step within the
            // capacities the forward pass already fit in.
            for (cmd, outcome) in cmds.iter().zip(&outcomes).rev() {
                match (cmd, outcome) {
                    (Command::Insert(k, _), CommandOutcome::Inserted) => {
                        self.file.remove(k);
                    }
                    (Command::Insert(k, _), CommandOutcome::Replaced(old)) => {
                        let _ = self.file.insert(*k, old.clone());
                    }
                    (Command::Remove(k), CommandOutcome::Removed(old)) => {
                        let _ = self.file.insert(*k, old.clone());
                    }
                    _ => {}
                }
            }
            return Err(e);
        }
        self.commands_since_checkpoint += frames;
        self.appended_lsn += frames;
        if policy == SyncPolicy::EveryCommand {
            self.durable_lsn = self.appended_lsn;
        }
        if dsf_telemetry::enabled() {
            crate::tel::tel().group_commit_frames.record(frames);
        }
        Ok(outcomes)
    }

    /// Whether the policy buffers commands into a commit window.
    fn windowed(&self) -> bool {
        matches!(self.policy, SyncPolicy::CommitWindow { .. })
    }

    /// Buffers one frame into the open commit window — no syscall — and
    /// arms the undo record replayed if the window's commit later fails.
    fn window_append(&mut self, op: FrameOp<'_, K, V>, undo: UndoRec<K, V>) {
        let epoch = self.epoch;
        let log = self
            .log
            .as_mut()
            .expect("callers check log_poisoned() first");
        let bytes = log.append(epoch, op);
        dsf_flight::record_wal_frame(bytes);
        if self.window_frames == 0 {
            self.window_opened = Some(std::time::Instant::now());
        }
        self.window_frames += 1;
        self.appended_lsn += 1;
        self.window_undo.push(undo);
    }

    /// Closes the window if the command's durability or the policy's size
    /// or age trigger demands it.
    fn maybe_close_window(&mut self, durability: Durability) -> Result<(), DurableError> {
        let SyncPolicy::CommitWindow {
            max_frames,
            max_micros,
        } = self.policy
        else {
            return Ok(());
        };
        let over_size = self.window_frames >= u64::from(max_frames);
        let over_age = self
            .window_opened
            .is_some_and(|t| t.elapsed().as_micros() >= u128::from(max_micros));
        if durability == Durability::Strict || over_size || over_age {
            self.close_window()?;
        }
        Ok(())
    }

    /// Commits the open window: every buffered frame reaches the OS with
    /// one `write` and stable storage with one `fsync`, after which every
    /// windowed command is durable ([`durable_lsn`](Self::durable_lsn)
    /// catches up to [`appended_lsn`](Self::appended_lsn)). A closed
    /// window is a no-op.
    ///
    /// On failure the log is scrubbed back to the durable watermark and
    /// **every command the window held is undone in memory** — relaxed
    /// commands were acknowledged but never durably so, and this rewinds
    /// the engine to exactly the state crash recovery would reconstruct.
    pub fn close_window(&mut self) -> Result<(), DurableError> {
        if self.window_frames == 0 {
            self.window_opened = None;
            return Ok(());
        }
        let frames = self.window_frames;
        let log = self.log.as_mut().ok_or(DurableError::LogPoisoned)?;
        let base = log.written;
        let mut commit_err = log.flush().err();
        if commit_err.is_none() {
            if let Err(e) = log.sync_data() {
                log.rollback_to(base);
                commit_err = Some(e);
            }
        }
        // The window is spent either way.
        self.window_frames = 0;
        self.window_opened = None;
        let undo = std::mem::take(&mut self.window_undo);
        match commit_err {
            None => {
                self.commands_since_checkpoint += frames;
                self.durable_lsn = self.appended_lsn;
                if dsf_telemetry::enabled() {
                    let t = crate::tel::tel();
                    t.commit_window_fsyncs.inc();
                    t.commit_window_frames.record(frames);
                }
                Ok(())
            }
            Some(e) => {
                // Reverse order unwinds duplicate keys correctly and keeps
                // every intermediate step within capacities the forward
                // pass already fit in. Readers see the undone state at
                // once, never a half-undone window.
                self.file.hold_publication();
                for rec in undo.into_iter().rev() {
                    match rec {
                        UndoRec::Insert(k) => {
                            self.file.remove(&k);
                        }
                        UndoRec::Replace(k, v) | UndoRec::Remove(k, v) => {
                            let _ = self.file.insert(k, v);
                        }
                    }
                }
                self.file.release_publication();
                self.appended_lsn = self.durable_lsn;
                Err(e)
            }
        }
    }

    fn append(&mut self, op: FrameOp<'_, K, V>) -> Result<(), DurableError> {
        let epoch = self.epoch;
        let policy = self.policy;
        let log = self.log.as_mut().ok_or(DurableError::LogPoisoned)?;
        let base = log.written;
        let bytes = log.append(epoch, op);
        // Both policies move the bytes to the OS immediately, so a
        // *process* crash (as opposed to a power failure) loses nothing.
        log.flush()?;
        if policy == SyncPolicy::EveryCommand {
            if let Err(e) = log.sync_data() {
                // The frame is on disk but was never made durable and the
                // caller will be told the command failed (and memory
                // undone): scrub it so recovery cannot replay a command
                // the caller believes never happened.
                log.rollback_to(base);
                return Err(e);
            }
        }
        self.commands_since_checkpoint += 1;
        self.appended_lsn += 1;
        if policy == SyncPolicy::EveryCommand {
            self.durable_lsn = self.appended_lsn;
        }
        // The flight frame lands on the just-ended command's seq.
        dsf_flight::record_wal_frame(bytes);
        Ok(())
    }

    /// Forces the log to stable storage (closing the commit window first
    /// if one is open, with its usual failure semantics).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if self.window_frames > 0 {
            return self.close_window();
        }
        let log = self.log.as_mut().ok_or(DurableError::LogPoisoned)?;
        log.flush()?;
        log.sync_data()?;
        self.durable_lsn = self.appended_lsn;
        Ok(())
    }

    /// Writes a fresh checkpoint atomically and starts a new log epoch.
    ///
    /// Crash-safety: the new checkpoint (with epoch `e+1`) is renamed and
    /// the directory fsynced *before* the log is reset; a crash in between
    /// leaves an epoch-`e` log next to an epoch-`e+1` checkpoint, which
    /// recovery discards instead of replaying stale commands.
    ///
    /// Failure-safety: a failure before the rename leaves the old
    /// checkpoint + log fully intact and the file usable. A failure at or
    /// after the point where the new checkpoint may be durable **poisons
    /// the log** ([`DurableError::LogPoisoned`]): structural commands are
    /// refused (they could be appended to a log that recovery would
    /// discard) until a `checkpoint` retry succeeds. This call is the
    /// retry: it is safe and meaningful to call again after any failure.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        // The checkpoint snapshots the in-memory state, which includes any
        // windowed (not yet durable) commands — commit them first so the
        // snapshot never outruns the log it supersedes. On failure the
        // window's undo has already rewound memory; nothing is poisoned
        // and the checkpoint simply did not happen.
        self.close_window()?;
        let new_epoch = self.epoch + 1;
        if let Err(fail) = write_checkpoint(&self.fs, &self.dir, &self.file, new_epoch) {
            return match fail {
                CkptFail::Before(e) => Err(e),
                CkptFail::After(e) => {
                    self.log = None;
                    Err(e)
                }
            };
        }
        match fresh_log(&self.fs, &self.dir, new_epoch) {
            Ok(log) => {
                self.log = Some(log);
                self.epoch = new_epoch;
                self.commands_since_checkpoint = 0;
                // Everything in memory is durable via the checkpoint, even
                // commands whose frames were never individually fsynced.
                self.durable_lsn = self.appended_lsn;
                crate::tel::tel().checkpoints.inc();
                Ok(())
            }
            Err(e) => {
                // The epoch-(e+1) checkpoint is durable but the log still
                // carries epoch e: one more append would be silently
                // discarded by recovery. Refuse commands until a retry.
                self.log = None;
                Err(e)
            }
        }
    }

    /// Whether the log is poisoned (structural commands are refused until
    /// a successful [`checkpoint`](Self::checkpoint) retry or a reopen).
    pub fn log_poisoned(&self) -> bool {
        self.log.as_ref().is_none_or(|l| l.poisoned)
    }

    /// The current checkpoint epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// LSN of the last structural command accepted into the log — the
    /// in-memory state is always at this LSN. Session-local (resets to 0
    /// at `create`/`open`); one effective command = one LSN.
    pub fn appended_lsn(&self) -> u64 {
        self.appended_lsn
    }

    /// LSN through which commands are durable on stable storage. A
    /// [`Durability::Relaxed`] command with LSN `n` must not be treated as
    /// durable until `durable_lsn() >= n` — its window's fsync is what
    /// moves this watermark.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// Frames buffered in the currently open commit window (0 = closed).
    pub fn window_frames(&self) -> u64 {
        self.window_frames
    }

    /// Structural commands logged since the last checkpoint (after `open`,
    /// the number of replayed commands).
    pub fn commands_since_checkpoint(&self) -> u64 {
        self.commands_since_checkpoint
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Enables lock-free optimistic reads on the in-memory file and returns
    /// its [`ReadView`] (see [`DenseFile::enable_optimistic_reads`]).
    ///
    /// **Visibility contract.** The view publishes once per call — per
    /// [`insert_with`](Self::insert_with), [`remove_with`](Self::remove_with)
    /// or [`apply_batch_durable_with`](Self::apply_batch_durable_with) —
    /// just before the call returns, when its outcome is known:
    ///
    /// * a call that returns `Ok` becomes visible at its acknowledgement
    ///   point: after the fsync for a `Strict` command under
    ///   [`SyncPolicy::CommitWindow`] or any command under
    ///   [`SyncPolicy::EveryCommand`]; once its frames are buffered for a
    ///   `Relaxed` command or under [`SyncPolicy::Manual`];
    /// * a call that returns `Err` is never visible: its commands are
    ///   undone before the view publishes, so a reader cannot return a key
    ///   from a failed batch;
    /// * a failed window commit (which undoes every command the window
    ///   held, acknowledged `Relaxed` ones included) publishes once, after
    ///   the whole undo.
    ///
    /// Reads therefore see acknowledged state, which under `Relaxed` or
    /// `Manual` may still be ahead of stable storage; callers needing
    /// durable-only reads must gate on [`durable_lsn`](Self::durable_lsn),
    /// same as locked reads.
    pub fn enable_optimistic_reads(&mut self) -> ReadView<K, V>
    where
        K: Into<u64>,
    {
        self.file.enable_optimistic_reads()
    }
}

/// How far a failed checkpoint got, which decides whether the old log is
/// still trustworthy.
enum CkptFail {
    /// Nothing of the new checkpoint can be visible: old state intact.
    Before(DurableError),
    /// The rename happened (or may be durable): the old-epoch log must not
    /// accept further appends.
    After(DurableError),
}

impl CkptFail {
    fn into_error(self) -> DurableError {
        match self {
            CkptFail::Before(e) | CkptFail::After(e) => e,
        }
    }
}

fn write_checkpoint<F: Vfs, K: Key + Codec, V: Codec>(
    fs: &F,
    dir: &Path,
    file: &DenseFile<K, V>,
    epoch: u64,
) -> Result<(), CkptFail> {
    let tmp = dir.join(CHECKPOINT_TMP);
    let write_tmp = || -> Result<(), DurableError> {
        let mut out = fs.create(&tmp)?;
        out.write_all(&epoch.to_le_bytes())?;
        file.write_snapshot(&mut out)?;
        out.sync_all()?;
        Ok(())
    };
    write_tmp().map_err(CkptFail::Before)?;
    // rename is atomic: an error means it did not happen.
    fs.rename(&tmp, &dir.join(CHECKPOINT))
        .map_err(|e| CkptFail::Before(DurableError::Io(e)))?;
    // Make the rename itself durable: fsync the parent directory so a power
    // failure cannot resurrect the old checkpoint after the caller was told
    // the new one is safe. From here on the new checkpoint may be durable.
    fs.sync_dir(dir)
        .map_err(|e| CkptFail::After(DurableError::Io(e)))?;
    Ok(())
}

/// Creates (or truncates) the WAL with a fresh epoch header, synced.
fn fresh_log<F: Vfs>(fs: &F, dir: &Path, epoch: u64) -> Result<WalWriter<F::File>, DurableError> {
    let mut f = fs.create(&dir.join(WAL))?;
    let mut header = Vec::with_capacity(WAL_HEADER);
    header.extend_from_slice(WAL_MAGIC);
    header.extend_from_slice(&epoch.to_le_bytes());
    f.write_all(&header)?;
    f.sync_data()?;
    Ok(WalWriter::new(f, WAL_HEADER as u64))
}

/// What [`replay`] recovered from a log.
#[derive(Default)]
struct Replayed {
    /// Commands applied.
    commands: u64,
    /// Bytes of the valid prefix, header included (0: no usable header).
    valid_len: u64,
    /// Whether bytes past the valid prefix are being discarded.
    torn: bool,
}

/// Streams the log frame by frame and applies every complete,
/// checksum-valid record of `epoch` (see [`frame_checksum`]) to `file`,
/// stopping at the first torn, corrupt or stale one. A torn-header or
/// stale-epoch log replays nothing. Memory stays one frame, however long
/// the log: each read goes through `take`, which grows the buffer only as
/// bytes arrive, so a length past the end of the log is a torn tail and
/// never an allocation of that size.
fn replay<K: Key + Codec, V: Codec>(
    file: &mut DenseFile<K, V>,
    mut log: impl Read,
    epoch: u64,
) -> std::io::Result<Replayed> {
    let mut frame = Vec::new();
    let got = (&mut log).take(WAL_HEADER as u64).read_to_end(&mut frame)?;
    if got < WAL_HEADER || &frame[..8] != WAL_MAGIC || frame[8..] != epoch.to_le_bytes() {
        return Ok(Replayed {
            torn: got > 0,
            ..Replayed::default()
        });
    }
    let mut done = Replayed {
        valid_len: WAL_HEADER as u64,
        ..Replayed::default()
    };
    loop {
        frame.clear();
        let got = (&mut log).take(4).read_to_end(&mut frame)?;
        if got < 4 {
            done.torn = got > 0;
            return Ok(done);
        }
        let len = u64::from(u32::from_le_bytes(
            frame[..4].try_into().expect("four bytes"),
        ));
        // Body, then checksum. A torn, corrupt (or stale-epoch) or
        // malformed record ends the valid prefix.
        let complete = (&mut log).take(len + 8).read_to_end(&mut frame)? as u64 == len + 8;
        let valid = complete && {
            let (body, stored) = frame[4..].split_at(len as usize);
            let stored = u64::from_le_bytes(stored.try_into().expect("eight bytes"));
            frame_checksum(epoch, body) == stored && apply(file, body)
        };
        if !valid {
            done.torn = true;
            return Ok(done);
        }
        done.valid_len += 4 + len + 8;
        done.commands += 1;
    }
}

fn apply<K: Key + Codec, V: Codec>(file: &mut DenseFile<K, V>, body: &[u8]) -> bool {
    let mut input = body;
    let Ok(op) = u8::decode(&mut input) else {
        return false;
    };
    match op {
        OP_INSERT => {
            let (Ok(key), Ok(value)) = (K::decode(&mut input), V::decode(&mut input)) else {
                return false;
            };
            file.insert(key, value).is_ok()
        }
        OP_REMOVE => {
            let Ok(key) = K::decode(&mut input) else {
                return false;
            };
            file.remove(&key);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dsf-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn cfg() -> DenseFileConfig {
        DenseFileConfig::control2(32, 8, 40)
    }

    #[test]
    fn create_write_reopen() {
        let dir = tempdir("basic");
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::EveryCommand).unwrap();
        for k in 0..100u64 {
            f.insert(k * 3, k).unwrap();
        }
        f.remove(&30).unwrap();
        assert_eq!(f.commands_since_checkpoint(), 101);
        drop(f);

        let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(g.len(), 99);
        assert_eq!(g.get(&3), Some(&1));
        assert_eq!(g.get(&30), None);
        assert_eq!(g.commands_since_checkpoint(), 101);
        g.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_the_log() {
        let dir = tempdir("ckpt");
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        for k in 0..50u64 {
            f.insert(k, k).unwrap();
        }
        f.checkpoint().unwrap();
        assert_eq!(f.commands_since_checkpoint(), 0);
        assert_eq!(f.epoch(), 1);
        // Only the epoch header remains.
        assert_eq!(
            std::fs::metadata(dir.join(WAL)).unwrap().len(),
            WAL_HEADER as u64
        );
        f.insert(999, 999).unwrap();
        drop(f);

        let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(g.len(), 51);
        assert_eq!(g.commands_since_checkpoint(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_double_create_and_uninitialized_open() {
        let dir = tempdir("guards");
        let _f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        assert!(matches!(
            DurableFile::<u64, u64>::create(&dir, cfg(), SyncPolicy::Manual),
            Err(DurableError::Io(_))
        ));
        let empty = tempdir("guards-empty");
        std::fs::create_dir_all(&empty).unwrap();
        assert!(matches!(
            DurableFile::<u64, u64>::open(&empty, SyncPolicy::Manual),
            Err(DurableError::NotInitialized)
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn capacity_rejection_leaves_log_clean() {
        let dir = tempdir("cap");
        let tiny = DenseFileConfig::control2(2, 1, 8);
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, tiny, SyncPolicy::EveryCommand).unwrap();
        f.insert(1, 1).unwrap();
        f.insert(2, 2).unwrap();
        assert!(f.insert(3, 3).is_err());
        assert_eq!(f.commands_since_checkpoint(), 2);
        drop(f);
        let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(g.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The crash-injection test: truncate the log at *every byte length*
    /// and confirm recovery always yields a consistent prefix of the
    /// command history with all invariants intact.
    #[test]
    fn recovery_from_every_possible_torn_tail() {
        let dir = tempdir("torn");
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        // A history with inserts, replacements and deletes.
        let mut history: Vec<(u8, u64, u64)> = Vec::new();
        for i in 0..40u64 {
            let k = (i * 37) % 64;
            if i % 5 == 4 {
                if f.remove(&k).unwrap().is_some() {
                    history.push((OP_REMOVE, k, 0));
                }
            } else {
                f.insert(k, i).unwrap();
                history.push((OP_INSERT, k, i));
            }
        }
        f.sync().unwrap();
        drop(f);
        let full_log = std::fs::read(dir.join(WAL)).unwrap();

        for cut in 0..=full_log.len() {
            std::fs::write(dir.join(WAL), &full_log[..cut]).unwrap();
            let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
            let m = g.commands_since_checkpoint() as usize;
            assert!(m <= history.len(), "cut {cut}: replayed too much");
            // Expected state: replay the first m history entries on a model.
            let mut model = std::collections::BTreeMap::new();
            for &(op, k, v) in &history[..m] {
                if op == OP_INSERT {
                    model.insert(k, v);
                } else {
                    model.remove(&k);
                }
            }
            let got: Vec<(u64, u64)> = g.iter().map(|(k, v)| (*k, *v)).collect();
            let want: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(got, want, "cut {cut}: state is not the {m}-command prefix");
            g.check_invariants()
                .unwrap_or_else(|e| panic!("cut {cut}: {e:?}"));
            // Recovery truncated the tail (or rewrote a fresh header when
            // the cut destroyed it): the log now parses cleanly.
            let len_after = std::fs::metadata(dir.join(WAL)).unwrap().len() as usize;
            assert!(len_after <= cut.max(WAL_HEADER));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The exact crash window the epoch header exists for: new checkpoint
    /// renamed, old (stale) log still on disk. Recovery must discard the
    /// stale log rather than replay it.
    #[test]
    fn stale_log_after_checkpoint_crash_is_discarded() {
        let dir = tempdir("epoch");
        let tiny = DenseFileConfig::control2(2, 1, 8); // capacity 2
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, tiny, SyncPolicy::Manual).unwrap();
        // History: ins(1,1), ins(5,5), rm(5), ins-replace(1,2), ins(9,9).
        f.insert(1, 1).unwrap();
        f.insert(5, 5).unwrap();
        f.remove(&5).unwrap();
        f.insert(1, 2).unwrap();
        f.insert(9, 9).unwrap();
        f.sync().unwrap();
        let stale_log = std::fs::read(dir.join(WAL)).unwrap();
        // Checkpoint, then simulate the crash by restoring the stale log
        // (as if set_len/rewrite never hit the disk).
        f.checkpoint().unwrap();
        drop(f);
        std::fs::write(dir.join(WAL), &stale_log).unwrap();

        let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(
            g.commands_since_checkpoint(),
            0,
            "stale-epoch log must be ignored"
        );
        let got: Vec<(u64, u64)> = g.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(
            got,
            vec![(1, 2), (9, 9)],
            "state is the checkpoint, not a stale replay"
        );
        g.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The harder variant of the stale-log window: the log reset tore
    /// *mid-header*, leaving the **new** epoch bytes stitched onto **old**
    /// frame bytes. The epoch check alone passes; only the epoch-salted
    /// frame checksums stop the stale frames from replaying.
    #[test]
    fn stale_frames_under_a_new_epoch_header_are_rejected() {
        let dir = tempdir("epoch-salt");
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        for k in 0..10u64 {
            f.insert(k, k).unwrap();
        }
        f.sync().unwrap();
        let stale_log = std::fs::read(dir.join(WAL)).unwrap();
        f.checkpoint().unwrap(); // epoch 1, log reset
        drop(f);
        // Simulated torn reset: header bytes (with the new epoch) persisted,
        // but the truncation of the old frames did not.
        let mut mixed = std::fs::read(dir.join(WAL)).unwrap(); // fresh header, epoch 1
        mixed.extend_from_slice(&stale_log[WAL_HEADER..]); // old epoch-0 frames
        std::fs::write(dir.join(WAL), &mixed).unwrap();

        let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(
            g.commands_since_checkpoint(),
            0,
            "epoch-salted checksums must reject stale frames under a current header"
        );
        assert_eq!(g.len(), 10, "state is exactly the checkpoint");
        g.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_record_mid_log_stops_replay_at_prefix() {
        let dir = tempdir("corrupt");
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        for k in 0..20u64 {
            f.insert(k, k).unwrap();
        }
        f.sync().unwrap();
        drop(f);
        let mut log = std::fs::read(dir.join(WAL)).unwrap();
        let mid = log.len() / 2;
        log[mid] ^= 0xff;
        std::fs::write(dir.join(WAL), &log).unwrap();

        let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert!(g.len() < 20, "corruption must cut the replay short");
        g.check_invariants().unwrap();
        // The valid keys are exactly 0..len (inserted in order).
        let got: Vec<u64> = g.iter().map(|(k, _)| *k).collect();
        let want: Vec<u64> = (0..g.len()).collect();
        assert_eq!(got, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_continue_after_torn_tail_recovery() {
        let dir = tempdir("continue");
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        for k in 0..10u64 {
            f.insert(k, k).unwrap();
        }
        f.sync().unwrap();
        drop(f);
        // Tear the last few bytes.
        let log = std::fs::read(dir.join(WAL)).unwrap();
        std::fs::write(dir.join(WAL), &log[..log.len() - 3]).unwrap();

        let mut g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        let recovered = g.len();
        assert_eq!(recovered, 9);
        for k in 100..120u64 {
            g.insert(k, k).unwrap();
        }
        g.sync().unwrap();
        drop(g);
        let h: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(h.len(), recovered + 20);
        h.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Replay streams the log through a read buffer; a log several
    /// buffers long must reopen to exactly the state its commands built.
    #[test]
    fn a_log_many_read_buffers_long_reopens_to_the_acked_state() {
        let dir = tempdir("long");
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        let mut model = std::collections::BTreeMap::new();
        for i in 0..4_000u64 {
            let key = (i * 7919) % 200;
            if i % 5 == 4 {
                f.remove(&key).unwrap();
                model.remove(&key);
            } else {
                f.insert(key, i).unwrap();
                model.insert(key, i);
            }
        }
        f.sync().unwrap();
        let logged = f.commands_since_checkpoint();
        drop(f);
        // The std read buffer is 8 KiB.
        let log_len = std::fs::metadata(dir.join(WAL)).unwrap().len();
        assert!(
            log_len >= 4 * 8 * 1024,
            "log of {log_len} bytes is too short"
        );

        let g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        let got: Vec<(u64, u64)> = g.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, want);
        assert_eq!(g.commands_since_checkpoint(), logged);
        g.check_invariants().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A length field claiming more bytes than the log has left is a torn
    /// tail: the frames before it replay, and the log is cut back to them.
    #[test]
    fn a_frame_length_past_the_end_of_the_log_is_a_torn_tail() {
        let dir = tempdir("huge-len");
        let mut f: DurableFile<u64, u64> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        for k in 0..10u64 {
            f.insert(k, k).unwrap();
        }
        f.sync().unwrap();
        drop(f);
        let valid = std::fs::read(dir.join(WAL)).unwrap();
        let mut log = valid.clone();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0xAB; 40]);
        std::fs::write(dir.join(WAL), &log).unwrap();

        let mut g: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(g.len(), 10);
        assert_eq!(std::fs::read(dir.join(WAL)).unwrap(), valid);
        g.insert(10, 10).unwrap();
        g.sync().unwrap();
        drop(g);
        let h: DurableFile<u64, u64> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(h.len(), 11);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_render_messages() {
        let e = DurableError::NotInitialized;
        assert!(e.to_string().contains("no checkpoint"));
        let e: DurableError = std::io::Error::other("boom").into();
        assert!(e.to_string().contains("boom"));
        let e: DurableError = DsfError::CapacityExceeded { capacity: 9 }.into();
        assert!(e.to_string().contains("9"));
        let e = DurableError::LogPoisoned;
        assert!(e.to_string().contains("poisoned"));
    }

    /// The frame encoder as it was before frames were encoded in place:
    /// a body `Vec`, a frame `Vec`, and a salted copy of the body to hash.
    fn reference_frame(epoch: u64, body: &[u8]) -> Vec<u8> {
        let mut salted = epoch.to_le_bytes().to_vec();
        salted.extend_from_slice(body);
        let mut frame = (body.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(body);
        frame.extend_from_slice(&fnv1a64(&salted).to_le_bytes());
        frame
    }

    #[test]
    fn every_append_path_writes_the_reference_encoders_bytes() {
        let cmds: Vec<Command<u64, String>> = vec![
            Command::Insert(7, "seven".into()),
            Command::Insert(3, String::new()),
            Command::Insert(7, "seven again, now past twenty-two bytes".into()),
            Command::Remove(3),
            Command::Remove(99), // a miss: no frame
            Command::Insert(u64::MAX, "π ≈ 3.14".into()),
        ];
        let window = SyncPolicy::CommitWindow {
            max_frames: 1_000,
            max_micros: u64::MAX,
        };
        // Single commands through `append` and `window_append`, then the
        // batch through `apply_batch_held` under both kinds of policy.
        for (tag, policy, batched) in [
            ("pin-single", SyncPolicy::EveryCommand, false),
            ("pin-window", window, false),
            ("pin-batch", SyncPolicy::EveryCommand, true),
            ("pin-window-batch", window, true),
        ] {
            let dir = tempdir(tag);
            let mut f: DurableFile<u64, String> = DurableFile::create(&dir, cfg(), policy).unwrap();
            f.checkpoint().unwrap(); // a nonzero epoch salts every checksum
            let epoch = f.epoch();
            assert_eq!(epoch, 1);
            if batched {
                f.apply_batch_durable(&cmds, Durability::Relaxed).unwrap();
            } else {
                for cmd in &cmds {
                    match cmd {
                        Command::Insert(k, v) => {
                            f.insert_with(*k, v.clone(), Durability::Relaxed).unwrap();
                        }
                        Command::Remove(k) => {
                            f.remove_with(k, Durability::Relaxed).unwrap();
                        }
                    }
                }
            }
            f.sync().unwrap();
            let mut want = WAL_MAGIC.to_vec();
            want.extend_from_slice(&epoch.to_le_bytes());
            for cmd in &cmds {
                let mut body = Vec::new();
                match cmd {
                    Command::Insert(k, v) => {
                        body.push(OP_INSERT);
                        k.encode(&mut body);
                        v.encode(&mut body);
                    }
                    Command::Remove(99) => continue,
                    Command::Remove(k) => {
                        body.push(OP_REMOVE);
                        k.encode(&mut body);
                    }
                }
                want.extend(reference_frame(epoch, &body));
            }
            assert_eq!(std::fs::read(dir.join(WAL)).unwrap(), want, "{tag}");
            drop(f);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn string_values_round_trip_through_the_log() {
        let dir = tempdir("strings");
        let mut f: DurableFile<u64, String> =
            DurableFile::create(&dir, cfg(), SyncPolicy::Manual).unwrap();
        f.insert(1, "första".into()).unwrap();
        f.insert(2, "andra".into()).unwrap();
        f.insert(1, "ersatt".into()).unwrap();
        drop(f);
        let g: DurableFile<u64, String> = DurableFile::open(&dir, SyncPolicy::Manual).unwrap();
        assert_eq!(g.get(&1), Some(&"ersatt".to_string()));
        assert_eq!(g.get(&2), Some(&"andra".to_string()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
