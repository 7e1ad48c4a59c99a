//! # dsf-concurrent — one range-sharded store, in memory or durable
//!
//! The paper's algorithms are sequential: every command runs its own
//! J-shift maintenance pass against shared calibrator state. The standard
//! deployment answer — used by every partitioned sequential store since —
//! is *range sharding*: split the key space into contiguous stripes, give
//! each stripe its own independent `(d,D)`-dense file behind a reader-writer
//! lock, and route commands by key. Shards never exchange records, so each
//! keeps the paper's per-command worst-case bound independently, whether or
//! not it writes a log; updates to different stripes run in parallel, and
//! ordered scans visit shards in key order (each stripe is still physically
//! sequential on its own extent).
//!
//! [`ShardedFile`] is that store, generic over its [`Shard`]:
//!
//! * `ShardedFile<V>` (the default shard, `DenseFile<u64, V>`) keeps every
//!   stripe in memory: [`ShardedFile::new`], bulk loads, parallel
//!   cross-shard batches and snapshots;
//! * `ShardedFile<V, DurableFile<u64, V, F>>` gives every stripe its own
//!   write-ahead log and commit window under `<root>/shard-<i>`
//!   ([`ShardedFile::create`], [`ShardedFile::open`]), so a batch on one
//!   shard is one group commit.
//!
//! Both run the same router, the same single-shard write path
//! ([`ShardedFile::apply_shard_batch`]) and the same reads
//! ([`ShardedFile::get`], [`ShardedFile::collect_range`]); the shard only
//! decides what a batch does besides applying its commands.
//!
//! Limitations are inherent and documented: a severely skewed workload can
//! fill one shard while others sit empty (capacity is per shard — exactly
//! like any range-partitioned system), and a cross-shard scan releases one
//! shard's lock before taking the next, so it is *per-shard* consistent
//! rather than a global snapshot.
//!
//! With [`ShardedFile::enable_optimistic_reads`] the read path goes one
//! step further: each shard publishes an epoch-validated [`ReadView`]
//! generation at every batch boundary, and point gets / range
//! collections validate against it **without touching the shard lock at
//! all**, routing by the calibrator descent locked reads use — falling
//! back to the lock only when a read loses a race or a collection is too
//! wide. Readers then scale independently of writer lock hold times (see
//! `exp_concurrent_reads`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tel;

use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use dsf_core::snapshot::Codec;
use dsf_core::{
    Command, CommandOutcome, DenseFile, DenseFileConfig, DsfError, InvariantViolation, OpStats,
    ReadView,
};
use dsf_durable::{Durability, DurableError, DurableFile, StdFs, SyncPolicy, Vfs};
use dsf_flight::request;

/// One stripe of a [`ShardedFile`]: a dense file, possibly behind a
/// write-ahead log. Every read is answered by [`file`](Shard::file);
/// batches and syncs go through the shard, so a logged one can log them.
pub trait Shard<V> {
    /// The dense file reads are answered from.
    fn file(&self) -> &DenseFile<u64, V>;

    /// Applies `cmds` in order, calling `observe(index, outcome,
    /// flight_seq)` right after each command executes. `durability` is
    /// when a logged shard may return (see
    /// [`DurableFile::apply_batch_durable_with`]); an in-memory shard
    /// ignores it and never fails.
    fn apply<O>(
        &mut self,
        cmds: &[Command<u64, V>],
        durability: Durability,
        observe: O,
    ) -> Result<Vec<CommandOutcome<V>>, DurableError>
    where
        O: FnMut(usize, &CommandOutcome<V>, u64);

    /// Starts publishing a [`ReadView`] at every batch boundary
    /// (idempotent) and returns a handle to it.
    fn enable_optimistic_reads(&mut self) -> ReadView<u64, V>;

    /// Makes every applied command durable; a no-op in memory.
    fn sync(&mut self) -> Result<(), DurableError>;
}

impl<V: Clone> Shard<V> for DenseFile<u64, V> {
    fn file(&self) -> &DenseFile<u64, V> {
        self
    }

    fn apply<O>(
        &mut self,
        cmds: &[Command<u64, V>],
        _durability: Durability,
        mut observe: O,
    ) -> Result<Vec<CommandOutcome<V>>, DurableError>
    where
        O: FnMut(usize, &CommandOutcome<V>, u64),
    {
        Ok(self.apply_batch_with(cmds, |i, o| observe(i, o, dsf_flight::current_seq())))
    }

    fn enable_optimistic_reads(&mut self) -> ReadView<u64, V> {
        DenseFile::enable_optimistic_reads(self)
    }

    fn sync(&mut self) -> Result<(), DurableError> {
        Ok(())
    }
}

impl<V: Codec + Clone, F: Vfs> Shard<V> for DurableFile<u64, V, F> {
    fn file(&self) -> &DenseFile<u64, V> {
        self
    }

    fn apply<O>(
        &mut self,
        cmds: &[Command<u64, V>],
        durability: Durability,
        observe: O,
    ) -> Result<Vec<CommandOutcome<V>>, DurableError>
    where
        O: FnMut(usize, &CommandOutcome<V>, u64),
    {
        self.apply_batch_durable_with(cmds, durability, observe)
    }

    fn enable_optimistic_reads(&mut self) -> ReadView<u64, V> {
        DurableFile::enable_optimistic_reads(self)
    }

    fn sync(&mut self) -> Result<(), DurableError> {
        DurableFile::sync(self)
    }
}

/// How keys map to shards: `shard i` owns `[i·stripe, (i+1)·stripe)` with
/// the last shard absorbing the remainder of the `u64` space.
#[derive(Debug, Clone, Copy)]
struct Router {
    shards: u32,
    stripe: u64,
}

impl Router {
    fn new(shards: u32) -> Self {
        // Ceil so that `shards × stripe` covers the whole space.
        let stripe = (u64::MAX / u64::from(shards)).saturating_add(1);
        Router { shards, stripe }
    }

    fn shard_of(&self, key: u64) -> usize {
        ((key / self.stripe) as usize).min(self.shards as usize - 1)
    }

    /// First key of a shard (for scan planning).
    fn shard_start(&self, shard: usize) -> u64 {
        self.stripe.saturating_mul(shard as u64)
    }
}

/// A concurrent ordered map: `N` range shards, each an independent
/// [`Shard`] behind a [`parking_lot::RwLock`] — an in-memory
/// [`DenseFile`] by default, or a [`DurableFile`].
///
/// ```
/// use dsf_concurrent::ShardedFile;
/// use dsf_core::DenseFileConfig;
///
/// let file: ShardedFile<String> =
///     ShardedFile::new(4, DenseFileConfig::control2(64, 8, 40)).unwrap();
/// file.insert(10, "ten".into()).unwrap();
/// file.insert(u64::MAX - 1, "far".into()).unwrap();
/// assert_eq!(file.get(10), Some("ten".into()));
/// assert_eq!(file.len(), 2);
/// let keys: Vec<u64> = file.collect_range(0, u64::MAX, usize::MAX)
///     .into_iter().map(|(k, _)| k).collect();
/// assert_eq!(keys, vec![10, u64::MAX - 1]);
/// ```
pub struct ShardedFile<V, S = DenseFile<u64, V>> {
    router: Router,
    shards: Vec<RwLock<S>>,
    /// Per-shard optimistic [`ReadView`] handles, populated by
    /// [`enable_optimistic_reads`](Self::enable_optimistic_reads). Point
    /// gets and range collections consult these first and only fall back to
    /// the shard lock when a read loses a race or a collection is too wide.
    views: Vec<OnceLock<ReadView<u64, V>>>,
    /// Per-shard `dsf_shard_commands_total{shard="i"}` handles, registered
    /// at construction so the hot path only bumps a relaxed atomic.
    shard_commands: Vec<Arc<dsf_telemetry::Counter>>,
    /// Fixed at construction (`shards × d·M`); cached so callers don't take
    /// every shard lock to read a constant.
    capacity: u64,
}

impl<V: Clone, S: Shard<V>> ShardedFile<V, S> {
    /// Wraps one shard per stripe, in key order.
    fn from_shards(shards: Vec<S>) -> Self {
        let n = u32::try_from(shards.len()).expect("shard count fits u32");
        assert!(n > 0, "at least one shard required");
        let shard_commands = (0..n)
            .map(|s| {
                dsf_telemetry::global().counter_with(
                    "dsf_shard_commands_total",
                    &[("shard", &s.to_string())],
                    "structural commands routed to this shard",
                )
            })
            .collect();
        ShardedFile {
            router: Router::new(n),
            capacity: shards.iter().map(|s| s.file().capacity()).sum(),
            views: shards.iter().map(|_| OnceLock::new()).collect(),
            shards: shards.into_iter().map(RwLock::new).collect(),
            shard_commands,
        }
    }

    /// Takes shard `s`'s write lock, feeding `dsf_shard_lock_wait_micros`
    /// on sampled acquisitions (1-in-16, and only while telemetry is on —
    /// with telemetry off it is one flag load and a plain `write()`).
    fn lock_write(&self, s: usize) -> RwLockWriteGuard<'_, S> {
        let sampled = dsf_telemetry::enabled()
            && tel::tel()
                .sample_clock
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                .is_multiple_of(tel::LOCK_WAIT_SAMPLE_EVERY);
        if !sampled {
            return self.shards[s].write();
        }
        let t0 = std::time::Instant::now();
        let guard = self.shards[s].write();
        let micros = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
        tel::tel().lock_wait.record(micros);
        guard
    }

    /// Takes shard `s`'s read lock for a read the view did not answer,
    /// charging the wait to the calling request's `LockWait` trace phase
    /// (a no-op outside a traced request).
    fn lock_read(&self, s: usize) -> RwLockReadGuard<'_, S> {
        let guard = self.shards[s].read();
        request::batch_checkpoint(request::Phase::LockWait);
        guard
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.router.shards
    }

    /// The shard index a key routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        self.router.shard_of(key)
    }

    /// Total records across shards (takes each read lock briefly).
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.read().file().len()).sum()
    }

    /// Whether no shard holds records.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().file().is_empty())
    }

    /// Total capacity (`shards × d·M`); a constant, read lock-free.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Applies a batch whose commands all route to `shard`, on the
    /// caller's thread: one write-lock acquisition (stamped as the calling
    /// request's `LockWait` trace phase), then one [`Shard::apply`] — for
    /// a durable shard, one group commit. `observe` sees
    /// `(index, outcome, flight_seq)` per command, in batch order.
    ///
    /// # Errors
    ///
    /// The shard's [`DurableError`]; an in-memory shard never fails.
    ///
    /// # Panics
    ///
    /// If a command's key does not route to `shard`: applying it would put
    /// the record in a stripe that does not own it.
    pub fn apply_shard_batch<O>(
        &self,
        shard: usize,
        cmds: &[Command<u64, V>],
        durability: Durability,
        observe: O,
    ) -> Result<Vec<CommandOutcome<V>>, DurableError>
    where
        O: FnMut(usize, &CommandOutcome<V>, u64),
    {
        assert!(
            cmds.iter().all(|c| self.shard_of(*c.key()) == shard),
            "batch for shard {shard} holds a key routed elsewhere"
        );
        self.shard_commands[shard].add(cmds.len() as u64);
        let mut file = self.lock_write(shard);
        request::batch_checkpoint(request::Phase::LockWait);
        file.apply(cmds, durability, observe)
    }

    /// Enables lock-free optimistic reads on every shard (idempotent).
    ///
    /// Each shard starts publishing a [`ReadView`] generation at every
    /// batch boundary; [`get`](Self::get) and
    /// [`collect_range`](Self::collect_range) then validate
    /// against the view first and take the shard lock only when a read
    /// loses a race or a collection is too wide for the view. Takes each
    /// shard's write lock once to seed the initial generation.
    pub fn enable_optimistic_reads(&self) {
        for (s, slot) in self.views.iter().enumerate() {
            if slot.get().is_none() {
                let view = self.shards[s].write().enable_optimistic_reads();
                let _ = slot.set(view);
            }
        }
    }

    /// The optimistic [`ReadView`] of one shard, when enabled (tests,
    /// benches).
    pub fn shard_view(&self, shard: usize) -> Option<ReadView<u64, V>> {
        self.views[shard].get().cloned()
    }

    /// Looks a key up — optimistic-first: a validated read against the
    /// shard's published [`ReadView`] generation costs no lock at all; only
    /// a read that loses its races (or views not enabled) falls back to the
    /// shard read lock.
    pub fn get(&self, key: u64) -> Option<V> {
        let s = self.router.shard_of(key);
        if let Some(view) = self.views[s].get() {
            if let Ok(hit) = view.try_get(&key) {
                return hit;
            }
        }
        self.lock_read(s).file().get(&key).cloned()
    }

    /// Whether a key is present.
    pub fn contains_key(&self, key: &u64) -> bool {
        self.shards[self.router.shard_of(*key)]
            .read()
            .file()
            .contains_key(key)
    }

    /// Exact number of records of `shard` (already read-locked) with keys
    /// in `[from, hi]`, from resident rank metadata — no page access.
    fn count_in(shard: &DenseFile<u64, V>, from: u64, hi: u64) -> usize {
        let thru_hi = shard.rank(&hi) + u64::from(shard.contains_key(&hi));
        thru_hi.saturating_sub(shard.rank(&from)) as usize
    }

    /// Up to `limit` records of shard `s` with keys in `[from, hi]`: from
    /// the view when it answers (reading only the slots `limit` needs),
    /// else streamed under the read lock into a buffer pre-sized by an
    /// exact rank-based count.
    fn collect_shard(&self, s: usize, from: u64, hi: u64, limit: usize) -> Vec<(u64, V)> {
        if let Some(view) = self.views[s].get() {
            let (lo, hi) = (Bound::Included(from), Bound::Included(hi));
            if let Ok(part) = view.try_collect_range_limited(lo, hi, limit) {
                return part;
            }
        }
        let guard = self.lock_read(s);
        let file = guard.file();
        let mut part = Vec::with_capacity(Self::count_in(file, from, hi).min(limit));
        part.extend(
            file.range(from..=hi)
                .take(limit)
                .map(|(k, v)| (*k, v.clone())),
        );
        part
    }

    /// Collects up to `limit` records with keys in `[lo, hi]` in ascending
    /// order, visiting shards in key order from the one `lo` routes to.
    /// Per-shard consistent: each shard is read (optimistically, or under
    /// its read lock) on its own.
    pub fn collect_range(&self, lo: u64, hi: u64, limit: usize) -> Vec<(u64, V)> {
        let mut out: Vec<(u64, V)> = Vec::new();
        for s in self.router.shard_of(lo)..=self.router.shard_of(hi) {
            if out.len() >= limit {
                break;
            }
            let from = lo.max(self.router.shard_start(s));
            let part = self.collect_shard(s, from, hi, limit - out.len());
            if out.is_empty() {
                out = part;
            } else {
                out.extend(part);
            }
        }
        out
    }

    /// Number of records with keys strictly below `key` across all shards.
    pub fn rank(&self, key: &u64) -> u64 {
        let target = self.router.shard_of(*key);
        let mut rank = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            match s.cmp(&target) {
                std::cmp::Ordering::Less => rank += shard.read().file().len(),
                std::cmp::Ordering::Equal => rank += shard.read().file().rank(key),
                std::cmp::Ordering::Greater => break,
            }
        }
        rank
    }

    /// Runs the full paper invariant checker on every shard.
    pub fn check_invariants(&self) -> Result<(), Vec<(usize, InvariantViolation)>> {
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            if let Err(vs) = shard.read().file().check_invariants() {
                out.extend(vs.into_iter().map(|v| (s, v)));
            }
        }
        if out.is_empty() {
            Ok(())
        } else {
            Err(out)
        }
    }

    /// One [`OpStats`] for the whole structure: every shard's stats folded
    /// together with [`OpStats::merge`] (sums and histograms add, extremes
    /// take the max). Per-shard consistent — each shard's read lock is held
    /// only while that shard is folded in, like [`len`](Self::len).
    pub fn merged_op_stats(&self) -> OpStats {
        let mut out = OpStats::default();
        for shard in &self.shards {
            out.merge(shard.read().file().op_stats());
        }
        out
    }

    /// Runs `f` against one shard under its read lock (metrics,
    /// diagnostics).
    pub fn with_shard<T>(&self, shard: usize, f: impl FnOnce(&S) -> T) -> T {
        f(&self.shards[shard].read())
    }

    /// Makes every applied command on every shard durable (closing any
    /// open commit window); a no-op in memory.
    ///
    /// # Errors
    ///
    /// The first shard's [`DurableError`]; later shards are not synced.
    pub fn sync(&self) -> Result<(), DurableError> {
        self.shards.iter().try_for_each(|s| s.write().sync())
    }
}

impl<V: Clone> ShardedFile<V> {
    /// Creates `shards` in-memory stripes, each an empty dense file built
    /// from `per_shard` (so total capacity is `shards × d·M`).
    pub fn new(shards: u32, per_shard: DenseFileConfig) -> Result<Self, DsfError> {
        let files = (0..shards)
            .map(|_| DenseFile::new(per_shard))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_shards(files))
    }

    /// Bulk-loads strictly-ascending records, each stripe receiving its
    /// key range via [`DenseFile::bulk_load`] — so every shard starts from
    /// the uniform-density spread of Theorem 5.5, exactly as a single
    /// dense file would (incremental inserts leave a different physical
    /// layout).
    ///
    /// # Errors
    ///
    /// Any per-shard [`DenseFile::bulk_load`] error (shard not empty,
    /// records out of order, or one stripe over its `d·M` capacity).
    /// Stripes loaded before the failing one keep their records.
    pub fn bulk_load<I>(&self, items: I) -> Result<(), DsfError>
    where
        I: IntoIterator<Item = (u64, V)>,
    {
        let n = self.router.shards as usize;
        let mut parts: Vec<Vec<(u64, V)>> = (0..n).map(|_| Vec::new()).collect();
        for (k, v) in items {
            parts[self.router.shard_of(k)].push((k, v));
        }
        for (s, part) in parts.into_iter().enumerate() {
            if !part.is_empty() {
                self.shards[s].write().bulk_load(part)?;
            }
        }
        Ok(())
    }

    /// Inserts a record into its stripe.
    ///
    /// # Errors
    ///
    /// [`DsfError::CapacityExceeded`] when the *stripe* is full — range
    /// partitioning means a skewed workload can exhaust one stripe early.
    pub fn insert(&self, key: u64, value: V) -> Result<Option<V>, DsfError> {
        let s = self.router.shard_of(key);
        self.shard_commands[s].inc();
        self.lock_write(s).insert(key, value)
    }

    /// Deletes a key from its stripe.
    pub fn remove(&self, key: &u64) -> Option<V> {
        let s = self.router.shard_of(*key);
        self.shard_commands[s].inc();
        self.lock_write(s).remove(key)
    }

    /// Applies a batch of commands, partitioned by stripe and executed
    /// **in parallel**: every shard the batch touches gets one scoped
    /// thread that runs its sub-batch through
    /// [`apply_shard_batch`](Self::apply_shard_batch) — one lock
    /// acquisition per shard per batch instead of one per command.
    ///
    /// Outcomes are returned in the caller's command order. Equivalence
    /// with one-at-a-time application holds because stripes are
    /// key-disjoint (commands on different shards commute) and each
    /// shard's sub-batch preserves the caller's relative order.
    pub fn apply_batch(&self, cmds: &[Command<u64, V>]) -> Vec<CommandOutcome<V>>
    where
        V: Send + Sync,
    {
        self.apply_batch_with(cmds, |_, _, _| {})
    }

    /// [`apply_batch`](Self::apply_batch) with a per-command observer,
    /// called with `(caller_index, outcome, flight_seq)` on the applying
    /// shard's thread immediately after each command completes —
    /// `flight_seq` is [`dsf_flight::current_seq`] at that instant (0 when
    /// the recorder is off), which is exactly the sequence number the
    /// flight ring attributed the command's page charges to.
    ///
    /// The observer may be called from several shard threads concurrently
    /// (hence `Fn + Sync`), but for any single caller index it is called
    /// exactly once.
    pub fn apply_batch_with<F>(
        &self,
        cmds: &[Command<u64, V>],
        observe: F,
    ) -> Vec<CommandOutcome<V>>
    where
        V: Send + Sync,
        F: Fn(usize, &CommandOutcome<V>, u64) + Sync,
    {
        // Partition by stripe, remembering each command's original index.
        type Part<V> = (Vec<usize>, Vec<Command<u64, V>>);
        let n_shards = self.router.shards as usize;
        let mut parts: Vec<Part<V>> = (0..n_shards).map(|_| (Vec::new(), Vec::new())).collect();
        for (i, cmd) in cmds.iter().enumerate() {
            let s = self.router.shard_of(*cmd.key());
            parts[s].0.push(i);
            parts[s].1.push(cmd.clone());
        }
        let observe = &observe;
        let results: Vec<(Vec<usize>, Vec<CommandOutcome<V>>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts
                .into_iter()
                .enumerate()
                .filter(|(_, (idx, _))| !idx.is_empty())
                .map(|(s, (idx, sub))| {
                    scope.spawn(move || {
                        let outcomes = self
                            .apply_shard_batch(s, &sub, Durability::Relaxed, |j, o, seq| {
                                observe(idx[j], o, seq)
                            })
                            .expect("in-memory shards never fail");
                        (idx, outcomes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard batch panicked"))
                .collect()
        });
        // Scatter the per-shard outcomes back into caller order.
        let mut out: Vec<Option<CommandOutcome<V>>> = (0..cmds.len()).map(|_| None).collect();
        for (idx, outcomes) in results {
            for (i, o) in idx.into_iter().zip(outcomes) {
                out[i] = Some(o);
            }
        }
        out.into_iter()
            .map(|o| o.expect("every command routes to exactly one shard"))
            .collect()
    }

    /// Streams records with keys in `[lo, hi]` in ascending order into `f`,
    /// visiting shards in key order. Per-shard consistent: each shard's
    /// read lock is held only while that shard streams.
    pub fn scan<F: FnMut(u64, &V)>(&self, lo: u64, hi: u64, mut f: F) {
        let first = self.router.shard_of(lo);
        let last = self.router.shard_of(hi);
        for s in first..=last {
            let shard = self.shards[s].read();
            let from = lo.max(self.router.shard_start(s));
            for (k, v) in shard.range(from..=hi) {
                f(*k, v);
            }
        }
    }
}

impl<V: Codec + Clone> ShardedFile<V, DurableFile<u64, V>> {
    /// Creates `shards` fresh durable stripes under `root`, one
    /// [`DurableFile`] per `<root>/shard-<i>`, with optimistic reads
    /// enabled. Fails if any shard directory already holds a checkpoint.
    pub fn create(
        root: impl AsRef<Path>,
        shards: u32,
        per_shard: DenseFileConfig,
        policy: SyncPolicy,
    ) -> Result<Self, DurableError> {
        let file = Self::create_on(StdFs, root, shards, per_shard, policy)?;
        file.enable_optimistic_reads();
        Ok(file)
    }

    /// Recovers an existing store, optimistic reads enabled: opens
    /// `shard-0`, `shard-1`, … until a directory is missing. At least
    /// `shard-0` must exist.
    pub fn open(root: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self, DurableError> {
        let root = root.as_ref();
        let mut files = Vec::new();
        loop {
            let dir = root.join(format!("shard-{}", files.len()));
            if !dir.is_dir() {
                break;
            }
            files.push(DurableFile::open(dir, policy)?);
        }
        if files.is_empty() {
            return Err(DurableError::NotInitialized);
        }
        let file = Self::from_shards(files);
        file.enable_optimistic_reads();
        Ok(file)
    }
}

impl<V: Codec + Clone, F: Vfs> ShardedFile<V, DurableFile<u64, V, F>> {
    /// Creates `shards` fresh durable stripes under `root` on an explicit
    /// [`Vfs`] — the injection point for fault and latency filesystems.
    /// Optimistic reads start disabled: every read takes the shard lock
    /// until [`enable_optimistic_reads`](Self::enable_optimistic_reads).
    pub fn create_on(
        fs: F,
        root: impl AsRef<Path>,
        shards: u32,
        per_shard: DenseFileConfig,
        policy: SyncPolicy,
    ) -> Result<Self, DurableError> {
        let root = root.as_ref();
        let files = (0..shards)
            .map(|s| {
                DurableFile::create_with(
                    fs.clone(),
                    root.join(format!("shard-{s}")),
                    per_shard,
                    policy,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_shards(files))
    }

    /// The directory the shards live under.
    pub fn root(&self) -> PathBuf {
        let shard0 = self.shards[0].read();
        let root = shard0.dir().parent().expect("shards live under the root");
        root.to_path_buf()
    }
}

impl<V: Codec + Clone> ShardedFile<V> {
    /// Writes a globally consistent snapshot: takes *all* shard read locks
    /// before serializing any of them, so the result is a point-in-time
    /// image of the whole map (writers wait; readers proceed).
    pub fn write_snapshot<W: std::io::Write>(
        &self,
        w: &mut W,
    ) -> Result<(), dsf_core::SnapshotError> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        (guards.len() as u32).encode_to(w)?;
        for g in &guards {
            let mut bytes = Vec::new();
            g.write_snapshot(&mut bytes)?;
            (bytes.len() as u64).encode_to(w)?;
            w.write_all(&bytes).map_err(dsf_core::SnapshotError::Io)?;
        }
        Ok(())
    }

    /// Restores a sharded file written by [`ShardedFile::write_snapshot`].
    pub fn read_snapshot<R: std::io::Read>(r: &mut R) -> Result<Self, dsf_core::SnapshotError> {
        let mut all = Vec::new();
        r.read_to_end(&mut all)
            .map_err(dsf_core::SnapshotError::Io)?;
        let mut input = all.as_slice();
        let shards = read_u32(&mut input)?;
        if shards == 0 {
            return Err(dsf_core::SnapshotError::Corrupt("zero shards"));
        }
        let router = Router::new(shards);
        let mut v = Vec::with_capacity(shards as usize);
        for shard in 0..shards as usize {
            let len = read_u64(&mut input)? as usize;
            if input.len() < len {
                return Err(dsf_core::SnapshotError::Corrupt("short shard payload"));
            }
            let (head, tail) = input.split_at(len);
            input = tail;
            let mut head = head;
            let file: DenseFile<u64, V> = DenseFile::read_snapshot(&mut head)?;
            // The outer framing carries no checksum, so a reordered or
            // forged snapshot could place keys in the wrong stripe — where
            // routing would silently miss them. Reject any shard whose key
            // range escapes its stripe.
            let in_stripe = |kv: (&u64, &V)| router.shard_of(*kv.0) == shard;
            if !(file.first().is_none_or(in_stripe) && file.last().is_none_or(in_stripe)) {
                return Err(dsf_core::SnapshotError::Corrupt(
                    "shard contents outside its key stripe",
                ));
            }
            v.push(file);
        }
        if !input.is_empty() {
            return Err(dsf_core::SnapshotError::Corrupt("trailing bytes"));
        }
        Ok(Self::from_shards(v))
    }
}

/// Tiny write-side helpers (the core `Codec` writes into a `Vec`; here we
/// stream straight to the writer).
trait EncodeTo {
    fn encode_to<W: std::io::Write>(&self, w: &mut W) -> Result<(), dsf_core::SnapshotError>;
}

impl EncodeTo for u32 {
    fn encode_to<W: std::io::Write>(&self, w: &mut W) -> Result<(), dsf_core::SnapshotError> {
        w.write_all(&self.to_le_bytes())
            .map_err(dsf_core::SnapshotError::Io)
    }
}

impl EncodeTo for u64 {
    fn encode_to<W: std::io::Write>(&self, w: &mut W) -> Result<(), dsf_core::SnapshotError> {
        w.write_all(&self.to_le_bytes())
            .map_err(dsf_core::SnapshotError::Io)
    }
}

fn read_u32(input: &mut &[u8]) -> Result<u32, dsf_core::SnapshotError> {
    if input.len() < 4 {
        return Err(dsf_core::SnapshotError::Corrupt("short header"));
    }
    let (head, tail) = input.split_at(4);
    *input = tail;
    Ok(u32::from_le_bytes(head.try_into().expect("four bytes")))
}

fn read_u64(input: &mut &[u8]) -> Result<u64, dsf_core::SnapshotError> {
    if input.len() < 8 {
        return Err(dsf_core::SnapshotError::Corrupt("short header"));
    }
    let (head, tail) = input.split_at(8);
    *input = tail;
    Ok(u64::from_le_bytes(head.try_into().expect("eight bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn file(shards: u32) -> ShardedFile<u64> {
        ShardedFile::new(shards, DenseFileConfig::control2(32, 8, 40)).unwrap()
    }

    #[test]
    fn routing_covers_the_whole_key_space() {
        let f = file(5);
        assert_eq!(f.shard_of(0), 0);
        assert_eq!(f.shard_of(u64::MAX), 4);
        // Boundaries are monotone.
        let mut prev = 0;
        for k in (0..64).map(|i| i * (u64::MAX / 63)) {
            let s = f.shard_of(k);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    #[should_panic(expected = "routed elsewhere")]
    fn shard_batch_refuses_a_key_of_another_stripe() {
        let f = file(4);
        let stripe = u64::MAX / 4 + 1;
        let _ = f.apply_shard_batch(
            0,
            &[Command::Insert(stripe, 1)],
            Durability::Relaxed,
            |_, _, _| {},
        );
    }

    #[test]
    fn basic_map_semantics() {
        let f = file(4);
        assert_eq!(f.insert(1, 10).unwrap(), None);
        assert_eq!(f.insert(u64::MAX / 2, 20).unwrap(), None);
        assert_eq!(f.insert(u64::MAX - 5, 30).unwrap(), None);
        assert_eq!(f.insert(1, 11).unwrap(), Some(10));
        assert_eq!(f.len(), 3);
        assert_eq!(f.get(1), Some(11));
        assert!(f.contains_key(&(u64::MAX - 5)));
        assert_eq!(f.remove(&1), Some(11));
        assert_eq!(f.remove(&1), None);
        f.check_invariants().unwrap();
    }

    #[test]
    fn scans_cross_shard_boundaries_in_order() {
        let f = file(8);
        let stripe = u64::MAX / 8 + 1;
        // 70 keys spread over ~7 stripes (stays well inside u64).
        let keys: Vec<u64> = (0..70u64).map(|i| i * (stripe / 10)).collect();
        for &k in &keys {
            f.insert(k, k).unwrap();
        }
        let got: Vec<u64> = f
            .collect_range(0, u64::MAX, usize::MAX)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let mut want = keys.clone();
        want.sort_unstable();
        want.dedup();
        assert_eq!(got, want);
        // Bounded range crossing one boundary.
        let lo = stripe - 5 * (stripe / 10);
        let hi = stripe + 5 * (stripe / 10);
        let got = f.collect_range(lo, hi, usize::MAX);
        assert!(got.iter().all(|(k, _)| *k >= lo && *k <= hi));
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        // Limit applies across shards.
        assert_eq!(f.collect_range(0, u64::MAX, 7).len(), 7);
    }

    #[test]
    fn rank_spans_shards() {
        let f = file(4);
        let stripe = u64::MAX / 4 + 1;
        for i in 0..40u64 {
            f.insert(i * (stripe / 10), i).unwrap();
        }
        assert_eq!(f.rank(&0), 0);
        assert_eq!(f.rank(&u64::MAX), 40);
        for probe in [stripe / 2, stripe * 2, stripe * 3 + 17] {
            let want = (0..40u64).filter(|i| i * (stripe / 10) < probe).count() as u64;
            assert_eq!(f.rank(&probe), want, "rank({probe})");
        }
    }

    #[test]
    fn capacity_is_per_stripe() {
        let f = ShardedFile::<u64>::new(2, DenseFileConfig::control2(2, 1, 8)).unwrap();
        assert_eq!(f.capacity(), 4);
        // Fill shard 0 only: two keys fit, the third fails even though
        // shard 1 is empty.
        f.insert(0, 0).unwrap();
        f.insert(1, 0).unwrap();
        assert!(matches!(
            f.insert(2, 0),
            Err(DsfError::CapacityExceeded { .. })
        ));
        // Shard 1 still accepts.
        f.insert(u64::MAX, 0).unwrap();
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn parallel_writers_on_distinct_stripes() {
        let f = Arc::new(file(8));
        let stripe = u64::MAX / 8 + 1;
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                let base = t * stripe;
                for i in 0..200u64 {
                    f.insert(base + i * 1000, t).unwrap();
                }
                for i in 0..100u64 {
                    assert_eq!(f.remove(&(base + i * 2000)), Some(t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.len(), 8 * 100);
        f.check_invariants().unwrap();
        let all = f.collect_range(0, u64::MAX, usize::MAX);
        assert_eq!(all.len(), 800);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sharded_snapshot_round_trip() {
        let f = file(4);
        for i in 0..200u64 {
            f.insert(i * (u64::MAX / 256), i).unwrap();
        }
        let mut bytes = Vec::new();
        f.write_snapshot(&mut bytes).unwrap();
        let g: ShardedFile<u64> = ShardedFile::read_snapshot(&mut bytes.as_slice()).unwrap();
        assert_eq!(g.shard_count(), 4);
        assert_eq!(g.len(), f.len());
        let a = f.collect_range(0, u64::MAX, usize::MAX);
        let b = g.collect_range(0, u64::MAX, usize::MAX);
        assert_eq!(a, b);
        g.check_invariants().unwrap();

        // Corruption is rejected.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n / 2] ^= 0xff;
        assert!(ShardedFile::<u64>::read_snapshot(&mut bad.as_slice()).is_err());
        assert!(ShardedFile::<u64>::read_snapshot(&mut &bytes[..n / 3]).is_err());

        // A reordered snapshot (shard payloads swapped) must be rejected:
        // its keys would live outside their router stripes.
        let mut fresh: Vec<ShardedFile<u64>> = Vec::new();
        let _ = &mut fresh;
        let mut input = &bytes[4..];
        let mut payloads: Vec<&[u8]> = Vec::new();
        for _ in 0..4 {
            let len = u64::from_le_bytes(input[..8].try_into().unwrap()) as usize;
            payloads.push(&input[..8 + len]);
            input = &input[8 + len..];
        }
        payloads.swap(0, 3);
        let mut forged = bytes[..4].to_vec();
        for p in payloads {
            forged.extend_from_slice(p);
        }
        assert!(
            ShardedFile::<u64>::read_snapshot(&mut forged.as_slice()).is_err(),
            "reordered shards must be rejected"
        );
    }

    #[test]
    fn collect_range_limit_takes_the_lowest_keys() {
        let f = file(8);
        let stripe = u64::MAX / 8 + 1;
        for i in 0..300u64 {
            f.insert(i * (stripe / 41), i).unwrap();
        }
        let all = f.collect_range(0, u64::MAX, usize::MAX);
        assert_eq!(all.len(), 300);
        assert_eq!(f.collect_range(0, u64::MAX, 13), all[..13]);
    }

    #[test]
    fn cross_boundary_ranges_stay_sorted_under_concurrent_inserts() {
        // Satellite acceptance: a range spanning shard boundaries must
        // return globally sorted, in-bounds keys while writers hammer the
        // same stripes.
        let f = Arc::new(ShardedFile::<u64>::new(8, DenseFileConfig::control2(64, 8, 40)).unwrap());
        let stripe = u64::MAX / 8 + 1;
        for i in 0..400u64 {
            f.insert(i * (stripe / 53), i).unwrap();
        }
        let lo = stripe / 2; // middle of shard 0
        let hi = stripe * 5 + stripe / 2; // middle of shard 5
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let f = Arc::clone(&f);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // Each writer walks its own stripe (t and t+4), so
                        // inserts land on both sides of the scanned range.
                        let shard = if i.is_multiple_of(2) { t } else { t + 4 };
                        let k = shard * stripe + stripe / 4 + i * 7919 + 1;
                        let _ = f.insert(k, t);
                        i = (i + 1) % 400;
                    }
                })
            })
            .collect();
        for _ in 0..60 {
            let result = f.collect_range(lo, hi, usize::MAX);
            assert!(
                result.windows(2).all(|w| w[0].0 < w[1].0),
                "out-of-order keys in cross-boundary range"
            );
            assert!(result.iter().all(|(k, _)| *k >= lo && *k <= hi));
            assert!(!result.is_empty());
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn merged_op_stats_aggregates_all_shards() {
        let f = file(4);
        let stripe = u64::MAX / 4 + 1;
        for i in 0..80u64 {
            f.insert(i * (stripe / 30), i).unwrap();
        }
        for i in 0..10u64 {
            assert!(f.remove(&(i * (stripe / 30))).is_some());
        }
        let merged = f.merged_op_stats();
        let mut want_commands = 0;
        let mut want_total = 0;
        let mut want_max = 0;
        for s in 0..f.shard_count() as usize {
            f.with_shard(s, |shard| {
                want_commands += shard.op_stats().commands;
                want_total += shard.op_stats().total_accesses;
                want_max = want_max.max(shard.op_stats().max_accesses);
            });
        }
        assert_eq!(merged.commands, 90);
        assert_eq!(merged.commands, want_commands);
        assert_eq!(merged.total_accesses, want_total);
        assert_eq!(merged.max_accesses, want_max);
        assert_eq!(merged.histogram.total(), want_commands);
    }

    #[test]
    fn optimistic_reads_match_locked_reads() {
        let f = file(4);
        let stripe = u64::MAX / 4 + 1;
        for i in 0..200u64 {
            f.insert(i * (stripe / 60), i).unwrap();
        }
        assert!(f.shard_view(0).is_none());
        f.enable_optimistic_reads();
        assert!(f.shard_view(0).is_some());
        // Mutate after enabling: views must track every command boundary.
        for i in 0..100u64 {
            f.insert(i * (stripe / 60) + 7, 1000 + i).unwrap();
        }
        for i in (0..200u64).step_by(3) {
            f.remove(&(i * (stripe / 60)));
        }
        for i in 0..100u64 {
            let k = i * (stripe / 60) + 7;
            assert_eq!(f.get(k), Some(1000 + i));
            let locked = f.shards[f.shard_of(k)].read().get(&k).cloned();
            assert_eq!(f.get(k), locked);
        }
        assert_eq!(f.get(stripe / 2 + 1), None);
        // Range collections agree with the locked stream exactly.
        let opt = f.collect_range(0, u64::MAX, usize::MAX);
        let mut locked = Vec::new();
        f.scan(0, u64::MAX, |k, v| locked.push((k, *v)));
        assert_eq!(opt, locked);
        assert_eq!(f.collect_range(0, u64::MAX, 17).len(), 17);
    }

    #[test]
    fn optimistic_reads_fall_back_on_conflict() {
        let f = file(2);
        for i in 0..100u64 {
            f.insert(i * 1000, i).unwrap();
        }
        f.enable_optimistic_reads();
        let before = f.collect_range(0, u64::MAX, usize::MAX);
        // Poison shard 0's epoch: every optimistic attempt conflicts, and
        // reads must transparently take the shard lock instead.
        let view = f.shard_view(0).unwrap();
        view.poison_epoch_for_test();
        assert_eq!(f.get(0), Some(0));
        assert_eq!(f.get(1), None);
        assert_eq!(f.collect_range(0, u64::MAX, usize::MAX), before);
        view.unpoison_epoch_for_test();
        assert_eq!(f.collect_range(0, u64::MAX, usize::MAX), before);
    }

    #[test]
    fn optimistic_readers_race_real_writers() {
        let f = Arc::new(file(4));
        let stripe = u64::MAX / 4 + 1;
        for i in 0..400u64 {
            f.insert(i * (u64::MAX / 400), i).unwrap();
        }
        f.enable_optimistic_reads();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2u64)
            .map(|t| {
                let f = Arc::clone(&f);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let shard = if i.is_multiple_of(2) { t } else { t + 2 };
                        let k = shard * stripe + stripe / 3 + i * 6151 + 1;
                        let _ = f.insert(k, t);
                        let _ = f.remove(&k);
                        i = (i + 1) % 500;
                    }
                })
            })
            .collect();
        for round in 0..200 {
            // Point gets on keys the writers never touch: always present.
            let k = (round % 400) * (u64::MAX / 400);
            assert_eq!(f.get(k), Some(round % 400), "stable key vanished");
            let got = f.collect_range(0, u64::MAX, usize::MAX);
            assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "optimistic range out of order"
            );
            assert!(got.len() >= 400, "stable keys missing from range");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        f.check_invariants().unwrap();
    }

    #[test]
    fn readers_run_against_concurrent_writers() {
        let f = Arc::new(file(4));
        for i in 0..400u64 {
            f.insert(i * (u64::MAX / 400), i).unwrap();
        }
        let writer = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                // Spread writes over all stripes to stay within per-stripe
                // capacity.
                for i in 0..500u64 {
                    f.insert(i * (u64::MAX / 512) + 13, i).unwrap();
                }
            })
        };
        // Readers: scans must always be internally sorted even mid-write.
        for _ in 0..50 {
            let got = f.collect_range(0, u64::MAX, 10_000);
            assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        }
        writer.join().unwrap();
        f.check_invariants().unwrap();
        assert!(f.merged_op_stats().max_accesses > 0);
    }
}
