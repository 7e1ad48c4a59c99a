//! [`KvService`] — the storage facade the server fronts.
//!
//! The network layer never touches a file directly: every backend is a
//! `KvService`, a sharded, internally synchronized key→value store whose
//! write path is *batched by construction* — the connection that leads a
//! shard's group commit hands the service a whole batch, and the service
//! applies it on that connection's thread under one shard write-lock
//! acquisition.
//!
//! There is one implementation, over [`ShardedFile`], for either shard
//! type:
//!
//! * `ShardedFile<Payload>` keeps its stripes in memory (benchmarks,
//!   equivalence tests, caches). `Durability` is accepted and ignored
//!   (there is no log) and [`KvService::flush`] has nothing to do.
//! * [`DurableKv`] gives every stripe a [`DurableFile`] in
//!   `<root>/shard-<i>`, so a batch is **one group commit**: every frame
//!   appended, then one `write` (+ one `fsync` when the batch carries a
//!   `Strict` request or the commit window closes).
//!
//! Both keep every value as a [`Payload`] (inline up to 22 bytes), so a
//! record is 32 bytes with no heap pointer of its own. Commands carry
//! `String`s: each command's value becomes a `Payload` once, in
//! [`KvService::apply_batch`]. Reads answer in `Payload`s, the type
//! `ShardedFile::get` returns, and a value becomes a `String` again only
//! where a response is built ([`wire_outcome`], and the server's answer
//! to a get or a scan).
//!
//! Both report the flight-recorder seq of every command to the caller's
//! observer, which is how responses get stamped end-to-end, and both stamp
//! the `LockWait` trace phase whenever a request waits for a shard lock.

use crate::payload::Payload;
use crate::protocol::Outcome;
use dsf_concurrent::{Shard, ShardedFile};
use dsf_core::{Command, CommandOutcome};
use dsf_durable::{Durability, DurableFile, StdFs};

/// The command/value types the wire protocol fixes.
pub type KvCommand = Command<u64, String>;
/// What the store reports for a [`KvCommand`]; an old value stays a
/// [`Payload`] until [`wire_outcome`] builds the response.
pub type KvOutcome = CommandOutcome<Payload>;

/// The durable backend: one WAL-backed [`DurableFile`] per stripe, with
/// its own commit window, under one root directory.
///
/// Generic over the [`Vfs`](dsf_durable::Vfs) its files talk through
/// (default: the real filesystem), so fault- and latency-injecting
/// filesystems can run behind the full server stack unchanged. Build one
/// with `DurableKv::create`, `DurableKv::open` (both with optimistic reads
/// on) or `DurableKv::create_on` (any filesystem, reads locked until
/// `enable_optimistic_reads`).
pub type DurableKv<F = StdFs> = ShardedFile<Payload, DurableFile<u64, Payload, F>>;

/// A sharded key→value store the server can front. Implementations are
/// internally synchronized: `apply_batch` takes `&self` and may be called
/// concurrently for *different* shards (the accumulator guarantees one
/// in-flight batch per shard, whichever connection leads it).
pub trait KvService: Send + Sync + 'static {
    /// Number of independent shards (accumulator queues).
    fn shard_count(&self) -> usize;

    /// The shard `key`'s commands route to (`0 ≤ _ < shard_count`).
    fn shard_of(&self, key: u64) -> usize;

    /// Applies one batch of commands, all of which route to `shard`, with
    /// the requested durability-on-ack: `Strict` returns only after the
    /// batch's frames are fsynced, `Relaxed` as soon as they are applied
    /// and buffered. `observe` fires once per command with
    /// `(index, outcome, flight_seq)` in batch order. A batch for a shard
    /// that does not exist, or holding a key that routes to another shard,
    /// is refused with `Err` and nothing is applied.
    fn apply_batch(
        &self,
        shard: usize,
        cmds: &[KvCommand],
        durability: Durability,
        observe: &mut dyn FnMut(usize, &KvOutcome, u64),
    ) -> Result<Vec<KvOutcome>, String>;

    /// Point lookup (read path; bypasses the accumulator).
    fn get(&self, key: u64) -> Option<Payload>;

    /// At most `limit` records with key ≥ `start`, ascending.
    fn scan(&self, start: u64, limit: usize) -> Vec<(u64, Payload)>;

    /// Total records.
    fn len(&self) -> u64;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes any open commit window and syncs: after `flush` returns,
    /// every previously acked command (including `Relaxed` ones) is
    /// durable. In-memory backends no-op.
    fn flush(&self) -> Result<(), String>;
}

/// Converts a core outcome into its wire form: the one place an old
/// value becomes a `String`.
pub fn wire_outcome(o: &KvOutcome) -> Outcome {
    match o {
        CommandOutcome::Inserted => Outcome::Inserted,
        CommandOutcome::Replaced(old) => Outcome::Replaced(old.into()),
        CommandOutcome::Removed(old) => Outcome::Removed(old.into()),
        CommandOutcome::NotFound => Outcome::NotFound,
        CommandOutcome::Rejected(e) => Outcome::Rejected(e.to_string()),
    }
}

impl<S: Shard<Payload> + Send + Sync + 'static> KvService for ShardedFile<Payload, S> {
    fn shard_count(&self) -> usize {
        ShardedFile::shard_count(self) as usize
    }

    fn shard_of(&self, key: u64) -> usize {
        ShardedFile::shard_of(self, key)
    }

    fn apply_batch(
        &self,
        shard: usize,
        cmds: &[KvCommand],
        durability: Durability,
        observe: &mut dyn FnMut(usize, &KvOutcome, u64),
    ) -> Result<Vec<KvOutcome>, String> {
        if shard >= KvService::shard_count(self) {
            return Err(format!("no shard {shard}"));
        }
        if let Some(c) = cmds.iter().find(|c| self.shard_of(*c.key()) != shard) {
            return Err(format!(
                "key {} routes to shard {}, not {shard}",
                c.key(),
                self.shard_of(*c.key())
            ));
        }
        let cmds: Vec<Command<u64, Payload>> = cmds
            .iter()
            .map(|c| match c {
                Command::Insert(k, v) => Command::Insert(*k, Payload::from(v.as_str())),
                Command::Remove(k) => Command::Remove(*k),
            })
            .collect();
        self.apply_shard_batch(shard, &cmds, durability, observe)
            .map_err(|e| e.to_string())
    }

    fn get(&self, key: u64) -> Option<Payload> {
        ShardedFile::get(self, key)
    }

    fn scan(&self, start: u64, limit: usize) -> Vec<(u64, Payload)> {
        self.collect_range(start, u64::MAX, limit)
    }

    fn len(&self) -> u64 {
        ShardedFile::len(self)
    }

    fn flush(&self) -> Result<(), String> {
        self.sync().map_err(|e| e.to_string())
    }
}
