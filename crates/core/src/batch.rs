//! Batched command application.
//!
//! A caller holding many commands at once (a burst ingest, a replicated-log
//! apply loop, a migration) can hand them to
//! [`DenseFile::apply_batch`] instead of looping over
//! [`insert`](DenseFile::insert)/[`remove`](DenseFile::remove). The batch
//! path executes the commands **in their original order**, each through the
//! full CONTROL 1/CONTROL 2 maintenance pass, chaining each command's
//! *resolved* slot into the next command's calibrator hint — so a run of
//! commands landing in the same page-group pays one `O(1)` hint check per
//! command instead of one root-to-leaf descent, with zero planning
//! allocations. (An earlier revision planned ahead with a sort/dedup pass;
//! profiling showed the planning descents plus the sort dominated the CPU
//! cost of clustered batches, and execution-time chaining gets the same
//! hint-hit rate for free.)
//!
//! What batching amortizes and what it deliberately does not:
//!
//! * amortized — the calibrator descents (each command seeds the next with
//!   its resolved slot, revalidated against the live counters with an
//!   `O(log M)`-worst-case check instead of a fresh descent), and in the
//!   layers above, the WAL write+fsync (group commit in `dsf-durable`),
//!   the shard lock (one acquisition per batch in `dsf-concurrent`), and
//!   buffer-pool evictions (`pin_run` in `dsf-pagestore`);
//! * **not** amortized — the paper's page-access bound. Every command still
//!   runs its own step 1 and its own `J` SHIFT steps, so the
//!   `O(log²M/(D−d))` worst case holds *per command* and the batch costs at
//!   most the sum of its commands' individual bounds. That is what makes
//!   the batched file bit-identical to one-at-a-time application: same
//!   slots, same shifts, same flags, same statistics.

use dsf_pagestore::Key;

use crate::error::DsfError;
use crate::file::DenseFile;

/// One element of a batch: the same structural commands
/// [`DenseFile::insert`] and [`DenseFile::remove`] accept, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<K, V> {
    /// Insert (or replace) `key` with the value.
    Insert(K, V),
    /// Delete `key` if present.
    Remove(K),
}

impl<K, V> Command<K, V> {
    /// The key this command addresses (what batches are sorted by).
    pub fn key(&self) -> &K {
        match self {
            Command::Insert(k, _) => k,
            Command::Remove(k) => k,
        }
    }
}

/// What one batched command did — the batch-shaped mirror of the return
/// values of [`DenseFile::insert`] (`Ok(None)` / `Ok(Some)` / `Err`) and
/// [`DenseFile::remove`] (`Some` / `None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandOutcome<V> {
    /// A new key was inserted (a structural command ran).
    Inserted,
    /// The key existed; its value was replaced (no structural command).
    Replaced(V),
    /// The key was deleted (a structural command ran).
    Removed(V),
    /// A remove missed; nothing changed.
    NotFound,
    /// An insert was refused; nothing changed.
    Rejected(DsfError),
}

impl<V> CommandOutcome<V> {
    /// Whether the command changed the file (and would produce a WAL frame
    /// in the durable layer).
    pub fn is_effective(&self) -> bool {
        matches!(
            self,
            CommandOutcome::Inserted | CommandOutcome::Replaced(_) | CommandOutcome::Removed(_)
        )
    }
}

impl<K: Key, V> DenseFile<K, V> {
    /// Applies a batch of commands, returning one [`CommandOutcome`] per
    /// command in order.
    ///
    /// Equivalent — bit-for-bit, including [`op_stats`](Self::op_stats) and
    /// the per-command worst-case bound — to looping over
    /// [`insert`](Self::insert)/[`remove`](Self::remove) in the same order.
    /// Each command's *resolved* slot becomes the next command's calibrator
    /// hint, revalidated against the live counters before use (commands
    /// move records, so a hint is a hint, never an answer) — clustered
    /// batches resolve most commands with one `O(1)` check instead of a
    /// root-to-leaf descent, and the loop allocates nothing beyond the
    /// outcome vector.
    ///
    /// ```
    /// use dsf_core::{Command, CommandOutcome, DenseFile, DenseFileConfig};
    ///
    /// let mut f: DenseFile<u64, u64> =
    ///     DenseFile::new(DenseFileConfig::control2(64, 8, 40)).unwrap();
    /// let outcomes = f.apply_batch(&[
    ///     Command::Insert(10, 1),
    ///     Command::Insert(20, 2),
    ///     Command::Remove(10),
    ///     Command::Remove(99),
    /// ]);
    /// assert_eq!(outcomes, vec![
    ///     CommandOutcome::Inserted,
    ///     CommandOutcome::Inserted,
    ///     CommandOutcome::Removed(1),
    ///     CommandOutcome::NotFound,
    /// ]);
    /// assert_eq!(f.len(), 1);
    /// ```
    pub fn apply_batch(&mut self, cmds: &[Command<K, V>]) -> Vec<CommandOutcome<V>>
    where
        V: Clone,
    {
        self.apply_batch_with(cmds, |_, _| {})
    }

    /// [`apply_batch`](Self::apply_batch) with a per-command observer,
    /// called with `(index, outcome)` immediately after each command
    /// completes (while the flight recorder's sequence number for that
    /// command is still current). This is the hook the durable layer's
    /// group commit uses to buffer one WAL frame per effective command with
    /// exact per-command cost attribution.
    pub fn apply_batch_with<F>(
        &mut self,
        cmds: &[Command<K, V>],
        mut observe: F,
    ) -> Vec<CommandOutcome<V>>
    where
        V: Clone,
        F: FnMut(usize, &CommandOutcome<V>),
    {
        if dsf_telemetry::enabled() {
            let t = crate::tel::tel();
            t.batch_commands.add(cmds.len() as u64);
            t.batch_size.record(cmds.len() as u64);
        }
        let mut out = Vec::with_capacity(cmds.len());
        // One read-view publication for the whole batch, at its end.
        self.hold_publication();
        // The previous command's resolved slot seeds the next command's
        // hinted descent. Always valid to carry across commands: hints are
        // revalidated (find_slot_hinted provably agrees with find_slot for
        // *any* hint), so a stale or wild hint costs one check, never a
        // wrong slot.
        let mut hint: Option<u32> = None;
        for (i, cmd) in cmds.iter().enumerate() {
            let outcome = match cmd {
                Command::Insert(k, v) => match self.insert_hinted(*k, v.clone(), hint) {
                    Ok((None, slot)) => {
                        hint = Some(slot);
                        CommandOutcome::Inserted
                    }
                    Ok((Some(old), slot)) => {
                        hint = Some(slot);
                        CommandOutcome::Replaced(old)
                    }
                    Err(e) => CommandOutcome::Rejected(e),
                },
                Command::Remove(k) => {
                    let (removed, slot) = self.remove_hinted(k, hint);
                    if let Some(slot) = slot {
                        hint = Some(slot);
                    }
                    match removed {
                        Some(old) => CommandOutcome::Removed(old),
                        None => CommandOutcome::NotFound,
                    }
                }
            };
            observe(i, &outcome);
            out.push(outcome);
        }
        self.release_publication();
        out
    }
}
