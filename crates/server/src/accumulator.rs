//! The per-shard request accumulator: concurrent clients in, group
//! commits out, with no thread of its own.
//!
//! Every structural request is routed (by the service's own stripe
//! function) to its shard's queue. A connection that enqueues commands
//! for a shard then either *leads* or *follows* (leader/follower group
//! commit; DeWitt et al., SIGMOD 1984):
//!
//! * if no batch is in flight on that shard, the connection drains up to
//!   `batch_window` queued commands — its own and other connections' —
//!   and applies them through [`KvService::apply_batch`] on its own
//!   thread. That is exactly one `DenseFile::apply_batch` group apply
//!   and, on the durable backend, one WAL group commit. It then answers
//!   every command of the batch;
//! * otherwise it waits on the shard's condvar until a leader has
//!   answered its commands (or the batch in flight ends and it may lead).
//!
//! Only one batch per shard is ever in flight, as `KvService` requires.
//! The consequence is the paper-facing property the server exists to
//! demonstrate: **the number of fsyncs per command falls with the number
//! of concurrent clients**, because commands that arrive while a leader
//! is fsyncing coalesce into the next batch.
//!
//! *Durability on ack* is decided per batch: a batch is applied `Strict`
//! iff it contains at least one `Strict` request (the WAL closes the
//! commit window once, covering the whole batch — a `Relaxed` request
//! sharing the batch is simply upgraded for free). A batch of only
//! `Relaxed` requests lands in the open commit window and its acks go
//! out before the fsync — which is what `Relaxed` means.
//!
//! *Backpressure* needs no queue bound: a connection reads nothing from
//! its socket while its own commands are in flight, so TCP flow control
//! holds each client back and a shard queue never holds more than
//! connections × `batch_window` commands.

use crate::protocol::Response;
use crate::service::{wire_outcome, KvCommand, KvService};
use crate::tel::ServerTel;
use dsf_durable::Durability;
use dsf_flight::request::{self, Phase, TraceCtx};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One structural request, as a connection hands it to
/// [`Accumulator::commit`].
pub(crate) struct Queued {
    pub cmd: KvCommand,
    pub durability: Durability,
    /// Request timeline, when tracing is on (`dsf_flight::request`).
    pub trace: Option<Arc<TraceCtx>>,
}

/// One queued structural request.
struct Pending {
    write: Queued,
    /// Position in its shard's queue; its reply is filed under it.
    ticket: u64,
    enqueued: Instant,
}

#[derive(Default)]
struct ShardState {
    queue: VecDeque<Pending>,
    /// Whether a leader is applying a batch of this shard.
    leading: bool,
    /// Tickets issued so far.
    issued: u64,
    /// Answers not yet collected by the connection that submitted them.
    replies: HashMap<u64, Response>,
}

#[derive(Default)]
struct ShardQueue {
    state: Mutex<ShardState>,
    /// Signalled whenever a leader finishes a batch.
    answered: Condvar,
}

/// The accumulator: one queue per service shard, shared by every
/// connection thread.
pub(crate) struct Accumulator {
    service: Arc<dyn KvService>,
    batch_window: usize,
    shards: Vec<ShardQueue>,
    tel: Arc<ServerTel>,
}

impl Accumulator {
    /// Builds the queues, one per service shard.
    pub fn new(service: Arc<dyn KvService>, batch_window: usize, tel: Arc<ServerTel>) -> Self {
        assert!(batch_window >= 1, "batch window must hold a command");
        let shards = (0..service.shard_count())
            .map(|_| ShardQueue::default())
            .collect();
        Accumulator {
            service,
            batch_window,
            shards,
            tel,
        }
    }

    /// The service this accumulator feeds.
    pub fn service(&self) -> &Arc<dyn KvService> {
        &self.service
    }

    /// Commits `writes` (one connection's, in request order) and returns
    /// their responses in the same order. Each write is enqueued on its
    /// shard; the caller then leads or follows on every shard it touched
    /// until all of its commands are answered.
    pub fn commit(&self, writes: Vec<Queued>) -> Vec<Response> {
        let n = writes.len();
        // A stable sort by shard keeps each shard's writes in request order.
        let mut routed: Vec<(usize, usize, Queued)> = writes
            .into_iter()
            .enumerate()
            .map(|(i, w)| (self.service.shard_of(*w.cmd.key()), i, w))
            .collect();
        routed.sort_by_key(|&(shard, ..)| shard);
        // (shard, request index, ticket), grouped by shard.
        let mut ours: Vec<(usize, usize, u64)> = Vec::with_capacity(n);
        let mut routed = routed.into_iter().peekable();
        while let Some(&(shard, ..)) = routed.peek() {
            let mut st = self.shards[shard]
                .state
                .lock()
                .expect("shard queue poisoned");
            while let Some((_, i, write)) = routed.next_if(|r| r.0 == shard) {
                if let Some(t) = &write.trace {
                    t.checkpoint(Phase::Submit);
                }
                st.issued += 1;
                let ticket = st.issued;
                st.queue.push_back(Pending {
                    write,
                    ticket,
                    enqueued: Instant::now(),
                });
                ours.push((shard, i, ticket));
            }
            self.tel.queue_depth[shard].set(st.queue.len() as f64);
        }
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        for group in ours.chunk_by(|a, b| a.0 == b.0) {
            let (shard, _, last) = group[group.len() - 1];
            let sq = &self.shards[shard];
            let mut st = sq.state.lock().expect("shard queue poisoned");
            // Batches drain in ticket order and file their answers at
            // once, so `last` answered means all of ours are.
            while !st.replies.contains_key(&last) {
                if st.leading {
                    st = sq.answered.wait(st).expect("shard queue poisoned");
                    continue;
                }
                st.leading = true;
                let take = st.queue.len().min(self.batch_window);
                let batch: Vec<Pending> = st.queue.drain(..take).collect();
                self.tel.queue_depth[shard].set(st.queue.len() as f64);
                drop(st);
                let answers = self.apply(shard, batch);
                st = sq.state.lock().expect("shard queue poisoned");
                st.replies.extend(answers);
                st.leading = false;
                sq.answered.notify_all();
            }
            for &(_, i, ticket) in group {
                out[i] = st.replies.remove(&ticket);
            }
        }
        out.into_iter()
            .map(|r| r.expect("every command answered"))
            .collect()
    }

    /// Applies one drained batch; returns each member's answer under its
    /// ticket.
    fn apply(&self, shard: usize, batch: Vec<Pending>) -> Vec<(u64, Response)> {
        // One Strict passenger upgrades the whole batch: the window
        // closes once and every frame in it becomes durable together.
        let durability = if batch
            .iter()
            .any(|p| p.write.durability == Durability::Strict)
        {
            Durability::Strict
        } else {
            Durability::Relaxed
        };
        // Dequeue = end of each member's queue wait. Batch-level phases
        // (lock wait, execute, WAL append, fsync) are captured once via
        // the leader's thread-local batch context and then added to every
        // member's timeline: each member really did wait out the whole
        // group commit, so the attribution is exact wall-clock, not an
        // amortized share.
        let mut cmds = Vec::with_capacity(batch.len());
        let members: Vec<_> = batch
            .into_iter()
            .map(|p| {
                if let Some(t) = &p.write.trace {
                    t.checkpoint(Phase::QueueWait);
                }
                cmds.push(p.write.cmd);
                (p.ticket, p.write.trace, p.enqueued)
            })
            .collect();
        let mut seqs = vec![0u64; cmds.len()];
        request::batch_begin();
        let result = self
            .service
            .apply_batch(shard, &cmds, durability, &mut |i, _o, seq| {
                seqs[i] = seq;
            });
        let batch_phases = request::batch_finish();
        self.tel.group_commits.inc();
        self.tel.batch_commands.record(cmds.len() as u64);
        let now = Instant::now();
        members
            .into_iter()
            .enumerate()
            .map(|(i, (ticket, trace, enqueued))| {
                if let (Some(t), Some(bp)) = (&trace, &batch_phases) {
                    t.add_batch(bp);
                }
                let rsp = match &result {
                    Ok(outcomes) => {
                        self.tel.request_micros.record(
                            u64::try_from(now.duration_since(enqueued).as_micros())
                                .unwrap_or(u64::MAX),
                        );
                        if let Some(t) = &trace {
                            t.set_seq(seqs[i]);
                        }
                        Response::Applied {
                            outcome: wire_outcome(&outcomes[i]),
                            seq: seqs[i],
                        }
                    }
                    // The backend rolled the batch back (or refused it);
                    // nobody gets an ack, everybody learns why.
                    Err(msg) => Response::Error(format!("batch failed: {msg}")),
                };
                (ticket, rsp)
            })
            .collect()
    }
}
