//! `dsf-server` — a pipelined network front-end that turns concurrent
//! clients into group commits.
//!
//! The storage layers below already make batches cheap: `DenseFile`
//! group-applies a sorted batch with one descent per command (PR 5),
//! the WAL turns a batch into one group commit — one `write`, at most
//! one `fsync` (PR 5/PR 6). What none of them answer is where batches
//! *come from*. A single caller has to assemble them by hand; real
//! concurrency arrives as many small independent requests.
//!
//! This crate closes that gap with a deliberately boring stack of
//! std-only pieces:
//!
//! * [`protocol`] — a length-prefixed binary wire format (requests,
//!   responses, a per-request durability flag), hardened against torn,
//!   oversized, and trailing-garbage frames.
//! * [`service`] — [`KvService`], the facade the server fronts, with one
//!   implementation over `dsf_concurrent::ShardedFile`: in memory
//!   (`ShardedFile<Payload>`) or durable ([`DurableKv`], one WAL-backed
//!   `DurableFile` per shard).
//! * [`Payload`] — the 24-byte value every served record keeps: inline
//!   up to 22 bytes, else a shared `Arc<str>`, encoded exactly like a
//!   `String` on disk.
//! * `accumulator` — the heart: per-shard queues drained by
//!   leader/follower group commit. The connection that finds its shard
//!   idle applies *whatever has accumulated* (up to a window) in one
//!   `apply_batch` call on its own thread; the others wait for its
//!   answers. Concurrent clients therefore ride shared fsyncs without
//!   any client-side batching, and without a thread of the server's own.
//! * [`server`] / [`client`] — one run-to-completion thread per TCP
//!   connection, with request pipelining, in-order execution and
//!   in-order responses; graceful shutdown drains every acked command to
//!   disk.
//!
//! Every response to a structural command carries the flight-recorder
//! seq it executed under, so a wire-level ack can be correlated with
//! the in-process audit trail (`dsf-flight`). And while that recorder is
//! on, every request records a wire-to-fsync phase timeline (wire
//! decode → submit → queue wait → lock wait → execute → WAL append →
//! fsync → ack write) into the same ring (`dsf_flight::request`), keyed by a
//! client-propagated trace id ([`Client::send_traced`]) or a
//! server-assigned fallback for legacy clients.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
pub mod client;
pub mod payload;
pub mod protocol;
pub mod server;
pub mod service;
mod tel;

pub use client::Client;
pub use payload::Payload;
pub use protocol::{Outcome, ProtocolError, Request, Response};
pub use server::{Server, ServerConfig};
pub use service::{DurableKv, KvService};
pub use tel::{ServerTel, MAX_CLIENT_LABELS};
