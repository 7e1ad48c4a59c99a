//! Server metrics, registered in the process-global `dsf-telemetry`
//! registry (all `dsf_server_*`; see `docs/OBSERVABILITY.md`). Handles
//! are resolved once per server and shared; like every other site in the
//! workspace they are ~free while the registry is disabled.

use dsf_flight::request::{Phase, TraceCtx};
use dsf_telemetry::{Counter, Gauge, Histogram};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Cap on live per-client label sets in the exposition. Connections past
/// the cap share one `client="overflow"` counter instead of minting a new
/// label — a churning workload (E18 opens thousands of short-lived
/// connections) must not grow the registry without bound.
pub const MAX_CLIENT_LABELS: usize = 64;

/// The server's pre-resolved metric handles.
pub struct ServerTel {
    /// `dsf_server_connections_total` — connections accepted.
    pub connections: Arc<Counter>,
    /// `dsf_server_requests_total` — request frames decoded.
    pub requests: Arc<Counter>,
    /// `dsf_server_group_commits_total` — batches applied (each is one
    /// group apply / group commit).
    pub group_commits: Arc<Counter>,
    /// `dsf_server_batch_commands` — commands per applied batch; its
    /// mean is the experiment's "commands per group commit".
    pub batch_commands: Arc<Histogram>,
    /// `dsf_server_request_micros` — enqueue→reply latency of
    /// structural requests, server side.
    pub request_micros: Arc<Histogram>,
    /// `dsf_server_queue_depth{shard=…}` — commands queued on the shard
    /// and not yet drained by a leader.
    pub queue_depth: Vec<Arc<Gauge>>,
    /// `dsf_server_protocol_errors_total` — frames that failed to parse.
    pub protocol_errors: Arc<Counter>,
    /// `dsf_trace_phase_micros{phase=…}` — per-phase request-trace time,
    /// indexed by `Phase as usize`. Fed from finished timelines on the
    /// connection thread ([`ServerTel::finish_trace`]), so the exposition
    /// carries the same attribution the flight log does.
    pub phase_micros: Vec<Arc<Histogram>>,
    /// Connection ids currently holding a live per-client label
    /// (see [`MAX_CLIENT_LABELS`]).
    client_labels: Mutex<HashSet<u64>>,
}

impl ServerTel {
    /// Resolves every handle against the global registry.
    pub fn new(shards: usize) -> Arc<ServerTel> {
        let reg = dsf_telemetry::global();
        Arc::new(ServerTel {
            connections: reg.counter(
                "dsf_server_connections_total",
                "client connections accepted by dsf serve",
            ),
            requests: reg.counter(
                "dsf_server_requests_total",
                "request frames decoded across all connections",
            ),
            group_commits: reg.counter(
                "dsf_server_group_commits_total",
                "accumulator batches applied (one group apply/commit each)",
            ),
            batch_commands: reg.histogram(
                "dsf_server_batch_commands",
                "commands per applied accumulator batch",
            ),
            request_micros: reg.histogram(
                "dsf_server_request_micros",
                "enqueue-to-reply latency of structural requests (us)",
            ),
            queue_depth: (0..shards)
                .map(|s| {
                    reg.gauge_with(
                        "dsf_server_queue_depth",
                        &[("shard", &s.to_string())],
                        "live accumulator queue depth",
                    )
                })
                .collect(),
            protocol_errors: reg.counter(
                "dsf_server_protocol_errors_total",
                "request frames rejected by the wire protocol",
            ),
            phase_micros: Phase::ALL
                .iter()
                .map(|p| {
                    reg.histogram_with(
                        "dsf_trace_phase_micros",
                        &[("phase", p.name())],
                        "per-request time attributed to each trace phase (us)",
                    )
                })
                .collect(),
            client_labels: Mutex::new(HashSet::new()),
        })
    }

    /// Per-client command counter (`dsf_server_client_commands_total`),
    /// labelled by connection id — or by `client="overflow"` once
    /// [`MAX_CLIENT_LABELS`] connections hold live labels, so churning
    /// clients cannot grow the exposition without bound. Labels are
    /// released by [`ServerTel::retire_client`] when the connection's
    /// thread exits.
    pub fn client_commands(&self, client: u64) -> Arc<Counter> {
        let help = "structural commands acked, per client connection";
        let mut live = self.client_labels.lock().unwrap_or_else(|e| e.into_inner());
        if live.contains(&client) || live.len() < MAX_CLIENT_LABELS {
            live.insert(client);
            dsf_telemetry::global().counter_with(
                "dsf_server_client_commands_total",
                &[("client", &client.to_string())],
                help,
            )
        } else {
            dsf_telemetry::global().counter_with(
                "dsf_server_client_commands_total",
                &[("client", "overflow")],
                help,
            )
        }
    }

    /// Drops `client`'s per-client label from the exposition and frees
    /// its slot under [`MAX_CLIENT_LABELS`]. The `overflow` row is shared
    /// and never retired.
    pub fn retire_client(&self, client: u64) {
        let mut live = self.client_labels.lock().unwrap_or_else(|e| e.into_inner());
        if live.remove(&client) {
            dsf_telemetry::global().retire(
                "dsf_server_client_commands_total",
                &[("client", &client.to_string())],
            );
        }
    }

    /// Finalizes a request timeline on the connection thread, once its
    /// response is written: stamps the
    /// ack-write checkpoint, folds the per-phase times into the
    /// `dsf_trace_phase_micros` histograms, and records the timeline as
    /// one `Request` frame in the flight recorder.
    pub fn finish_trace(&self, ctx: &TraceCtx) {
        ctx.checkpoint(Phase::AckWrite);
        let timeline = ctx.to_timeline();
        if dsf_telemetry::enabled() {
            for p in Phase::ALL {
                let nanos = timeline.phases[p as usize];
                if nanos > 0 {
                    self.phase_micros[p as usize].record(nanos / 1_000);
                }
            }
        }
        dsf_flight::record_request(timeline);
    }
}
