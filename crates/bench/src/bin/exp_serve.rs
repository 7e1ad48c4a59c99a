//! # E18 — serve: concurrent clients become group commits
//!
//! The server's claim is economic: the per-shard accumulator turns
//! *concurrency into batch size*. While one connection leads a shard's
//! group commit (apply + WAL append + one fsync) on its own thread, every
//! request that other connections submit queues behind it, and the next
//! leader drains them all into the *next* batch — so the more clients
//! are talking, the more commands each fsync pays for.
//!
//! The cost: a connection reads nothing while its own commit is in
//! flight, so N = 8 carries fewer commands per commit than a design
//! whose per-connection readers keep queueing (EXPERIMENTS.md, E18).
//!
//! This experiment measures exactly that. A real [`Server`] listens on a
//! loopback socket over a [`DurableKv`] (one WAL + commit window per
//! shard); `N` client threads each pipeline `Strict` inserts at depth 4
//! and record client-perceived latency per ack. Sweeping `N` yields:
//!
//! * **commands per group commit** (`dsf_server_batch_commands`) — must
//!   rise above 1 as clients are added, and
//! * **fsyncs per command** (`dsf_wal_fsyncs_total` / commands) — must
//!   *fall* as clients are added: the group-commit amortization, on the
//!   wire, at `Strict` durability-on-ack for every single request.
//!
//! Both claims are asserted in-binary at `N = 8` vs `N = 1`, and the two
//! headline ratios are gated by `dsf bench-gate` (`serve_group_commit`,
//! `serve_fsync_amortization`). p50/p99 ack latency is recorded per `N`
//! so the cost of queueing behind a batch is visible, not hidden.
//!
//! Writes `BENCH_serve.json` into the current directory.
//!
//! Run: `cargo run --release -p dsf-bench --bin exp_serve`
//! (add `--quick` for the CI profile).

use dsf_bench::{f, Table};
use dsf_core::DenseFileConfig;
use dsf_durable::{Durability, SyncPolicy};
use dsf_server::{protocol::Outcome, Client, DurableKv, Request, Response, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Requests each client keeps in flight — the `dsf client` default
/// posture: enough to keep the pipe busy, small enough that latency
/// numbers mean "one queued batch", not "a deep local buffer".
const PIPELINE: usize = 4;
/// Accumulator shards (and WALs) the store is split into; clients are
/// assigned round-robin, so every shard sees traffic once N ≥ 2.
const SHARDS: u32 = 2;

struct Row {
    clients: usize,
    commands: u64,
    group_commits: u64,
    cmds_per_commit: f64,
    fsyncs: u64,
    fsyncs_per_cmd: f64,
    throughput: f64,
    p50_us: u64,
    p99_us: u64,
}

fn tempdir(tag: usize) -> PathBuf {
    std::env::temp_dir().join(format!("dsf-exp-serve-{}-{tag}", std::process::id()))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One sweep point: a fresh store and server, `clients` pipelining
/// threads, every insert `Strict` (the ack waits for its fsync).
fn run(clients: usize, keys_per_client: u64) -> Row {
    let root = tempdir(clients);
    let _ = std::fs::remove_dir_all(&root);
    let cfg = DenseFileConfig::control2(1 << 14, 8, 48);
    let policy = SyncPolicy::CommitWindow {
        max_frames: 64,
        max_micros: 2_000,
    };
    let kv = DurableKv::create(&root, SHARDS, cfg, policy).expect("create store");
    let stripe = (u64::MAX / u64::from(SHARDS)).saturating_add(1);
    let server = Server::bind(Arc::new(kv), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // Deltas, not totals: the registry is process-global and this sweep
    // reuses it across runs.
    let reg = dsf_telemetry::global();
    let fsyncs = reg.counter("dsf_wal_fsyncs_total", "");
    let commits = reg.counter("dsf_server_group_commits_total", "");
    let batch = reg.histogram("dsf_server_batch_commands", "");
    let (fsyncs0, commits0) = (fsyncs.get(), commits.get());
    let (batch_n0, batch_sum0) = (batch.count(), batch.sum());

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut cl = Client::connect(addr).expect("connect");
                // Round-robin clients over stripes so every shard (and
                // WAL) carries traffic; key ranges stay disjoint.
                let base = (c as u64 % u64::from(SHARDS)) * stripe + (c as u64) * 1_000_000;
                let mut sent: std::collections::VecDeque<Instant> =
                    std::collections::VecDeque::with_capacity(PIPELINE);
                let mut lat_us: Vec<u64> = Vec::with_capacity(keys_per_client as usize);
                let recv_one = |cl: &mut Client,
                                sent: &mut std::collections::VecDeque<Instant>,
                                lat_us: &mut Vec<u64>| {
                    match cl.recv().expect("recv") {
                        Response::Applied {
                            outcome: Outcome::Inserted,
                            ..
                        } => {}
                        other => panic!("unexpected response: {other:?}"),
                    }
                    let t0 = sent.pop_front().expect("ack without send");
                    lat_us.push(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
                };
                for j in 0..keys_per_client {
                    cl.send(&Request::Insert {
                        key: base + j,
                        value: format!("v{j}"),
                        durability: Durability::Strict,
                    })
                    .expect("send");
                    sent.push_back(Instant::now());
                    if cl.in_flight() >= PIPELINE {
                        recv_one(&mut cl, &mut sent, &mut lat_us);
                    }
                }
                while cl.in_flight() > 0 {
                    recv_one(&mut cl, &mut sent, &mut lat_us);
                }
                lat_us
            })
        })
        .collect();
    let mut lat: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let wall = started.elapsed().as_secs_f64();
    lat.sort_unstable();

    let commands = clients as u64 * keys_per_client;
    assert_eq!(
        lat.len() as u64,
        commands,
        "every insert acked exactly once"
    );
    let group_commits = commits.get() - commits0;
    let batched = batch.sum() - batch_sum0;
    let batches = batch.count() - batch_n0;
    assert_eq!(batched, commands, "batch histogram saw every command");
    assert_eq!(batches, group_commits, "one histogram entry per commit");
    let fsync_delta = fsyncs.get() - fsyncs0;

    server.shutdown().expect("graceful shutdown");
    let _ = std::fs::remove_dir_all(&root);

    Row {
        clients,
        commands,
        group_commits,
        cmds_per_commit: commands as f64 / group_commits.max(1) as f64,
        fsyncs: fsync_delta,
        fsyncs_per_cmd: fsync_delta as f64 / commands.max(1) as f64,
        throughput: commands as f64 / wall,
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("=== E18: dsf serve — concurrent clients become group commits ===");
    println!("profile: {}", if quick { "quick (CI)" } else { "full" });
    println!();
    println!("real loopback sockets, Strict durability-on-ack for every insert,");
    println!("{PIPELINE}-deep pipelining per client, {SHARDS} shards (one WAL each).\n");

    // The WAL fsync counter only ticks while telemetry is on.
    dsf_telemetry::global().enable();

    let keys = if quick { 1_500 } else { 3_000 };
    let sweep: &[usize] = if quick { &[1, 8] } else { &[1, 2, 4, 8, 16] };
    let rows: Vec<Row> = sweep
        .iter()
        .map(|&n| {
            let r = run(n, keys);
            println!(
                "  N={:<2} {:>6} cmds  {:>5} commits  {:>5.2} cmds/commit  {:>6.4} fsyncs/cmd  p99 {:>6} us",
                r.clients, r.commands, r.group_commits, r.cmds_per_commit, r.fsyncs_per_cmd, r.p99_us
            );
            r
        })
        .collect();

    let mut t = Table::new([
        "clients",
        "commands",
        "commits",
        "cmds/commit",
        "fsyncs",
        "fsyncs/cmd",
        "cmds/s",
        "p50 us",
        "p99 us",
    ]);
    for r in &rows {
        t.row([
            r.clients.to_string(),
            r.commands.to_string(),
            r.group_commits.to_string(),
            f(r.cmds_per_commit),
            r.fsyncs.to_string(),
            format!("{:.4}", r.fsyncs_per_cmd),
            f(r.throughput),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
        ]);
    }
    println!();
    t.print("serve sweep — group-commit fan-in vs client count");

    let one = rows.iter().find(|r| r.clients == 1).expect("N=1 ran");
    let eight = rows.iter().find(|r| r.clients == 8).expect("N=8 ran");
    // The two headline claims, asserted where the numbers are made.
    assert!(
        eight.cmds_per_commit > 1.0,
        "8 clients must coalesce: {:.2} cmds/commit",
        eight.cmds_per_commit
    );
    assert!(
        eight.fsyncs_per_cmd < one.fsyncs_per_cmd,
        "concurrency must amortize fsyncs: N=8 {:.4}/cmd vs N=1 {:.4}/cmd",
        eight.fsyncs_per_cmd,
        one.fsyncs_per_cmd
    );
    let amortization = one.fsyncs_per_cmd / eight.fsyncs_per_cmd.max(f64::EPSILON);
    println!();
    println!(
        "group commit at N=8: {:.2} cmds/commit; fsync amortization N=1/N=8: {:.2}x",
        eight.cmds_per_commit, amortization
    );

    let mut json = String::from("{\n  \"experiment\": \"serve\",\n");
    json.push_str(&format!("  \"quick\": {},\n", u8::from(quick)));
    for r in &rows {
        json.push_str(&format!(
            "  \"serve_throughput_n{}\": {:.1},\n  \"serve_cmds_per_commit_n{}\": {:.3},\n  \"serve_fsyncs_per_cmd_n{}\": {:.4},\n  \"serve_p50_micros_n{}\": {},\n  \"serve_p99_micros_n{}\": {},\n",
            r.clients, r.throughput, r.clients, r.cmds_per_commit, r.clients, r.fsyncs_per_cmd,
            r.clients, r.p50_us, r.clients, r.p99_us,
        ));
    }
    json.push_str(&format!(
        "  \"serve_group_commit\": {:.3},\n  \"serve_fsync_amortization\": {:.3},\n",
        eight.cmds_per_commit, amortization
    ));
    json.push_str("  \"claims_ok\": 1\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
