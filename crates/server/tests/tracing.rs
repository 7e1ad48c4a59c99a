//! End-to-end request-tracing tests: a real server over loopback, traced
//! clients, and the timeline/exposition invariants the observability
//! stack promises — reconciling phase sums, propagated trace ids,
//! fallback ids for legacy frames, and bounded per-client label
//! cardinality with retirement on disconnect.
//!
//! Tracing and telemetry are process-global, so every test here
//! serializes on one lock (tests within this binary run in parallel).
//! Timelines land in the flight recorder, whose switch turns tracing on.

use dsf_core::DenseFileConfig;
use dsf_durable::{Durability, SyncPolicy};
use dsf_flight::request::{Phase, FALLBACK_ID_BIT};
use dsf_server::{
    Client, DurableKv, Request, Response, Server, ServerConfig, ServerTel, MAX_CLIENT_LABELS,
};
use std::sync::{Arc, Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Snapshots the global flight recorder (the audit budget is irrelevant
/// to these tests).
fn snapshot() -> dsf_flight::FlightLog {
    dsf_flight::snapshot_log(dsf_flight::BoundBudget {
        j: 1,
        k: 1,
        log_slots: 1,
        gap: 1,
    })
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsf-trace-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn traced_requests_yield_reconciling_waterfalls() {
    let _g = lock();
    dsf_flight::clear();
    dsf_flight::enable();
    let dir = tempdir("waterfall");
    let kv = DurableKv::create(
        &dir,
        2,
        DenseFileConfig::control2(32, 8, 48),
        SyncPolicy::CommitWindow {
            max_frames: 64,
            max_micros: 2_000,
        },
    )
    .expect("backend");
    let server = Server::bind(Arc::new(kv), ServerConfig::default(), "127.0.0.1:0").expect("bind");

    let mut c = Client::connect(server.local_addr()).expect("connect");
    let mut ids = Vec::new();
    for k in 0..24u64 {
        let id = c
            .send_traced(&Request::Insert {
                key: k * 1_000,
                value: format!("v{k}"),
                durability: Durability::Strict,
            })
            .expect("send");
        assert_ne!(id, 0, "client ids are always nonzero");
        ids.push(id);
    }
    for _ in 0..ids.len() {
        assert!(matches!(c.recv().expect("recv"), Response::Applied { .. }));
    }
    // A legacy (untraced) request must still get a timeline, under a
    // server-assigned fallback id.
    assert!(matches!(
        c.call(&Request::Insert {
            key: 999_999,
            value: "legacy".into(),
            durability: Durability::Strict,
        })
        .expect("call"),
        Response::Applied { .. }
    ));
    drop(c);
    server.shutdown().expect("shutdown");
    dsf_flight::disable();

    let log = snapshot();
    let attr = log.replay();
    let records: Vec<_> = log.requests().collect();
    for id in &ids {
        let rec = records
            .iter()
            .find(|r| r.id == *id)
            .unwrap_or_else(|| panic!("timeline for trace id {id:#x} missing"));
        // The telescoping construction makes sum(phases) the record's
        // total by definition; what must hold is that the timeline is
        // non-degenerate and the durable phases actually registered.
        assert!(rec.total() > 0, "empty timeline for {id:#x}");
        assert_eq!(rec.kind, 0x01, "insert tag propagated");
        // The timeline names the command it ran as, and the same log
        // holds that command's page cost.
        assert!(
            attr.find(rec.seq).is_some(),
            "timeline {id:#x} joins no command (seq {})",
            rec.seq
        );
    }
    assert!(
        records
            .iter()
            .any(|r| r.id & FALLBACK_ID_BIT != 0 && r.total() > 0),
        "legacy frame got a fallback-id timeline"
    );
    // Strict batches fsync before ack: the fsync and WAL-append phases
    // must carry time somewhere across the run.
    let phase_total = |p: Phase| -> u64 { records.iter().map(|r| r.phases[p as usize]).sum() };
    assert!(phase_total(Phase::Fsync) > 0, "no fsync time attributed");
    assert!(
        phase_total(Phase::WalAppend) > 0,
        "no WAL-append time attributed"
    );
    assert!(
        phase_total(Phase::Execute) > 0,
        "no execute time attributed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracing_off_records_nothing() {
    let _g = lock();
    dsf_flight::disable();
    dsf_flight::clear();
    let dir = tempdir("off");
    let kv = DurableKv::create(
        &dir,
        1,
        DenseFileConfig::control2(32, 8, 48),
        SyncPolicy::CommitWindow {
            max_frames: 64,
            max_micros: 2_000,
        },
    )
    .expect("backend");
    let server = Server::bind(Arc::new(kv), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    for k in 0..8u64 {
        let id = c
            .send_traced(&Request::Insert {
                key: k,
                value: "v".into(),
                durability: Durability::Relaxed,
            })
            .expect("send");
        assert_ne!(id, 0, "the client assigns ids regardless of server state");
    }
    for _ in 0..8 {
        assert!(matches!(c.recv().expect("recv"), Response::Applied { .. }));
    }
    drop(c);
    server.shutdown().expect("shutdown");
    assert_eq!(
        snapshot().events.len(),
        0,
        "disabled tracing must leave the flight ring empty"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_labels_are_capped_and_retired() {
    let _g = lock();
    let reg = dsf_telemetry::global();
    reg.enable();
    let tel = ServerTel::new(1);
    let client_rows = || {
        reg.render_prometheus()
            .lines()
            .filter(|l| l.starts_with("dsf_server_client_commands_total{client="))
            .count()
    };
    let base = client_rows();
    // Register far more clients than the cap allows (ids chosen high to
    // dodge rows other tests' servers may have left).
    let first = 50_000u64;
    for id in first..first + MAX_CLIENT_LABELS as u64 + 16 {
        tel.client_commands(id).inc();
    }
    let text = reg.render_prometheus();
    assert!(
        client_rows() - base <= MAX_CLIENT_LABELS + 1,
        "label cardinality must stay capped"
    );
    assert!(
        text.contains("client=\"overflow\""),
        "past the cap, commands land on the shared overflow row"
    );
    // Retirement frees both the exposition row and the cap slot.
    tel.retire_client(first);
    assert!(
        !reg.render_prometheus()
            .contains(&format!("client=\"{first}\"")),
        "retired client must leave the exposition"
    );
    let freed = first + MAX_CLIENT_LABELS as u64 + 100;
    tel.client_commands(freed).inc();
    assert!(
        reg.render_prometheus()
            .contains(&format!("client=\"{freed}\"")),
        "a freed slot admits a new per-client label"
    );
    // Cleanup so later tests see a quiet registry.
    for id in first..first + MAX_CLIENT_LABELS as u64 + 16 {
        tel.retire_client(id);
    }
    tel.retire_client(freed);
    reg.disable();
}

/// The whole-stack churn scenario: connections come and go, and the
/// exposition does not accumulate one row per dead connection.
#[test]
fn connection_churn_does_not_grow_the_exposition() {
    let _g = lock();
    let reg = dsf_telemetry::global();
    reg.enable();
    let dir = tempdir("churn");
    let kv = DurableKv::create(
        &dir,
        1,
        DenseFileConfig::control2(32, 8, 48),
        SyncPolicy::CommitWindow {
            max_frames: 64,
            max_micros: 2_000,
        },
    )
    .expect("backend");
    let server = Server::bind(Arc::new(kv), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let client_rows = || {
        reg.render_prometheus()
            .lines()
            .filter(|l| {
                l.starts_with("dsf_server_client_commands_total{client=") && !l.contains("overflow")
            })
            .count()
    };
    let before = client_rows();
    for round in 0..12u64 {
        let mut c = Client::connect(server.local_addr()).expect("connect");
        assert!(matches!(
            c.call(&Request::Insert {
                key: round,
                value: "churn".into(),
                durability: Durability::Relaxed,
            })
            .expect("call"),
            Response::Applied { .. }
        ));
    }
    // Shutdown joins every connection thread, so all retirements ran.
    server.shutdown().expect("shutdown");
    assert!(
        client_rows() <= before,
        "dead connections must not leave exposition rows behind"
    );
    reg.disable();
    let _ = std::fs::remove_dir_all(&dir);
}
