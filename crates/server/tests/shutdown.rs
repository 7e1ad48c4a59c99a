//! Graceful-shutdown durability: after `Server::shutdown()` returns, a
//! fresh process (simulated by reopening the store) must hold every
//! command the server acked — including `Relaxed` ones, whose frames
//! were only buffered in an open commit window at ack time.

use dsf_core::DenseFileConfig;
use dsf_durable::{Durability, SyncPolicy};
use dsf_server::{protocol::Outcome, Client, DurableKv, Request, Response, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dsf-serve-shutdown-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> DenseFileConfig {
    // Capacity is min_density × pages per shard; keep well above the
    // keys a test writes into one shard (all test keys land in shard 0).
    DenseFileConfig::control2(256, 8, 48)
}

/// A long-lived commit window, so `Relaxed` acks are *not* yet on disk
/// when the shutdown starts — the drain itself must make them durable.
fn window() -> SyncPolicy {
    SyncPolicy::CommitWindow {
        max_frames: 10_000,
        max_micros: 60_000_000,
    }
}

#[test]
fn no_acked_command_lost_across_shutdown_and_restart() {
    let root = tempdir("acked");
    let kv = DurableKv::create(&root, 2, cfg(), window()).expect("create");
    let server = Server::bind(Arc::new(kv), ServerConfig::default(), "127.0.0.1:0").expect("bind");

    // Concurrent clients, mixed durability, all acks recorded.
    let handles: Vec<_> = (0..4u64)
        .map(|client| {
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for j in 0..100u64 {
                    let key = client * 1_000 + j;
                    let durability = if j % 4 == 0 {
                        Durability::Strict
                    } else {
                        Durability::Relaxed
                    };
                    c.send(&Request::Insert {
                        key,
                        value: format!("v{key}"),
                        durability,
                    })
                    .unwrap();
                }
                // Drain every ack: after this, all 100 sends were acked.
                while c.in_flight() > 0 {
                    match c.recv().unwrap() {
                        Response::Applied { .. } => {}
                        other => panic!("unexpected: {other:?}"),
                    }
                }
                (client * 1_000..client * 1_000 + 100).collect::<Vec<u64>>()
            })
        })
        .collect();
    let acked: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    server.shutdown().expect("graceful shutdown");

    // "Restart": reopen the same directory and check every acked key.
    let reopened = DurableKv::open(&root, window()).expect("reopen");
    for key in &acked {
        assert_eq!(
            reopened.get(*key).as_deref(),
            Some(format!("v{key}").as_str()),
            "acked key {key} lost across shutdown+restart"
        );
    }
    assert_eq!(reopened.len(), acked.len() as u64);
    let _ = std::fs::remove_dir_all(&root);
}

/// Submits that race the shutdown are either acked (and then durable) or
/// refused with an error — never silently dropped. With one client, and
/// with four clients on one shard, whose connections lead and follow
/// each other's group commits while the shutdown winds them down.
#[test]
fn racing_submits_are_acked_or_refused() {
    for clients in [1, 4] {
        race_shutdown(clients);
    }
}

fn race_shutdown(clients: u64) {
    let root = tempdir(&format!("race-{clients}"));
    let kv = DurableKv::create(&root, 2, cfg(), window()).expect("create");
    let server = Server::bind(Arc::new(kv), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // All keys land in shard 0, within its capacity.
    let per_client = 2_000 / clients;
    let writers: Vec<_> = (0..clients)
        .map(|client| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut acked = Vec::new();
                for key in client * per_client..(client + 1) * per_client {
                    if c.send(&Request::Insert {
                        key,
                        value: format!("v{key}"),
                        durability: Durability::Relaxed,
                    })
                    .is_err()
                    {
                        break; // connection torn down by shutdown: fine
                    }
                    match c.recv() {
                        Ok(Response::Applied { outcome, .. }) => {
                            assert!(matches!(outcome, Outcome::Inserted));
                            acked.push(key);
                        }
                        Ok(Response::Error(_)) | Err(_) => break, // refused: fine
                        Ok(other) => panic!("unexpected: {other:?}"),
                    }
                }
                acked
            })
        })
        .collect();
    // Let some traffic through, then pull the plug mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(50));
    server.shutdown().expect("graceful shutdown");
    let acked: Vec<u64> = writers
        .into_iter()
        .flat_map(|w| w.join().unwrap())
        .collect();
    assert!(!acked.is_empty(), "no traffic got through before shutdown");

    let reopened = DurableKv::open(&root, window()).expect("reopen");
    for key in &acked {
        assert_eq!(
            reopened.get(*key).as_deref(),
            Some(format!("v{key}").as_str()),
            "acked key {key} lost across racing shutdown"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
