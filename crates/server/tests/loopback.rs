//! End-to-end loopback tests: a real `Server` on `127.0.0.1`, real
//! `Client`s, and the acceptance-criteria equivalence check — a
//! pipelined multi-client run must leave the store byte-identical to
//! applying each client's stream directly, in arrival order.

use dsf_concurrent::ShardedFile;
use dsf_core::{Command, DenseFileConfig};
use dsf_durable::Durability;
use dsf_server::{protocol::Outcome, Client, Payload, Request, Response, Server, ServerConfig};
use std::sync::Arc;

fn cfg() -> DenseFileConfig {
    DenseFileConfig::control2(32, 8, 48)
}

fn serve_sharded(shards: u32) -> (Server, Arc<ShardedFile<Payload>>) {
    let file = Arc::new(ShardedFile::new(shards, cfg()).expect("backend"));
    file.enable_optimistic_reads();
    let server = Server::bind(file.clone(), ServerConfig::default(), "127.0.0.1:0").expect("bind");
    (server, file)
}

#[test]
fn ping_and_crud_round_trip() {
    let (server, _file) = serve_sharded(2);
    let mut c = Client::connect(server.local_addr()).expect("connect");

    assert!(matches!(c.call(&Request::Ping).unwrap(), Response::Pong));
    let rsp = c
        .call(&Request::Insert {
            key: 7,
            value: "seven".into(),
            durability: Durability::Strict,
        })
        .unwrap();
    match rsp {
        Response::Applied { outcome, .. } => assert!(matches!(outcome, Outcome::Inserted)),
        other => panic!("unexpected response: {other:?}"),
    }
    assert!(matches!(
        c.call(&Request::Get { key: 7 }).unwrap(),
        Response::Value(Some(v)) if v == "seven"
    ));
    assert!(matches!(
        c.call(&Request::Count).unwrap(),
        Response::Count(1)
    ));
    assert!(matches!(
        c.call(&Request::Get { key: 8 }).unwrap(),
        Response::Value(None)
    ));
    server.shutdown().expect("shutdown");
}

/// Same-key commands from one connection are applied in send order:
/// outcomes must match the sequential model exactly.
#[test]
fn single_connection_preserves_order() {
    let (server, _file) = serve_sharded(2);
    let mut c = Client::connect(server.local_addr()).expect("connect");

    let reqs = [
        Request::Insert {
            key: 5,
            value: "a".into(),
            durability: Durability::Relaxed,
        },
        Request::Insert {
            key: 5,
            value: "b".into(),
            durability: Durability::Relaxed,
        },
        Request::Remove {
            key: 5,
            durability: Durability::Relaxed,
        },
        Request::Remove {
            key: 5,
            durability: Durability::Relaxed,
        },
    ];
    // Fully pipelined: all four in flight before the first reply is read.
    for r in &reqs {
        c.send(r).unwrap();
    }
    let outcomes: Vec<Outcome> = (0..reqs.len())
        .map(|_| match c.recv().unwrap() {
            Response::Applied { outcome, .. } => outcome,
            other => panic!("unexpected response: {other:?}"),
        })
        .collect();
    assert!(matches!(outcomes[0], Outcome::Inserted));
    assert!(matches!(&outcomes[1], Outcome::Replaced(old) if old == "a"));
    assert!(matches!(&outcomes[2], Outcome::Removed(old) if old == "b"));
    assert!(matches!(outcomes[3], Outcome::NotFound));
    assert!(matches!(
        c.call(&Request::Get { key: 5 }).unwrap(),
        Response::Value(None)
    ));
    server.shutdown().expect("shutdown");
}

/// A connection's requests run in request order: a read pipelined
/// behind a write on the same connection, without waiting for the
/// write's ack, sees that write.
#[test]
fn a_pipelined_read_sees_the_write_before_it() {
    const ROUNDS: u64 = 64;
    let (server, _file) = serve_sharded(2);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    for j in (0..2 * ROUNDS).step_by(2) {
        c.send(&Request::Insert {
            key: j,
            value: format!("even{j}"),
            durability: Durability::Relaxed,
        })
        .unwrap();
    }
    for _ in 0..ROUNDS {
        assert!(matches!(c.recv().unwrap(), Response::Applied { .. }));
    }
    for r in 0..ROUNDS {
        let (j, k) = (2 * r, 2 * r + 1);
        let reqs = [
            Request::Insert {
                key: k,
                value: format!("odd{k}"),
                durability: Durability::Relaxed,
            },
            Request::Get { key: k },
            Request::Remove {
                key: j,
                durability: Durability::Relaxed,
            },
            Request::Scan { start: j, limit: 1 },
        ];
        for req in &reqs {
            c.send(req).unwrap();
        }
        assert!(matches!(
            c.recv().unwrap(),
            Response::Applied {
                outcome: Outcome::Inserted,
                ..
            }
        ));
        match c.recv().unwrap() {
            Response::Value(v) => assert_eq!(v, Some(format!("odd{k}")), "get({k}) after insert"),
            other => panic!("unexpected response: {other:?}"),
        }
        assert!(matches!(
            c.recv().unwrap(),
            Response::Applied {
                outcome: Outcome::Removed(_),
                ..
            }
        ));
        match c.recv().unwrap() {
            Response::Entries(e) => {
                assert_eq!(
                    e,
                    vec![(k, format!("odd{k}"))],
                    "scan from {j} after remove"
                )
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    server.shutdown().expect("shutdown");
}

/// The acceptance-criteria equivalence run: N pipelined clients, each on
/// its own shard (so per-shard arrival order is that client's send
/// order), must produce (a) per-key outcomes identical to applying each
/// client's stream directly and (b) a byte-identical snapshot.
#[test]
fn pipelined_clients_equal_direct_batches() {
    const SHARDS: u32 = 4;
    const OPS: usize = 400;
    let (server, file) = serve_sharded(SHARDS);
    let stripe = (u64::MAX / u64::from(SHARDS)).saturating_add(1);

    // Each client's deterministic mixed stream on its own shard: inserts
    // with periodic overwrites and removes so every outcome kind shows up.
    fn stream(client: u64, stripe: u64) -> Vec<Command<u64, String>> {
        let base = client * stripe;
        (0..OPS as u64)
            .map(|j| match j % 5 {
                4 => Command::Remove(base + (j / 2)),
                _ => Command::Insert(base + j % 97, format!("c{client}-{j}")),
            })
            .collect()
    }

    let handles: Vec<_> = (0..u64::from(SHARDS))
        .map(|client| {
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let cmds = stream(client, stripe);
                let mut outcomes = Vec::with_capacity(cmds.len());
                // Pipeline at depth 8.
                for chunk in cmds.chunks(8) {
                    for cmd in chunk {
                        let req = match cmd {
                            Command::Insert(k, v) => Request::Insert {
                                key: *k,
                                value: v.clone(),
                                durability: if k % 3 == 0 {
                                    Durability::Strict
                                } else {
                                    Durability::Relaxed
                                },
                            },
                            Command::Remove(k) => Request::Remove {
                                key: *k,
                                durability: Durability::Relaxed,
                            },
                        };
                        c.send(&req).unwrap();
                    }
                    for _ in chunk {
                        match c.recv().unwrap() {
                            Response::Applied { outcome, .. } => outcomes.push(outcome),
                            other => panic!("unexpected response: {other:?}"),
                        }
                    }
                }
                outcomes
            })
        })
        .collect();
    let served: Vec<Vec<Outcome>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    server.shutdown().expect("shutdown");

    // Reference: the same streams applied directly, one batch per client
    // (a client's commands all hit one shard, so within-shard order is
    // exactly the client's order — the same order the server saw). It
    // keeps `String` values, so the snapshot comparison below also pins
    // that a `Payload` store encodes byte for byte like a `String` one.
    let reference = ShardedFile::<String>::new(SHARDS, cfg()).expect("reference");
    for client in 0..u64::from(SHARDS) {
        let cmds = stream(client, stripe);
        let outcomes = reference.apply_batch(&cmds);
        for (i, (got, want)) in served[client as usize].iter().zip(&outcomes).enumerate() {
            let matches = matches!(
                (got, want),
                (Outcome::Inserted, dsf_core::CommandOutcome::Inserted)
                    | (Outcome::NotFound, dsf_core::CommandOutcome::NotFound)
            ) || match (got, want) {
                (Outcome::Replaced(a), dsf_core::CommandOutcome::Replaced(b)) => a == b,
                (Outcome::Removed(a), dsf_core::CommandOutcome::Removed(b)) => a == b,
                _ => false,
            };
            assert!(
                matches,
                "client {client} op {i}: served {got:?} vs direct {want:?}"
            );
        }
    }

    let mut via_server = Vec::new();
    file.write_snapshot(&mut via_server).expect("snapshot");
    let mut direct = Vec::new();
    reference.write_snapshot(&mut direct).expect("snapshot");
    assert_eq!(via_server, direct, "snapshots diverge");
}

/// Every structural ack carries a non-zero flight seq, and seqs within
/// one connection are strictly increasing (same shard, ordered queue).
#[test]
fn acks_carry_increasing_flight_seqs() {
    dsf_flight::enable();
    let (server, _file) = serve_sharded(1);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let mut last = 0u64;
    for j in 0..32u64 {
        c.send(&Request::Insert {
            key: j,
            value: format!("v{j}"),
            durability: Durability::Relaxed,
        })
        .unwrap();
    }
    for _ in 0..32 {
        match c.recv().unwrap() {
            Response::Applied { seq, .. } => {
                assert!(seq > last, "seq {seq} not above {last}");
                last = seq;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    server.shutdown().expect("shutdown");
    dsf_flight::disable();
}

/// A garbage frame gets an error response (not a hang, not a panic) and
/// the connection is closed; the server keeps serving other clients.
#[test]
fn protocol_error_closes_connection_not_server() {
    use std::io::{Read, Write};
    let (server, _file) = serve_sharded(2);

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    // Valid length prefix, unknown tag.
    raw.write_all(&[1, 0, 0, 0, 0xEE]).unwrap();
    raw.flush().unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("server should close");
    assert!(!buf.is_empty(), "expected an error frame before close");

    // An oversized header must also be answered and closed, well before
    // any attempt to allocate the claimed length.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    raw.flush().unwrap();
    let mut buf = Vec::new();
    raw.read_to_end(&mut buf).expect("server should close");
    assert!(!buf.is_empty(), "expected an error frame before close");

    // The server is still healthy.
    let mut c = Client::connect(server.local_addr()).expect("connect");
    assert!(matches!(c.call(&Request::Ping).unwrap(), Response::Pong));
    server.shutdown().expect("shutdown");
}

/// The Shutdown frame is acked, surfaces via `wait_shutdown_request`,
/// and subsequent structural submits are refused.
#[test]
fn shutdown_request_over_the_wire() {
    let (server, _file) = serve_sharded(2);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    assert!(!server.shutdown_requested());
    assert!(matches!(
        c.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    ));
    server.wait_shutdown_request();
    assert!(server.shutdown_requested());
    server.shutdown().expect("shutdown");
}
