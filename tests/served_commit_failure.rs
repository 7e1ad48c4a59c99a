//! A failed group commit as a client of the server sees it.
//!
//! One client at depth 1 sends Strict inserts to a served `DurableKv` on a
//! fault-injecting filesystem, and one commit's fsync fails with `EIO`.
//! That insert is answered `batch failed: …` and no served get ever
//! returns its key, while the inserts acknowledged before and after it
//! stay visible. Served gets go through the shard's lock-free read view.
//! After a power cut and a reopen, every acknowledged Strict insert is
//! there and the failed one is not.

use willard_dsf::durable::{FaultFs, FaultPlan};
use willard_dsf::server::{Client, DurableKv, Outcome, Request, Response};
use willard_dsf::{DenseFileConfig, Durability, DurableFile, Server, ServerConfig, SyncPolicy};

const ROOT: &str = "/served";
const POLICY: SyncPolicy = SyncPolicy::EveryCommand;
const FAILED: u64 = 1_000;

fn value(k: u64) -> String {
    format!("v{k}")
}

fn insert(c: &mut Client, key: u64) -> Response {
    c.call(&Request::Insert {
        key,
        value: value(key),
        durability: Durability::Strict,
    })
    .expect("round trip")
}

/// Inserts every key of `keys`, each acknowledged as a fresh insert.
fn insert_acked(c: &mut Client, keys: &[u64]) {
    for &k in keys {
        let rsp = insert(c, k);
        let inserted = matches!(
            rsp,
            Response::Applied {
                outcome: Outcome::Inserted,
                ..
            }
        );
        assert!(inserted, "insert({k}): {rsp:?}");
    }
}

fn get(c: &mut Client, key: u64) -> Option<String> {
    match c.call(&Request::Get { key }).expect("round trip") {
        Response::Value(v) => v,
        other => panic!("get({key}): {other:?}"),
    }
}

#[test]
fn a_failed_strict_commit_is_refused_invisible_and_lost_while_its_neighbours_survive() {
    let fs = FaultFs::new(FaultPlan::default());
    let kv = std::sync::Arc::new(
        DurableKv::create_on(
            fs.clone(),
            ROOT,
            1,
            DenseFileConfig::control2(64, 8, 40),
            POLICY,
        )
        .unwrap(),
    );
    kv.enable_optimistic_reads();
    let server = Server::bind(kv.clone(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();

    let before: Vec<u64> = (0..20).map(|i| i * 10).collect();
    let after: Vec<u64> = (0..20).map(|i| 2_000 + i * 10).collect();
    insert_acked(&mut c, &before);
    // A commit is one write of the buffered frames, then its fsync.
    let fsync = fs.syscalls() + 2;
    fs.set_plan(FaultPlan::eio_at(fsync, fsync));
    match insert(&mut c, FAILED) {
        Response::Error(msg) => assert!(msg.starts_with("batch failed: "), "{msg}"),
        other => panic!("the failed commit was answered {other:?}"),
    }
    assert_eq!(fs.injected_eio(), 1);
    insert_acked(&mut c, &after);

    let view = kv.shard_view(0).expect("views enabled");
    for &k in before.iter().chain(&after) {
        assert_eq!(get(&mut c, k), Some(value(k)), "served get({k})");
        assert_eq!(view.try_get(&k), Ok(Some(value(k))), "view get({k})");
    }
    assert_eq!(get(&mut c, FAILED), None, "served get of the failed key");
    assert_eq!(view.try_get(&FAILED), Ok(None));
    drop(c);
    server.shutdown().unwrap();
    drop(kv);

    fs.power_cycle();
    let f: DurableFile<u64, String, FaultFs> =
        DurableFile::open_with(fs.clone(), format!("{ROOT}/shard-0"), POLICY).unwrap();
    for &k in before.iter().chain(&after) {
        assert_eq!(f.get(&k), Some(&value(k)), "Strict ack of {k} lost");
    }
    assert_eq!(f.get(&FAILED), None, "the failed insert came back");
    assert_eq!(f.len(), 40);
}
