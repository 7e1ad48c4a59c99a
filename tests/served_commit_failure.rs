//! A failed group commit as a client of the server sees it.
//!
//! Clients send Strict inserts to a served `DurableKv` on a
//! fault-injecting filesystem, and one commit's fsync fails with `EIO`.
//! Every insert of that commit is answered `batch failed: …` and no
//! served get ever returns its key, while the inserts acknowledged before
//! and after it stay visible. Served gets go through the shard's
//! lock-free read view. After a power cut and a reopen, every
//! acknowledged Strict insert is there and no failed one is.
//!
//! The first test runs one client at depth 1. The second runs four
//! pipelining clients into one shard, so the failed commit carries
//! commands that several connections submitted to one leader.

use std::collections::BTreeSet;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use willard_dsf::durable::{FaultFs, FaultPlan, SyscallKind};
use willard_dsf::server::service::{KvCommand, KvOutcome};
use willard_dsf::server::{Client, DurableKv, KvService, Outcome, Payload, Request, Response};
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

/// Both tests watch process-global telemetry for shard 0; they take
/// turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn a_failed_strict_commit_is_refused_invisible_and_lost_while_its_neighbours_survive() {
    let _serial = serial();
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
        assert_eq!(view.try_get(&k), Ok(Some(value(k).into())), "view get({k})");
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

const CLIENTS: u64 = 4;
const DEPTH: u64 = 4;

fn insert_request(key: u64) -> Request {
    Request::Insert {
        key,
        value: value(key),
        durability: Durability::Strict,
    }
}

/// Sends `keys` at pipeline depth [`DEPTH`] and sorts each answer into
/// acknowledged or failed.
fn pipeline(c: &mut Client, keys: &[u64], acked: &mut Vec<u64>, failed: &mut Vec<u64>) {
    for chunk in keys.chunks(DEPTH as usize) {
        for &k in chunk {
            c.send(&insert_request(k)).expect("send");
        }
        for &k in chunk {
            match c.recv().expect("recv") {
                Response::Applied {
                    outcome: Outcome::Inserted,
                    ..
                } => acked.push(k),
                Response::Error(msg) if msg.starts_with("batch failed: ") => failed.push(k),
                other => panic!("insert({k}) was answered {other:?}"),
            }
        }
    }
}

/// Client `c`'s keys for `round`: disjoint across clients and rounds.
fn keys(c: u64, round: u64, n: u64) -> Vec<u64> {
    (0..n).map(|i| round * 100_000 + c * 1_000 + i).collect()
}

/// Every client pipelines `n` fresh inserts at once; returns the keys
/// acknowledged and the keys refused.
fn concurrent_round(clients: &mut [Client], round: u64, n: u64) -> (Vec<u64>, Vec<u64>) {
    std::thread::scope(|scope| {
        let runs: Vec<_> = clients
            .iter_mut()
            .zip(0u64..)
            .map(|(client, c)| {
                scope.spawn(move || {
                    let (mut acked, mut failed) = (Vec::new(), Vec::new());
                    pipeline(client, &keys(c, round, n), &mut acked, &mut failed);
                    (acked, failed)
                })
            })
            .collect();
        runs.into_iter()
            .fold((Vec::new(), Vec::new()), |mut all, run| {
                let (a, f) = run.join().expect("client thread");
                all.0.extend(a);
                all.1.extend(f);
                all
            })
    })
}

/// The served store, whose next group commit, once the gate is armed,
/// reports that it has started and waits to be let through.
struct Gated {
    kv: Arc<DurableKv<FaultFs>>,
    gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl KvService for Gated {
    fn shard_count(&self) -> usize {
        KvService::shard_count(&*self.kv)
    }

    fn shard_of(&self, key: u64) -> usize {
        KvService::shard_of(&*self.kv, key)
    }

    fn apply_batch(
        &self,
        shard: usize,
        cmds: &[KvCommand],
        durability: Durability,
        observe: &mut dyn FnMut(usize, &KvOutcome, u64),
    ) -> Result<Vec<KvOutcome>, String> {
        let gate = self.gate.lock().unwrap().take();
        if let Some((started, go)) = gate {
            started.send(()).unwrap();
            go.recv().unwrap();
        }
        self.kv.apply_batch(shard, cmds, durability, observe)
    }

    fn get(&self, key: u64) -> Option<Payload> {
        KvService::get(&*self.kv, key)
    }

    fn scan(&self, start: u64, limit: usize) -> Vec<(u64, Payload)> {
        self.kv.scan(start, limit)
    }

    fn len(&self) -> u64 {
        KvService::len(&*self.kv)
    }

    fn flush(&self) -> Result<(), String> {
        self.kv.flush()
    }
}

#[test]
fn a_failed_group_commit_shared_by_four_connections_fails_each_of_their_commands() {
    let _serial = serial();
    let registry = willard_dsf::telemetry::global();
    registry.enable();
    let depth = registry.gauge_with("dsf_server_queue_depth", &[("shard", "0")], "");
    let fs = FaultFs::new(FaultPlan::default());
    let kv = Arc::new(
        DurableKv::create_on(
            fs.clone(),
            ROOT,
            1,
            DenseFileConfig::control2(256, 8, 40),
            POLICY,
        )
        .unwrap(),
    );
    kv.enable_optimistic_reads();
    let gated = Arc::new(Gated {
        kv: kv.clone(),
        gate: Mutex::new(None),
    });
    let server = Server::bind(gated.clone(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();

    let (mut acked, mut failed) = concurrent_round(&mut clients, 0, 40);
    assert!(failed.is_empty(), "no fault is armed yet: {failed:?}");

    // Client 0's burst alone starts a commit, which waits at the gate
    // while the other three connections queue their bursts behind it.
    let (started_tx, started) = mpsc::channel();
    let (go, go_rx) = mpsc::channel();
    *gated.gate.lock().unwrap() = Some((started_tx, go_rx));
    let bursts: Vec<Vec<u64>> = (0..CLIENTS).map(|c| keys(c, 1, DEPTH)).collect();
    let mut send_burst = |c: usize| {
        for &k in &bursts[c] {
            clients[c].send(&insert_request(k)).unwrap();
        }
        clients[c].flush().unwrap();
    };
    send_burst(0);
    started.recv().unwrap();
    for c in 1..CLIENTS as usize {
        send_burst(c);
    }
    let queued = ((CLIENTS - 1) * DEPTH) as f64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while depth.get() != queued {
        assert!(
            Instant::now() < deadline,
            "queue depth {} never reached {queued}",
            depth.get()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Commit 1 is client 0's burst (a write and its fsync); commit 2
    // carries the other three bursts, and its fsync fails.
    let fsync = fs.syscalls() + 4;
    fs.set_plan(FaultPlan::eio_at(fsync, fsync));
    go.send(()).unwrap();
    let mut shared_failure = BTreeSet::new();
    for (c, burst) in bursts.iter().enumerate() {
        for &k in burst {
            match clients[c].recv().expect("recv") {
                Response::Applied {
                    outcome: Outcome::Inserted,
                    ..
                } => acked.push(k),
                Response::Error(msg) if msg.starts_with("batch failed: ") => {
                    failed.push(k);
                    shared_failure.insert(c);
                }
                other => panic!("insert({k}) was answered {other:?}"),
            }
        }
    }
    assert_eq!(fs.injected_eio(), 1);
    assert_eq!(fs.kind_log()[fsync as usize - 1], SyscallKind::SyncData);
    assert!(
        bursts[0].iter().all(|k| acked.contains(k)),
        "commit 1 was acked"
    );
    assert_eq!(
        shared_failure,
        (1..CLIENTS as usize).collect(),
        "one failed commit answers every connection that queued into it"
    );

    let (more_acked, more_failed) = concurrent_round(&mut clients, 2, 40);
    assert!(
        more_failed.is_empty(),
        "the fault fired once: {more_failed:?}"
    );
    acked.extend(more_acked);

    let view = kv.shard_view(0).expect("views enabled");
    let c = &mut clients[0];
    for &k in &acked {
        assert_eq!(get(c, k), Some(value(k)), "served get({k})");
        assert_eq!(view.try_get(&k), Ok(Some(value(k).into())), "view get({k})");
    }
    for &k in &failed {
        assert_eq!(get(c, k), None, "served get of failed {k}");
        assert_eq!(view.try_get(&k), Ok(None), "view get of failed {k}");
    }
    drop(clients);
    server.shutdown().unwrap();
    drop(view);
    drop(gated);
    drop(kv);
    registry.disable();

    fs.power_cycle();
    let f: DurableFile<u64, String, FaultFs> =
        DurableFile::open_with(fs.clone(), format!("{ROOT}/shard-0"), POLICY).unwrap();
    for &k in &acked {
        assert_eq!(f.get(&k), Some(&value(k)), "Strict ack of {k} lost");
    }
    for &k in &failed {
        assert_eq!(f.get(&k), None, "failed insert {k} came back");
    }
    assert_eq!(f.len(), acked.len() as u64);
}
