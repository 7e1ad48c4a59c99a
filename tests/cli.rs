//! End-to-end tests of the `dsf` command-line tool: every subcommand runs
//! against a real snapshot file on disk.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dsf(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dsf"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsf-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_round_trip() {
    let dir = tempdir("roundtrip");

    let out = dsf(
        &dir,
        &[
            "create",
            "t.dsf",
            "--pages",
            "64",
            "--min-density",
            "4",
            "--max-density",
            "24",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("capacity 256 records"));

    let out = dsf(&dir, &["insert", "t.dsf", "42", "hello world"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("inserted 42"));

    let out = dsf(&dir, &["get", "t.dsf", "42"]);
    assert_eq!(stdout(&out), "hello world\n");

    let out = dsf(&dir, &["insert", "t.dsf", "42", "replaced"]);
    assert!(stdout(&out).contains("was: hello world"));

    // Bulk load from CSV.
    std::fs::write(
        dir.join("rows.csv"),
        "1,one\n2,two\n3,three\n# comment\n\n10,ten\n",
    )
    .unwrap();
    let out = dsf(&dir, &["load", "t.dsf", "rows.csv"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("loaded 4 records"));

    let out = dsf(&dir, &["scan", "t.dsf", "--limit", "3"]);
    assert_eq!(stdout(&out), "1,one\n2,two\n3,three\n");

    let out = dsf(
        &dir,
        &["scan", "t.dsf", "--from", "42", "--rev", "--limit", "2"],
    );
    assert_eq!(stdout(&out), "42,replaced\n10,ten\n");

    let out = dsf(&dir, &["rank", "t.dsf", "10"]);
    assert_eq!(stdout(&out), "3\n");

    let out = dsf(&dir, &["remove", "t.dsf", "2"]);
    assert!(stdout(&out).contains("removed 2 (was: two)"));
    let out = dsf(&dir, &["remove", "t.dsf", "2"]);
    assert!(stdout(&out).contains("not found"));

    let out = dsf(&dir, &["stats", "t.dsf"]);
    let s = stdout(&out);
    assert!(s.contains("CONTROL 2"), "{s}");
    assert!(s.contains("records:     4 of 256"), "{s}");

    let out = dsf(&dir, &["verify", "t.dsf"]);
    assert!(stdout(&out).contains("all invariants hold"));

    // bench runs in memory and leaves the file untouched.
    let before = std::fs::read(dir.join("t.dsf")).unwrap();
    let out = dsf(
        &dir,
        &["bench", "t.dsf", "--workload", "hammer", "--ops", "100"],
    );
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("page accesses/command"));
    assert_eq!(std::fs::read(dir.join("t.dsf")).unwrap(), before);
    let out = dsf(&dir, &["bench", "t.dsf", "--workload", "nope"]);
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_error_paths() {
    let dir = tempdir("errors");

    // Unknown command.
    let out = dsf(&dir, &["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing file.
    let out = dsf(&dir, &["get", "missing.dsf", "1"]);
    assert!(!out.status.success());

    // Refuses to clobber an existing file.
    let out = dsf(
        &dir,
        &[
            "create",
            "exists.dsf",
            "--pages",
            "8",
            "--min-density",
            "1",
            "--max-density",
            "4",
        ],
    );
    assert!(out.status.success());
    let out = dsf(
        &dir,
        &[
            "create",
            "exists.dsf",
            "--pages",
            "8",
            "--min-density",
            "1",
            "--max-density",
            "4",
        ],
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("already exists"));

    // Invalid geometry.
    let out = dsf(
        &dir,
        &[
            "create",
            "bad.dsf",
            "--pages",
            "8",
            "--min-density",
            "5",
            "--max-density",
            "5",
        ],
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("d < D"));

    // Corrupt snapshot.
    std::fs::write(dir.join("garbage.dsf"), b"not a snapshot at all").unwrap();
    let out = dsf(&dir, &["verify", "garbage.dsf"]);
    assert!(!out.status.success());

    // Capacity exhaustion surfaces cleanly.
    let out = dsf(
        &dir,
        &[
            "create",
            "tiny.dsf",
            "--pages",
            "2",
            "--min-density",
            "1",
            "--max-density",
            "4",
        ],
    );
    assert!(out.status.success());
    assert!(dsf(&dir, &["insert", "tiny.dsf", "1", "a"])
        .status
        .success());
    assert!(dsf(&dir, &["insert", "tiny.dsf", "2", "b"])
        .status
        .success());
    let out = dsf(&dir, &["insert", "tiny.dsf", "3", "c"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("capacity"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_trace_record_and_replay() {
    let dir = tempdir("trace");
    let out = dsf(
        &dir,
        &[
            "create",
            "t.dsf",
            "--pages",
            "128",
            "--min-density",
            "8",
            "--max-density",
            "40",
        ],
    );
    assert!(out.status.success());
    let out = dsf(
        &dir,
        &[
            "gen-trace",
            "ops.trace",
            "--workload",
            "mixed",
            "--ops",
            "300",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("300 operations"));

    // Dry run leaves the file untouched.
    let before = std::fs::read(dir.join("t.dsf")).unwrap();
    let out = dsf(&dir, &["replay", "t.dsf", "ops.trace", "--dry-run"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("dry run"));
    assert_eq!(std::fs::read(dir.join("t.dsf")).unwrap(), before);

    // A real replay persists, deterministically.
    let out = dsf(&dir, &["replay", "t.dsf", "ops.trace"]);
    assert!(out.status.success(), "{out:?}");
    let out = dsf(&dir, &["verify", "t.dsf"]);
    assert!(out.status.success(), "{out:?}");
    let n_line = stdout(&dsf(&dir, &["stats", "t.dsf"]));
    assert!(n_line.contains("records:"), "{n_line}");

    // Same trace replayed into a fresh file gives the same record count.
    let out = dsf(
        &dir,
        &[
            "create",
            "u.dsf",
            "--pages",
            "128",
            "--min-density",
            "8",
            "--max-density",
            "40",
        ],
    );
    assert!(out.status.success());
    dsf(&dir, &["replay", "u.dsf", "ops.trace"]);
    let a = stdout(&dsf(&dir, &["stats", "t.dsf"]));
    let b = stdout(&dsf(&dir, &["stats", "u.dsf"]));
    let rec = |s: &str| {
        s.lines()
            .find(|l| l.contains("records:"))
            .unwrap()
            .to_string()
    };
    assert_eq!(rec(&a), rec(&b));

    // Garbage traces are rejected.
    std::fs::write(dir.join("bad.trace"), "i 1\nfrobnicate 2\n").unwrap();
    let out = dsf(&dir, &["replay", "t.dsf", "bad.trace"]);
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_physical_image_round_trip() {
    let dir = tempdir("image");
    let out = dsf(
        &dir,
        &[
            "create",
            "t.dsf",
            "--pages",
            "64",
            "--min-density",
            "4",
            "--max-density",
            "24",
        ],
    );
    assert!(out.status.success());
    for k in [10u64, 20, 30, 40] {
        dsf(&dir, &["insert", "t.dsf", &k.to_string(), &format!("v{k}")]);
    }
    let out = dsf(
        &dir,
        &["image-export", "t.dsf", "t.img", "--page-bytes", "1024"],
    );
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("4 records"));

    let out = dsf(
        &dir,
        &["image-stream", "t.img", "--from", "15", "--to", "35"],
    );
    assert!(out.status.success(), "{out:?}");
    let s = stdout(&out);
    assert!(s.contains("20,v20"), "{s}");
    assert!(s.contains("30,v30"), "{s}");
    assert!(!s.contains("10,v10"), "{s}");
    assert!(s.contains("seeks"), "{s}");

    // Opening garbage fails cleanly.
    std::fs::write(dir.join("junk.img"), b"nope").unwrap();
    let out = dsf(&dir, &["image-stream", "junk.img"]);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_top_renders_the_metric_spine() {
    let dir = tempdir("top");
    let out = dsf(
        &dir,
        &[
            "create",
            "t.dsf",
            "--pages",
            "64",
            "--min-density",
            "4",
            "--max-density",
            "24",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let out = dsf(
        &dir,
        &["top", "t.dsf", "--workload", "uniform", "--ops", "200"],
    );
    assert!(out.status.success(), "{out:?}");
    let s = stdout(&out);
    assert!(s.contains("drove 200 uniform inserts"), "{s}");
    assert!(s.contains("dsf_commands_total"), "{s}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_serve_metrics_oneshot_serves_valid_exposition() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = tempdir("serve");
    let out = dsf(
        &dir,
        &[
            "create",
            "t.dsf",
            "--pages",
            "64",
            "--min-density",
            "4",
            "--max-density",
            "24",
        ],
    );
    assert!(out.status.success(), "{out:?}");

    // `--port 0` asks the kernel for a free port; the child prints the
    // resolved address before blocking on the single permitted request.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsf"))
        .current_dir(&dir)
        .args([
            "serve-metrics",
            "t.dsf",
            "--port",
            "0",
            "--oneshot",
            "--workload",
            "uniform",
            "--ops",
            "150",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "child exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("serving http://") {
            break rest.split('/').next().unwrap().to_string();
        }
    };

    let mut sock = std::net::TcpStream::connect(&addr).expect("connect to oneshot server");
    sock.write_all(b"GET /metrics HTTP/1.0\r\nHost: dsf\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    sock.read_to_string(&mut response).unwrap();
    let status = child.wait().expect("child exits");
    assert!(status.success(), "serve-metrics --oneshot failed: {status}");

    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("HTTP response has a header/body split");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");

    // The strict 0.0.4 parser rejects duplicate samples, untyped families,
    // and malformed lines — this is the no-duplicate-samples guarantee.
    let summary =
        willard_dsf::telemetry::parse_exposition(body).expect("exposition must parse strictly");
    assert!(summary.families >= 5, "families: {}", summary.families);
    assert!(summary.samples > summary.families);
    assert!(body.contains("dsf_command_page_accesses_count"), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_flight_example52_and_bench_gate() {
    let dir = tempdir("flight");

    // Record the paper's Example 5.2 run; the summary quotes the spine's
    // histogram max for cross-checking against the flight log.
    let out = dsf(&dir, &["flight", "record", "ex52.flight", "--example52"]);
    assert!(out.status.success(), "{out:?}");
    let rec = stdout(&out);
    let hist_max: u64 = rec
        .lines()
        .find_map(|l| l.strip_prefix("dsf_command_page_accesses_max "))
        .expect("record quotes the histogram max")
        .trim()
        .parse()
        .unwrap();
    assert!(hist_max > 0, "{rec}");

    let out = dsf(&dir, &["flight", "replay", "ex52.flight"]);
    assert!(out.status.success(), "{out:?}");
    let rep = stdout(&out);
    assert!(rep.contains("commands: 2 complete, 0 cancelled"), "{rep}");
    assert!(rep.contains("attribution reconciles: true"), "{rep}");
    assert!(rep.contains("audit: OK"), "{rep}");

    let out = dsf(&dir, &["explain", "ex52.flight", "--top", "3"]);
    assert!(out.status.success(), "{out:?}");
    let exp = stdout(&out);
    assert!(exp.contains("worst command: seq"), "{exp}");
    assert!(exp.contains("breakdown: user"), "{exp}");
    assert!(exp.contains("flag-stable moments"), "{exp}");
    // Acceptance criterion: the worst command the flight log reconstructs
    // carries exactly the page total the live histogram saw.
    let worst_total: u64 = exp
        .lines()
        .skip_while(|l| !l.starts_with("worst command"))
        .find_map(|l| {
            let (head, _) = l.split_once(" page accesses")?;
            head.rsplit(' ').next()?.parse().ok()
        })
        .expect("explain states the worst command's page total");
    assert_eq!(worst_total, hist_max, "{exp}");

    // Z₁, the insert into slot 7 (page 8), explained alone: its SHIFT(L8)
    // (heap node 15) carries the DEST advance fig4_example narrates as
    // "DEST advances to page 8"; its last SHIFT leaves DEST where it was.
    let z1_seq = exp
        .lines()
        .find_map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            (cols.len() == 11 && cols[1] == "insert" && cols[2] == "7").then(|| cols[0].to_owned())
        })
        .expect("the top table lists Z₁");
    let out = dsf(&dir, &["explain", "ex52.flight", "--seq", &z1_seq]);
    assert!(out.status.success(), "{out:?}");
    let z1 = stdout(&out);
    assert!(
        z1.contains("SHIFT(v15): slot 7 → slot 6, 6 records, DEST advances to slot 7 (page 8)\n"),
        "{z1}"
    );
    assert!(
        z1.contains("SHIFT(v3): slot 3 → slot 1, 1 records\n"),
        "{z1}"
    );

    // bench-gate: identical numbers pass; a doctored 20% regression fails.
    let base =
        "{\n  \"io_call_ratio\": 3.20,\n  \"overhead_ratio\": 1.20,\n  \"max_accesses\": 18\n}\n";
    std::fs::write(dir.join("base.json"), base).unwrap();
    std::fs::write(dir.join("same.json"), base).unwrap();
    std::fs::write(
        dir.join("bad.json"),
        "{\n  \"io_call_ratio\": 2.56,\n  \"overhead_ratio\": 1.20,\n  \"max_accesses\": 18\n}\n",
    )
    .unwrap();
    let out = dsf(&dir, &["bench-gate", "base.json", "same.json"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("bench-gate: PASS"));
    let out = dsf(
        &dir,
        &[
            "bench-gate",
            "base.json",
            "bad.json",
            "--report",
            "gate.txt",
        ],
    );
    assert!(!out.status.success(), "doctored regression must fail");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("regression in io_call_ratio"), "{err}");
    assert!(std::fs::read_to_string(dir.join("gate.txt"))
        .unwrap()
        .contains("REGRESSION"));

    // Per-scenario E17 keys gate at 0% slack: equal passes even when the
    // key is well inside the 15% threshold window, +1 page fails, and a
    // scenario missing from the candidate fails.
    let sb = "{\n  \"max_accesses_adversarial\": 203,\n  \"max_accesses_zipfian\": 14\n}\n";
    std::fs::write(dir.join("sc_base.json"), sb).unwrap();
    std::fs::write(dir.join("sc_same.json"), sb).unwrap();
    std::fs::write(
        dir.join("sc_bump.json"),
        "{\n  \"max_accesses_adversarial\": 204,\n  \"max_accesses_zipfian\": 14\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("sc_drop.json"),
        "{\n  \"max_accesses_adversarial\": 203\n}\n",
    )
    .unwrap();
    let out = dsf(&dir, &["bench-gate", "sc_base.json", "sc_same.json"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("bench-gate: PASS"));
    let out = dsf(&dir, &["bench-gate", "sc_base.json", "sc_bump.json"]);
    assert!(!out.status.success(), "+1 page on a scenario must fail");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("regression in max_accesses_adversarial"),
        "{err}"
    );
    let out = dsf(&dir, &["bench-gate", "sc_base.json", "sc_drop.json"]);
    assert!(!out.status.success(), "dropped scenario must fail");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("regression in max_accesses_zipfian"), "{err}");

    // E17's head-to-head page means gate at 0% slack too: one thousandth
    // of a page more per command fails.
    let hb = "{\n  \"hh_adversarial_pma_update_mean\": 3.364\n}\n";
    std::fs::write(dir.join("hh_base.json"), hb).unwrap();
    std::fs::write(
        dir.join("hh_bump.json"),
        "{\n  \"hh_adversarial_pma_update_mean\": 3.365\n}\n",
    )
    .unwrap();
    let out = dsf(&dir, &["bench-gate", "hh_base.json", "hh_base.json"]);
    assert!(out.status.success(), "{out:?}");
    let out = dsf(&dir, &["bench-gate", "hh_base.json", "hh_bump.json"]);
    assert!(
        !out.status.success(),
        "a higher head-to-head mean must fail"
    );
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        err.contains("regression in hh_adversarial_pma_update_mean"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_trace_record_replay_explain() {
    let dir = tempdir("trace-explain");

    // Record a small traced run against the in-memory backend (fast, no
    // scratch store on disk) and check the per-phase panel renders.
    let out = dsf(
        &dir,
        &[
            "trace",
            "record",
            "run.flight",
            "--memory",
            "--clients",
            "2",
            "--ops",
            "32",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let rec = stdout(&out);
    assert!(
        rec.contains("recorded 64 timelines to `run.flight`"),
        "{rec}"
    );
    assert!(rec.contains("queue_wait"), "{rec}");
    assert!(rec.contains("end-to-end p50"), "{rec}");

    // Replay summarizes the same log and exports Chrome trace_event JSON.
    let out = dsf(
        &dir,
        &["flight", "replay", "run.flight", "--chrome", "run.json"],
    );
    assert!(out.status.success(), "{out:?}");
    let rep = stdout(&out);
    assert!(rep.contains("64 timelines (0 dropped)"), "{rep}");
    let chrome = std::fs::read_to_string(dir.join("run.json")).unwrap();
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"wire_decode\""), "{chrome}");
    assert!(chrome.contains("\"trace_id\""), "{chrome}");

    // Explain prints a waterfall for the slowest request, and looking one
    // of its ids up directly renders the same shape.
    let out = dsf(&dir, &["explain", "run.flight", "--top", "1"]);
    assert!(out.status.success(), "{out:?}");
    let exp = stdout(&out);
    assert!(exp.contains("top 1 of 64 timelines"), "{exp}");
    assert!(exp.contains("dominant phase:"), "{exp}");
    let id = exp
        .lines()
        .find_map(|l| l.strip_prefix("trace 0x")?.split_whitespace().next())
        .expect("waterfall names its trace id");
    let out = dsf(&dir, &["explain", "run.flight", "--id", &format!("0x{id}")]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("ack_write"), "{out:?}");

    // The join: `--seq` on the worst command and `--id` on the request it
    // ran as print the same waterfall and the same page cost, and that
    // cost is the worst `flight replay` reports for the seq.
    let (worst, seq): (u64, u64) = rep
        .lines()
        .find_map(|l| {
            let rest = l.split_once(", worst ")?.1;
            let (pages, rest) = rest.split_once(" (seq ")?;
            Some((pages.parse().ok()?, rest.split_once(')')?.0.parse().ok()?))
        })
        .expect("replay names the worst command and its seq");
    let by_seq = stdout(&dsf(
        &dir,
        &["explain", "run.flight", "--seq", &seq.to_string()],
    ));
    let header = by_seq
        .lines()
        .find(|l| l.starts_with("trace 0x"))
        .expect("the worst command ran as a traced request");
    assert!(header.contains(&format!(" seq {seq} ")), "{by_seq}");
    let id = header["trace ".len()..].split_whitespace().next().unwrap();
    let by_id = stdout(&dsf(&dir, &["explain", "run.flight", "--id", id]));
    assert_eq!(by_id, by_seq);
    assert!(by_seq.contains(&format!("command {seq} (")), "{by_seq}");
    assert!(
        by_seq.contains(&format!(": {worst} page accesses")),
        "{by_seq}"
    );
    // Waterfall times print to the nanosecond: the phases sum to the total.
    let nanos = |us: &str| (us.trim_end_matches("us").parse::<f64>().unwrap() * 1e3).round() as u64;
    let total = nanos(
        header
            .split(" — ")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap(),
    );
    let phase_sum: u64 = by_seq
        .lines()
        .filter(|l| l.contains("us  at +"))
        .map(|l| nanos(l.split_whitespace().nth(1).unwrap()))
        .sum();
    assert_eq!(phase_sum, total, "{by_seq}");

    // The E19 gate metrics: reconciliation/attribution flags gate as
    // higher-is-better, the overhead ratio as lower-is-better.
    let tb = "{\n  \"trace_overhead_ratio\": 1.00,\n  \"trace_reconcile_ok\": 1,\n  \"trace_fsync_dominant\": 1\n}\n";
    std::fs::write(dir.join("tr_base.json"), tb).unwrap();
    std::fs::write(dir.join("tr_same.json"), tb).unwrap();
    std::fs::write(
        dir.join("tr_slow.json"),
        "{\n  \"trace_overhead_ratio\": 1.40,\n  \"trace_reconcile_ok\": 1,\n  \"trace_fsync_dominant\": 1\n}\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("tr_broken.json"),
        "{\n  \"trace_overhead_ratio\": 1.00,\n  \"trace_reconcile_ok\": 0,\n  \"trace_fsync_dominant\": 1\n}\n",
    )
    .unwrap();
    let out = dsf(&dir, &["bench-gate", "tr_base.json", "tr_same.json"]);
    assert!(out.status.success(), "{out:?}");
    let out = dsf(&dir, &["bench-gate", "tr_base.json", "tr_slow.json"]);
    assert!(!out.status.success(), "a 40% overhead jump must fail");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("regression in trace_overhead_ratio"), "{err}");
    let out = dsf(&dir, &["bench-gate", "tr_base.json", "tr_broken.json"]);
    assert!(!out.status.success(), "a reconciliation break must fail");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("regression in trace_reconcile_ok"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The waterfall's nanoseconds in `phase` (0 when the line is absent:
/// the waterfall prints only non-zero phases) and the
/// `(lock wait, fsync)` nanoseconds of the group-commit line, for the
/// first joined block of `explain` output.
fn waterfall_and_group_waits(text: &str) -> (u64, u64, Option<(u64, u64)>) {
    let nanos = |us: &str| {
        (us.trim_end_matches("us,")
            .trim_end_matches("us")
            .parse::<f64>()
            .unwrap()
            * 1e3)
            .round() as u64
    };
    let phase = |name: &str| {
        text.lines()
            .filter(|l| l.contains("us  at +"))
            .find_map(|l| {
                let mut w = l.split_whitespace();
                (w.next()? == name).then(|| nanos(w.next().unwrap()))
            })
            .unwrap_or(0)
    };
    let group = text.lines().find_map(|l| {
        let rest = l
            .trim_start()
            .strip_prefix("group commit, shared by every member: lock wait ")?;
        let (lock, fsync) = rest.split_once(" fsync ")?;
        Some((nanos(lock), nanos(fsync)))
    });
    (phase("lock_wait"), phase("fsync"), group)
}

#[test]
fn cli_explain_gives_every_group_commit_member_its_shared_waits() {
    let dir = tempdir("group-commit");

    // Durable scratch store: Strict inserts from pipelining clients
    // coalesce into group commits, each with one lock wait and one fsync.
    let out = dsf(
        &dir,
        &[
            "trace",
            "record",
            "gc.flight",
            "--clients",
            "4",
            "--ops",
            "64",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("durable scratch"), "{out:?}");

    // Every timeline, one joined block each (the worst command's block
    // repeats one), grouped by waterfall fsync.
    let all = stdout(&dsf(&dir, &["explain", "gc.flight", "--top", "1000"]));
    let mut by_fsync: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
        Default::default();
    for block in all.split("\ntrace 0x").skip(1) {
        let seq: u64 = block
            .split_once(" seq ")
            .and_then(|(_, r)| r.split_whitespace().next()?.parse().ok())
            .expect("waterfall header names its seq");
        let (_, fsync, _) = waterfall_and_group_waits(block);
        if fsync > 0 && seq != 0 {
            by_fsync.entry(fsync).or_default().insert(seq);
        }
    }
    let members = by_fsync
        .values()
        .find(|seqs| seqs.len() >= 2)
        .unwrap_or_else(|| panic!("no two requests share a group commit's fsync:\n{all}"));

    // Each member's explain states the batch's waits exactly as its own
    // waterfall carries them, not 0 for all but one member.
    for seq in members.iter().take(2) {
        let one = stdout(&dsf(
            &dir,
            &["explain", "gc.flight", "--seq", &seq.to_string()],
        ));
        let (lock, fsync, group) = waterfall_and_group_waits(&one);
        assert!(fsync > 0, "{one}");
        assert_eq!(group, Some((lock, fsync)), "{one}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_control1_files() {
    let dir = tempdir("control1");
    let out = dsf(
        &dir,
        &[
            "create",
            "c1.dsf",
            "--pages",
            "32",
            "--min-density",
            "4",
            "--max-density",
            "20",
            "--control1",
        ],
    );
    assert!(out.status.success());
    for k in 0..50u64 {
        assert!(dsf(&dir, &["insert", "c1.dsf", &k.to_string(), "v"])
            .status
            .success());
    }
    let out = dsf(&dir, &["stats", "c1.dsf"]);
    assert!(stdout(&out).contains("CONTROL 1"));
    let out = dsf(&dir, &["verify", "c1.dsf"]);
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns `dsf serve`, reads the announce line, and returns the child,
/// its address, and the stdout reader (which must stay alive — dropping
/// it breaks the child's pipe and turns its exit message into a panic).
fn spawn_serve(
    dir: &PathBuf,
    extra: &[&str],
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStdout>,
) {
    use std::io::BufRead;
    // The store dir (if any) must be the first argument after `serve`.
    let mut args = vec!["serve"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--addr", "127.0.0.1:0"]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dsf"))
        .current_dir(dir)
        .args(&args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "serve exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("serving dsf://") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    (child, addr, reader)
}

#[test]
fn cli_serve_memory_round_trip() {
    let dir = tempdir("serve-mem");
    let (mut child, addr, _out) = spawn_serve(&dir, &["--memory", "--shards", "2"]);

    let out = dsf(&dir, &["client", &addr, "ping"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out), "pong\n");

    let out = dsf(&dir, &["client", &addr, "insert", "42", "answer"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).starts_with("inserted"), "{out:?}");

    let out = dsf(
        &dir,
        &["client", &addr, "insert", "42", "revised", "--relaxed"],
    );
    assert!(stdout(&out).contains("replaced (was: answer"), "{out:?}");

    let out = dsf(&dir, &["client", &addr, "get", "42"]);
    assert_eq!(stdout(&out), "revised\n");

    let out = dsf(&dir, &["client", &addr, "count"]);
    assert_eq!(stdout(&out), "1 records\n");

    let out = dsf(&dir, &["client", &addr, "scan", "--limit", "10"]);
    assert!(stdout(&out).contains("42\trevised"), "{out:?}");

    let out = dsf(&dir, &["client", &addr, "remove", "42"]);
    assert!(stdout(&out).contains("removed (was: revised"), "{out:?}");

    let out = dsf(&dir, &["client", &addr, "shutdown"]);
    assert_eq!(stdout(&out), "server shutting down\n");

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exited with {status}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_serve_durable_survives_restart() {
    let dir = tempdir("serve-dur");
    let (mut child, addr, _out) = spawn_serve(&dir, &["store", "--shards", "2", "--pages", "64"]);

    for k in 0..20u64 {
        let durability: &[&str] = if k % 2 == 0 { &[] } else { &["--relaxed"] };
        let mut args = vec!["client", &addr, "insert"];
        let ks = k.to_string();
        let vs = format!("v{k}");
        args.push(&ks);
        args.push(&vs);
        args.extend_from_slice(durability);
        let out = dsf(&dir, &args);
        assert!(out.status.success(), "insert {k}: {out:?}");
    }
    let out = dsf(&dir, &["client", &addr, "flush"]);
    assert_eq!(stdout(&out), "flushed\n");
    let out = dsf(&dir, &["client", &addr, "shutdown"]);
    assert!(out.status.success(), "{out:?}");
    assert!(child.wait().expect("serve exits").success());

    // Restart over the same directory: every acked record is still there.
    let (mut child, addr, _out) = spawn_serve(&dir, &["store"]);
    let out = dsf(&dir, &["client", &addr, "count"]);
    assert_eq!(stdout(&out), "20 records\n");
    let out = dsf(&dir, &["client", &addr, "get", "13"]);
    assert_eq!(stdout(&out), "v13\n");
    let out = dsf(&dir, &["client", &addr, "shutdown"]);
    assert!(out.status.success(), "{out:?}");
    assert!(child.wait().expect("serve exits").success());
    std::fs::remove_dir_all(&dir).ok();
}
