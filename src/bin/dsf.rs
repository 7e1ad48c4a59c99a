//! `dsf` — a command-line tool for dense sequential files.
//!
//! Files live on disk in the checksummed snapshot format of
//! `dsf_core::snapshot` (keys are `u64`, values UTF-8 strings). Every
//! mutating command loads the snapshot, applies the operation through the
//! full CONTROL 1/2 machinery, re-verifies the paper's invariants, and
//! writes the snapshot back.
//!
//! ```text
//! dsf create ledger.dsf --pages 1024 --min-density 8 --max-density 40
//! dsf insert ledger.dsf 42 "first record"
//! dsf load   ledger.dsf rows.csv          # lines of key,value
//! dsf get    ledger.dsf 42
//! dsf scan   ledger.dsf --from 0 --limit 20 [--rev]
//! dsf remove ledger.dsf 42
//! dsf stats  ledger.dsf
//! dsf verify ledger.dsf
//! dsf bench  ledger.dsf --workload hammer --ops 1000
//! dsf gen-trace ops.trace --workload uniform --ops 5000
//! dsf replay ledger.dsf ops.trace
//! dsf image-export ledger.dsf ledger.img --page-bytes 4096
//! dsf image-stream ledger.img --from 0 --to 99999
//! dsf top ledger.dsf --workload uniform --ops 2000
//! dsf serve-metrics ledger.dsf --port 9184 --workload hammer --ops 1000
//! dsf flight record run.flight --example52
//! dsf trace record served.flight --clients 4 --ops 256
//! dsf flight replay served.flight --chrome served.json
//! dsf explain served.flight --top 3
//! dsf bench-gate BENCH_telemetry.json fresh.json --threshold 0.15
//! ```
//!
//! Both recorders write one `.flight` log: `flight record` holds command
//! frames only, `trace record` also one `Request` frame per served
//! request. `dsf explain` reads either and answers, for the same command,
//! where its request's time went and what its pages were spent on.

use std::fs::File;
use std::process::ExitCode;

use willard_dsf::{Algorithm, DenseFile, DenseFileConfig};

type Ledger = DenseFile<u64, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  dsf create <path> --pages M --min-density d --max-density D [--control1] [--j J]
  dsf insert <path> <key> <value>
  dsf remove <path> <key>
  dsf get    <path> <key>
  dsf load   <path> <csv-path>
  dsf scan   <path> [--from KEY] [--limit N] [--rev]
  dsf rank   <path> <key>
  dsf stats  <path>
  dsf verify <path>
  dsf bench  <path> --workload uniform|burst|hammer [--ops N]   (does not modify <path>)
  dsf gen-trace <trace-path> --workload uniform|burst|hammer|mixed [--ops N] [--seed S]
  dsf replay <path> <trace-path> [--dry-run]
  dsf image-export <path> <image-path> [--page-bytes N]
  dsf image-stream <image-path> [--from KEY] [--to KEY]   (reads straight off disk)
  dsf top <path> [--workload uniform|burst|hammer] [--ops N]   (in-memory; live metric table)
  dsf serve <dir> [--addr A] [--shards N] [--pages M] [--min-density d] [--max-density D]
      [--window-frames F] [--window-micros U] [--batch-window B] | dsf serve --memory [...]
      pipelined TCP front-end; concurrent clients coalesce into group commits.
      <dir> holds one WAL-backed shard per subdirectory (created on first run);
      --memory serves a ShardedFile instead. Stop it with `dsf client A shutdown`.
  dsf client <addr> ping|count|flush|shutdown
  dsf client <addr> insert <key> <value> [--relaxed]   (--relaxed acks before fsync)
  dsf client <addr> remove <key> [--relaxed]
  dsf client <addr> get <key>
  dsf client <addr> scan [--from KEY] [--limit N]
  dsf serve-metrics <path> [--port P] [--workload W] [--ops N] [--oneshot [--requests R]]
      serves /metrics (Prometheus) and /json over HTTP (in-memory; never saves)
  dsf flight record <out.flight> (--example52 | [--pages M] [--min-density d] [--max-density D]
      [--j J] [--workload W] [--ops N]) [--moments]   (records a fresh in-memory run)
  dsf trace record <out.flight> [--clients N] [--ops N] [--shards S] [--memory]
      [--pages M] [--min-density d] [--max-density D]
      drives N pipelined traced clients against a fresh in-process server
      (durable scratch store by default; --memory serves a ShardedFile) and
      saves every request's wire-to-fsync timeline beside its command's frames
  dsf flight replay <file.flight> [--chrome out.json]
      per-command attribution + bound audit summary; with request timelines,
      the per-phase latency table (count/mean/p50/p99/max); --chrome also
      writes the slowest requests as Chrome trace_event JSON (load via
      chrome://tracing or https://ui.perfetto.dev)
  dsf explain <file.flight> [--top K | --seq N | --id ID]
      the K slowest requests' waterfalls, each joined to its command's page
      cost (user/SHIFT/ACTIVATE/rollback/WAL, lock wait, fsync), then the
      worst-K commands by pages and the arg-max's causal trace; --seq or
      --id explains one command (with its Figure-4-style moment table when
      recorded)
  dsf bench-gate <baseline.json> <candidate.json> [--threshold T] [--report path]
      fails (exit 1) when a gated metric (io/fsync/wall ratios, p99_speedup,
      overhead_ratio, max_accesses, read/serve throughput ratios) regresses
      > T (default 0.15); any max_accesses_<scenario>, hh_<scenario>_* or
      get_lock_wait_p50 key in the baseline gates at 0% slack (deterministic
      — one extra page, a higher head-to-head page mean, or one lock-wait
      stamp on the served read path fails)";

fn run(args: &[String]) -> Result<String, String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "create" => create(&args[1..]),
        "insert" => insert(&args[1..]),
        "remove" => remove(&args[1..]),
        "get" => get(&args[1..]),
        "load" => load_csv(&args[1..]),
        "scan" => scan(&args[1..]),
        "rank" => rank(&args[1..]),
        "stats" => stats(&args[1..]),
        "verify" => verify(&args[1..]),
        "bench" => bench(&args[1..]),
        "gen-trace" => gen_trace(&args[1..]),
        "replay" => replay(&args[1..]),
        "image-export" => image_export(&args[1..]),
        "image-stream" => image_stream(&args[1..]),
        "top" => top(&args[1..]),
        "serve" => serve(&args[1..]),
        "client" => client(&args[1..]),
        "serve-metrics" => serve_metrics(&args[1..]),
        "flight" => flight(&args[1..]),
        "trace" => trace(&args[1..]),
        "explain" => explain(&args[1..]),
        "bench-gate" => bench_gate(&args[1..]),
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parses `--flag value` pairs after the positional arguments.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn open(path: &str) -> Result<Ledger, String> {
    let mut file = File::open(path).map_err(|e| format!("cannot open `{path}`: {e}"))?;
    DenseFile::read_snapshot(&mut file).map_err(|e| format!("cannot load `{path}`: {e}"))
}

fn save(ledger: &Ledger, path: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    let write = || -> Result<(), String> {
        let mut file = File::create(&tmp).map_err(|e| format!("cannot write `{tmp}`: {e}"))?;
        ledger
            .write_snapshot(&mut file)
            .map_err(|e| format!("cannot save: {e}"))?;
        file.sync_all()
            .map_err(|e| format!("cannot sync `{tmp}`: {e}"))?;
        Ok(())
    };
    if let Err(e) = write() {
        std::fs::remove_file(&tmp).ok(); // never leave a partial temp behind
        return Err(e);
    }
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot replace `{path}`: {e}"))?;
    Ok(())
}

fn create(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("create: missing <path>")?;
    if std::path::Path::new(path).exists() {
        return Err(format!(
            "`{path}` already exists; refusing to overwrite (delete it first if you mean it)"
        ));
    }
    let pages: u32 = parse(
        &flag(args, "--pages").ok_or("create: missing --pages")?,
        "--pages",
    )?;
    let d: u32 = parse(
        &flag(args, "--min-density").ok_or("create: missing --min-density")?,
        "--min-density",
    )?;
    let big_d: u32 = parse(
        &flag(args, "--max-density").ok_or("create: missing --max-density")?,
        "--max-density",
    )?;
    let mut config = if has_flag(args, "--control1") {
        DenseFileConfig::control1(pages, d, big_d)
    } else {
        DenseFileConfig::control2(pages, d, big_d)
    };
    if let Some(j) = flag(args, "--j") {
        config = config.with_j(parse(&j, "--j")?);
    }
    let ledger: Ledger = DenseFile::new(config).map_err(|e| e.to_string())?;
    save(&ledger, path)?;
    let cfg = ledger.config();
    Ok(format!(
        "created `{path}`: {} slots × K={} pages, capacity {} records, J={}\n",
        cfg.slots,
        cfg.k,
        ledger.capacity(),
        cfg.j
    ))
}

fn insert(args: &[String]) -> Result<String, String> {
    let [path, key, value] = args else {
        return Err("insert: expected <path> <key> <value>".into());
    };
    let mut ledger = open(path)?;
    let key: u64 = parse(key, "key")?;
    let old = ledger
        .insert(key, value.clone())
        .map_err(|e| e.to_string())?;
    save(&ledger, path)?;
    Ok(match old {
        Some(v) => format!("replaced {key} (was: {v})\n"),
        None => format!(
            "inserted {key} ({} page accesses)\n",
            ledger.op_stats().last_accesses
        ),
    })
}

fn remove(args: &[String]) -> Result<String, String> {
    let [path, key] = args else {
        return Err("remove: expected <path> <key>".into());
    };
    let mut ledger = open(path)?;
    let key: u64 = parse(key, "key")?;
    let old = ledger.remove(&key);
    save(&ledger, path)?;
    Ok(match old {
        Some(v) => format!("removed {key} (was: {v})\n"),
        None => format!("{key} not found\n"),
    })
}

fn get(args: &[String]) -> Result<String, String> {
    let [path, key] = args else {
        return Err("get: expected <path> <key>".into());
    };
    let ledger = open(path)?;
    let key: u64 = parse(key, "key")?;
    Ok(match ledger.get(&key) {
        Some(v) => format!("{v}\n"),
        None => format!("{key} not found\n"),
    })
}

fn load_csv(args: &[String]) -> Result<String, String> {
    let [path, csv] = args else {
        return Err("load: expected <path> <csv-path>".into());
    };
    let mut ledger = open(path)?;
    let text = std::fs::read_to_string(csv).map_err(|e| format!("cannot read `{csv}`: {e}"))?;
    let mut inserted = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line
            .split_once(',')
            .ok_or_else(|| format!("{csv}:{}: expected `key,value`", lineno + 1))?;
        let key: u64 = parse(k.trim(), "key")?;
        ledger
            .insert(key, v.trim().to_string())
            .map_err(|e| format!("{csv}:{}: {e}", lineno + 1))?;
        inserted += 1;
    }
    save(&ledger, path)?;
    Ok(format!(
        "loaded {inserted} records; file now holds {} of {} (worst command: {} page accesses)\n",
        ledger.len(),
        ledger.capacity(),
        ledger.op_stats().max_accesses
    ))
}

fn scan(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("scan: missing <path>")?;
    let ledger = open(path)?;
    let rev = has_flag(args, "--rev");
    let from: u64 = match flag(args, "--from") {
        Some(s) => parse(&s, "--from")?,
        // Forward scans start at the low end; reverse scans at the top.
        None => {
            if rev {
                u64::MAX
            } else {
                0
            }
        }
    };
    let limit: usize = match flag(args, "--limit") {
        Some(s) => parse(&s, "--limit")?,
        None => 50,
    };
    let mut out = String::new();
    if rev {
        for (k, v) in ledger.range_rev(..=from).take(limit) {
            out.push_str(&format!("{k},{v}\n"));
        }
    } else {
        for (k, v) in ledger.range(from..).take(limit) {
            out.push_str(&format!("{k},{v}\n"));
        }
    }
    Ok(out)
}

fn rank(args: &[String]) -> Result<String, String> {
    let [path, key] = args else {
        return Err("rank: expected <path> <key>".into());
    };
    let ledger = open(path)?;
    let key: u64 = parse(key, "key")?;
    Ok(format!("{}\n", ledger.rank(&key)))
}

fn stats(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("stats: missing <path>")?;
    let ledger = open(path)?;
    let cfg = ledger.config();
    let alg = match cfg.algorithm {
        Algorithm::Control1 => "CONTROL 1 (amortized)",
        Algorithm::Control2 => "CONTROL 2 (worst-case)",
    };
    let fill = if ledger.capacity() == 0 {
        0.0
    } else {
        ledger.len() as f64 / ledger.capacity() as f64 * 100.0
    };
    Ok(format!(
        "path:        {path}\n\
         algorithm:   {alg}\n\
         geometry:    {} slots × K={} pages of {} records (requested M={})\n\
         densities:   d#={} D#={} (L={}, gap assumption: {})\n\
         shift budget J={}\n\
         records:     {} of {} ({fill:.1}% full)\n",
        cfg.slots,
        cfg.k,
        cfg.page_capacity,
        cfg.requested_pages,
        cfg.slot_min,
        cfg.slot_max,
        cfg.log_slots,
        cfg.meets_gap_assumption,
        cfg.j,
        ledger.len(),
        ledger.capacity(),
    ))
}

fn bench(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("bench: missing <path>")?;
    let mut ledger = open(path)?; // benched in memory; never saved back
    let workload = flag(args, "--workload").ok_or("bench: missing --workload")?;
    let ops: usize = match flag(args, "--ops") {
        Some(s) => parse(&s, "--ops")?,
        None => 1000,
    };
    let room = (ledger.capacity() - ledger.len()) as usize;
    let ops = ops.min(room);
    if ops == 0 {
        return Err("bench: file is at capacity; nothing to insert".into());
    }
    // Aim the stream inside (or just above) the resident key range.
    let hi = ledger.last().map(|(k, _)| *k).unwrap_or(1 << 40);
    let keys = match workload.as_str() {
        "uniform" => dsf_workloads::uniform_unique(7, ops, 0, hi.max(ops as u64 * 4)),
        "burst" => {
            let lo = hi / 2;
            dsf_workloads::burst(7, ops, lo, lo + (ops as u64) * 4)
        }
        "hammer" => dsf_workloads::hammer(ops, hi / 2, 1),
        other => return Err(format!("bench: unknown workload `{other}`")),
    };
    let mut done = 0u64;
    for k in keys {
        if ledger.insert(k, format!("bench-{k}")).is_ok() {
            done += 1;
        }
    }
    let s = ledger.op_stats();
    ledger
        .check_invariants()
        .map_err(|v| format!("invariants broken: {v:?}"))?;
    Ok(format!(
        "replayed {done} {workload} inserts (in memory only):\n\
         mean {:.2} page accesses/command, worst {}, J={}\n\
         shifts {}, records shifted {}\n",
        s.mean_accesses(),
        s.max_accesses,
        ledger.config().j,
        s.shifts,
        s.records_shifted,
    ))
}

fn gen_trace(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("gen-trace: missing <trace-path>")?;
    let workload = flag(args, "--workload").ok_or("gen-trace: missing --workload")?;
    let ops: usize = match flag(args, "--ops") {
        Some(s) => parse(&s, "--ops")?,
        None => 1000,
    };
    let seed: u64 = match flag(args, "--seed") {
        Some(s) => parse(&s, "--seed")?,
        None => 42,
    };
    let stream: Vec<dsf_workloads::Op> = match workload.as_str() {
        "uniform" => dsf_workloads::uniform_unique(seed, ops, 0, u64::MAX >> 8)
            .into_iter()
            .map(dsf_workloads::Op::Insert)
            .collect(),
        "burst" => dsf_workloads::burst(seed, ops, 1 << 40, (1 << 40) + ops as u64 * 8)
            .into_iter()
            .map(dsf_workloads::Op::Insert)
            .collect(),
        "hammer" => dsf_workloads::hammer(ops, 1 << 40, 1)
            .into_iter()
            .map(dsf_workloads::Op::Insert)
            .collect(),
        "mixed" => dsf_workloads::mixed_ops(seed, ops, 0.6, u64::MAX >> 8),
        other => return Err(format!("gen-trace: unknown workload `{other}`")),
    };
    std::fs::write(path, dsf_workloads::write_trace(&stream))
        .map_err(|e| format!("cannot write `{path}`: {e}"))?;
    Ok(format!("wrote {} operations to `{path}`\n", stream.len()))
}

fn replay(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("replay: missing <path>")?;
    let trace_path = args.get(1).ok_or("replay: missing <trace-path>")?;
    let dry = has_flag(args, "--dry-run");
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read `{trace_path}`: {e}"))?;
    let ops = dsf_workloads::read_trace(&text)?;
    let mut ledger = open(path)?;
    let (mut ins, mut del, mut gets, mut scans, mut refused) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for op in &ops {
        match *op {
            dsf_workloads::Op::Insert(k) => {
                if ledger.insert(k, format!("replay-{k}")).is_ok() {
                    ins += 1;
                } else {
                    refused += 1;
                }
            }
            dsf_workloads::Op::Remove(k) => {
                if ledger.remove(&k).is_some() {
                    del += 1;
                }
            }
            dsf_workloads::Op::Get(k) => {
                let _ = ledger.get(&k);
                gets += 1;
            }
            dsf_workloads::Op::Scan { start, limit } => {
                let _ = ledger.range(start..).take(limit).count();
                scans += 1;
            }
        }
    }
    ledger
        .check_invariants()
        .map_err(|v| format!("invariants broken after replay: {v:?}"))?;
    if !dry {
        save(&ledger, path)?;
    }
    let s = ledger.op_stats();
    Ok(format!(
        "replayed {} ops ({ins} inserts, {del} deletes, {gets} gets, {scans} scans, {refused} refused at capacity){}\n\
         mean {:.2} page accesses/command, worst {}\n",
        ops.len(),
        if dry { " [dry run — file unchanged]" } else { "" },
        s.mean_accesses(),
        s.max_accesses,
    ))
}

fn image_export(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("image-export: missing <path>")?;
    let image = args.get(1).ok_or("image-export: missing <image-path>")?;
    let page_bytes: u32 = match flag(args, "--page-bytes") {
        Some(s) => parse(&s, "--page-bytes")?,
        None => 4096,
    };
    let ledger = open(path)?;
    let img = willard_dsf::durable::PhysicalImage::create(&ledger, image, page_bytes)
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "wrote `{image}`: {} records at their page addresses ({} pages × {page_bytes} B)\n",
        ledger.len(),
        img.pages() + 1,
    ))
}

fn image_stream(args: &[String]) -> Result<String, String> {
    let image = args.first().ok_or("image-stream: missing <image-path>")?;
    let lo: u64 = match flag(args, "--from") {
        Some(s) => parse(&s, "--from")?,
        None => 0,
    };
    let hi: u64 = match flag(args, "--to") {
        Some(s) => parse(&s, "--to")?,
        None => u64::MAX,
    };
    let mut img = willard_dsf::durable::PhysicalImage::open(image).map_err(|e| e.to_string())?;
    let (recs, report) = img
        .stream_range::<u64, String>(lo, hi)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (k, v) in &recs {
        out.push_str(&format!("{k},{v}\n"));
    }
    out.push_str(&format!(
        "# {} records; {} seeks, {} pages, {} bytes read\n",
        recs.len(),
        report.seeks,
        report.pages_read,
        report.bytes_read
    ));
    Ok(out)
}

/// Replays `ops` inserts of `workload` against `ledger` in memory — the
/// shared driver of `top` and `serve-metrics` (same key streams as `bench`).
fn drive_workload(ledger: &mut Ledger, workload: &str, ops: usize) -> Result<u64, String> {
    let room = (ledger.capacity() - ledger.len()) as usize;
    let ops = ops.min(room);
    let hi = ledger.last().map(|(k, _)| *k).unwrap_or(1 << 40);
    let keys = match workload {
        "uniform" => dsf_workloads::uniform_unique(7, ops, 0, hi.max(ops as u64 * 4)),
        "burst" => {
            let lo = hi / 2;
            dsf_workloads::burst(7, ops, lo, lo + (ops as u64) * 4)
        }
        "hammer" => dsf_workloads::hammer(ops, hi / 2, 1),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut done = 0u64;
    for k in keys {
        if ledger.insert(k, format!("tel-{k}")).is_ok() {
            done += 1;
        }
    }
    Ok(done)
}

fn top(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("top: missing <path>")?;
    let mut ledger = open(path)?; // driven in memory; never saved back
    let workload = flag(args, "--workload").unwrap_or_else(|| "uniform".into());
    let ops: usize = match flag(args, "--ops") {
        Some(s) => parse(&s, "--ops")?,
        None => 1000,
    };
    willard_dsf::telemetry::global().enable();
    let done = drive_workload(&mut ledger, &workload, ops).map_err(|e| format!("top: {e}"))?;
    ledger.refresh_telemetry_gauges();
    let s = ledger.op_stats();
    Ok(format!(
        "drove {done} {workload} inserts in memory (worst {} / mean {:.2} page accesses)\n\n{}",
        s.max_accesses,
        s.mean_accesses(),
        willard_dsf::telemetry::global().render_text(),
    ))
}

fn serve_metrics(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("serve-metrics: missing <path>")?;
    let mut ledger = open(path)?; // served from memory; never saved back
    let port: u16 = match flag(args, "--port") {
        Some(s) => parse(&s, "--port")?,
        None => 9184,
    };
    willard_dsf::telemetry::global().enable();
    if let Some(workload) = flag(args, "--workload") {
        let ops: usize = match flag(args, "--ops") {
            Some(s) => parse(&s, "--ops")?,
            None => 1000,
        };
        let done = drive_workload(&mut ledger, &workload, ops)
            .map_err(|e| format!("serve-metrics: {e}"))?;
        println!("drove {done} {workload} inserts to populate the spine");
    }
    ledger.refresh_telemetry_gauges();
    let listener = willard_dsf::telemetry::MetricsListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("serve-metrics: cannot bind port {port}: {e}"))?;
    let addr = listener.local_addr();
    println!("serving http://{addr}/metrics  (also /json)");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    if has_flag(args, "--oneshot") {
        let requests: usize = match flag(args, "--requests") {
            Some(s) => parse(&s, "--requests")?,
            None => 1,
        };
        listener
            .serve_requests(requests)
            .map_err(|e| format!("serve-metrics: {e}"))?;
        Ok(format!("served {requests} request(s); exiting\n"))
    } else {
        listener
            .serve_forever()
            .map_err(|e| format!("serve-metrics: {e}"))?;
        Ok(String::new())
    }
}

// ---------------------------------------------------------------------
// Network front-end (`dsf serve` / `dsf client`).
// ---------------------------------------------------------------------

fn serve(args: &[String]) -> Result<String, String> {
    use willard_dsf::server::{DurableKv, Payload, ServerConfig};
    use willard_dsf::{KvService, Server, ShardedFile, SyncPolicy};

    let addr = flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:4600".into());
    let shards: u32 = match flag(args, "--shards") {
        Some(s) => parse(&s, "--shards")?,
        None => 4,
    };
    let pages: u32 = match flag(args, "--pages") {
        Some(s) => parse(&s, "--pages")?,
        None => 256,
    };
    let d: u32 = match flag(args, "--min-density") {
        Some(s) => parse(&s, "--min-density")?,
        None => 8,
    };
    let big_d: u32 = match flag(args, "--max-density") {
        Some(s) => parse(&s, "--max-density")?,
        None => 48,
    };
    let per_shard = DenseFileConfig::control2(pages, d, big_d);

    let (service, backend): (std::sync::Arc<dyn KvService>, String) = if has_flag(args, "--memory")
    {
        let kv: ShardedFile<Payload> =
            ShardedFile::new(shards, per_shard).map_err(|e| format!("serve: {e}"))?;
        kv.enable_optimistic_reads();
        (
            std::sync::Arc::new(kv),
            format!("in-memory, {shards} shards"),
        )
    } else {
        let dir = args
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or("serve: missing <dir> (or pass --memory)")?;
        let window_frames: u32 = match flag(args, "--window-frames") {
            Some(s) => parse(&s, "--window-frames")?,
            None => 64,
        };
        let window_micros: u64 = match flag(args, "--window-micros") {
            Some(s) => parse(&s, "--window-micros")?,
            None => 2_000,
        };
        let policy = SyncPolicy::CommitWindow {
            max_frames: window_frames,
            max_micros: window_micros,
        };
        // First run creates the store; later runs recover it (the shard
        // count then comes from the directory, not --shards).
        let kv = if std::path::Path::new(dir).join("shard-0").is_dir() {
            DurableKv::open(dir, policy).map_err(|e| format!("serve: cannot open `{dir}`: {e}"))?
        } else {
            DurableKv::create(dir, shards, per_shard, policy)
                .map_err(|e| format!("serve: cannot create `{dir}`: {e}"))?
        };
        let n = kv.shard_count();
        (
            std::sync::Arc::new(kv),
            format!("durable `{dir}`, {n} shards"),
        )
    };

    let mut cfg = ServerConfig::default();
    if let Some(b) = flag(args, "--batch-window") {
        cfg.batch_window = parse(&b, "--batch-window")?;
    }
    let server = Server::bind(service, cfg, &addr)
        .map_err(|e| format!("serve: cannot bind `{addr}`: {e}"))?;
    println!("serving dsf://{} ({backend})", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    // Block until a client sends the Shutdown frame, then drain: every
    // acked command (Strict or Relaxed) is durable when this returns.
    server.wait_shutdown_request();
    server.shutdown().map_err(|e| format!("serve: {e}"))?;
    Ok("shutdown complete\n".into())
}

fn client(args: &[String]) -> Result<String, String> {
    use willard_dsf::server::{Outcome, Request, Response};
    use willard_dsf::Durability;

    let addr = args.first().ok_or("client: missing <addr>")?;
    let sub = args
        .get(1)
        .ok_or("client: expected ping|insert|remove|get|scan|count|flush|shutdown")?;
    let durability = if has_flag(args, "--relaxed") {
        Durability::Relaxed
    } else {
        Durability::Strict
    };
    let req = match sub.as_str() {
        "ping" => Request::Ping,
        "count" => Request::Count,
        "flush" => Request::Flush,
        "shutdown" => Request::Shutdown,
        "insert" => {
            let key: u64 = parse(args.get(2).ok_or("client insert: missing <key>")?, "key")?;
            let value = args.get(3).ok_or("client insert: missing <value>")?.clone();
            Request::Insert {
                key,
                value,
                durability,
            }
        }
        "remove" => {
            let key: u64 = parse(args.get(2).ok_or("client remove: missing <key>")?, "key")?;
            Request::Remove { key, durability }
        }
        "get" => {
            let key: u64 = parse(args.get(2).ok_or("client get: missing <key>")?, "key")?;
            Request::Get { key }
        }
        "scan" => {
            let start: u64 = match flag(args, "--from") {
                Some(s) => parse(&s, "--from")?,
                None => 0,
            };
            let limit: u32 = match flag(args, "--limit") {
                Some(s) => parse(&s, "--limit")?,
                None => 50,
            };
            Request::Scan { start, limit }
        }
        other => return Err(format!("client: unknown subcommand `{other}`")),
    };
    let mut c = willard_dsf::server::Client::connect(addr.as_str())
        .map_err(|e| format!("client: cannot connect to `{addr}`: {e}"))?;
    let rsp = c
        .call(&req)
        .map_err(|e| format!("client: request failed: {e}"))?;
    Ok(match rsp {
        Response::Applied { outcome, seq } => match outcome {
            Outcome::Inserted => format!("inserted (seq {seq})\n"),
            Outcome::Replaced(old) => format!("replaced (was: {old}, seq {seq})\n"),
            Outcome::Removed(old) => format!("removed (was: {old}, seq {seq})\n"),
            Outcome::NotFound => "not found\n".to_string(),
            Outcome::Rejected(e) => return Err(format!("rejected: {e}")),
        },
        Response::Value(Some(v)) => format!("{v}\n"),
        Response::Value(None) => "not found\n".to_string(),
        Response::Entries(entries) => {
            let mut out = String::new();
            for (k, v) in &entries {
                out.push_str(&format!("{k}\t{v}\n"));
            }
            out.push_str(&format!("({} records)\n", entries.len()));
            out
        }
        Response::Pong => "pong\n".to_string(),
        Response::Count(n) => format!("{n} records\n"),
        Response::Flushed => "flushed\n".to_string(),
        Response::ShuttingDown => "server shutting down\n".to_string(),
        Response::Error(e) => return Err(format!("server error: {e}")),
    })
}

// ---------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------

fn flight(args: &[String]) -> Result<String, String> {
    let sub = args.first().ok_or("flight: expected record|replay")?;
    match sub.as_str() {
        "record" => flight_record(&args[1..]),
        "replay" => flight_replay(&args[1..]),
        other => Err(format!("flight: unknown subcommand `{other}`")),
    }
}

fn load_flight(path: &str) -> Result<willard_dsf::flight::FlightLog, String> {
    willard_dsf::flight::FlightLog::load(path).map_err(|e| format!("cannot load `{path}`: {e}"))
}

fn flight_record(args: &[String]) -> Result<String, String> {
    use willard_dsf::flight;
    let out = args.first().ok_or("flight record: missing <out.flight>")?;
    // Telemetry runs alongside so the flight log can be cross-checked
    // against the histogram (`dsf_command_page_accesses_max` below must
    // equal the worst command `dsf explain` reconstructs).
    let reg = willard_dsf::telemetry::global();
    reg.reset();
    reg.enable();

    let (ledger, done, log) = if has_flag(args, "--example52") {
        // The paper's Example 5.2: M=8, d#=9, D#=18, J=3, layout
        // [16,1,0,1,9,9,9,16], then the two inserts Z₁ (7500) and Z₂ (500)
        // whose flag-stable moments are Figure 4's rows t₁..t₈.
        let cfg = DenseFileConfig::control2(8, 9, 18)
            .with_j(3)
            .with_macro_blocking(willard_dsf::MacroBlocking::Disabled);
        let mut f: Ledger = DenseFile::new(cfg).map_err(|e| e.to_string())?;
        let counts = [16usize, 1, 0, 1, 9, 9, 9, 16];
        let layout: Vec<Vec<(u64, String)>> = counts
            .iter()
            .enumerate()
            .map(|(s, &n)| {
                (0..n)
                    .map(|i| (s as u64 * 1000 + i as u64 + 1, format!("r{s}.{i}")))
                    .collect()
            })
            .collect();
        f.bulk_load_per_slot(layout)
            .map_err(|e| format!("flight record: {e}"))?;
        let (res, mut log) = flight::capture(|| {
            f.insert(7500, "z1".into())?;
            f.insert(500, "z2".into())
        });
        res.map_err(|e| e.to_string())?;
        log.budget = f.config().flight_budget();
        (f, 2, log)
    } else {
        let pages: u32 = match flag(args, "--pages") {
            Some(s) => parse(&s, "--pages")?,
            None => 256,
        };
        let d: u32 = match flag(args, "--min-density") {
            Some(s) => parse(&s, "--min-density")?,
            None => 6,
        };
        let big_d: u32 = match flag(args, "--max-density") {
            Some(s) => parse(&s, "--max-density")?,
            None => 8,
        };
        let mut config = DenseFileConfig::control2(pages, d, big_d);
        if let Some(j) = flag(args, "--j") {
            config = config.with_j(parse(&j, "--j")?);
        }
        let mut f: Ledger = DenseFile::new(config).map_err(|e| e.to_string())?;
        // Moment snapshots cost O(M) per flag-stable moment: opt-in here.
        flight::clear();
        flight::set_moments(has_flag(args, "--moments"));
        // A 3/5 backbone makes the subsequent inserts trigger real
        // maintenance (same shape as `exp_telemetry`).
        let backbone = f.capacity() * 3 / 5;
        let stride = u64::MAX / (backbone + 1);
        f.bulk_load((0..backbone).map(|i| (i * stride, format!("r{i}"))))
            .map_err(|e| format!("flight record: {e}"))?;
        flight::enable();
        let workload = flag(args, "--workload").unwrap_or_else(|| "uniform".into());
        let ops: usize = match flag(args, "--ops") {
            Some(s) => parse(&s, "--ops")?,
            None => 1000,
        };
        let done =
            drive_workload(&mut f, &workload, ops).map_err(|e| format!("flight record: {e}"))?;
        flight::disable();
        flight::set_moments(false);
        let log = flight::snapshot_log(f.config().flight_budget());
        (f, done, log)
    };

    let budget = log.budget;
    log.save(out)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    let ring = flight::ring();
    let hist = reg.histogram(
        "dsf_command_page_accesses",
        "page accesses per structural command (the paper's cost unit)",
    );
    let summary = format!(
        "recorded {done} commands to `{out}`: {} events ({} dropped), {} bytes\n\
         worst command: {} page accesses (J={}, page bound {})\n\
         dsf_command_page_accesses_max {}\n",
        ring.total(),
        ring.dropped(),
        ring.bytes(),
        ledger.op_stats().max_accesses,
        budget.j,
        budget.page_limit(),
        hist.max(),
    );
    reg.disable();
    flight::clear();
    Ok(summary)
}

fn flight_replay(args: &[String]) -> Result<String, String> {
    use willard_dsf::flight::Violation;
    let path = args.first().ok_or("flight replay: missing <file.flight>")?;
    let log = load_flight(path)?;
    let attr = log.replay();
    let audit = attr.audit();
    let mut out = format!(
        "flight log `{path}`: {} events retained ({} dropped of {} recorded)\n\
         budget: J={} K={} L={} gap={} → page bound {}\n\
         commands: {} complete, {} cancelled, {} incomplete\n\
         accesses: total {}, worst {} (seq {}); per-phase attribution reconciles: {}\n",
        log.events.len(),
        log.dropped,
        log.total,
        log.budget.j,
        log.budget.k,
        log.budget.log_slots,
        log.budget.gap,
        audit.page_limit,
        attr.command_count(),
        attr.cancelled,
        attr.incomplete,
        attr.total_accesses(),
        attr.max_accesses(),
        attr.worst().map_or(0, |c| c.seq),
        attr.reconciles(),
    );
    if audit.ok() {
        out.push_str("audit: OK — every command within the J-step budget and the page bound\n");
    } else {
        out.push_str(&format!("audit: {} violation(s)\n", audit.violations.len()));
        for v in &audit.violations {
            match v {
                Violation::JBudget { seq, shift_steps } => out.push_str(&format!(
                    "  command {seq}: {shift_steps} SHIFT steps > J={}\n",
                    log.budget.j
                )),
                Violation::PageBound { seq, accesses } => out.push_str(&format!(
                    "  command {seq}: {accesses} page accesses > bound {}\n",
                    audit.page_limit
                )),
            }
        }
    }
    let report = willard_dsf::flight::request::TraceReport::from_log(&log, 3);
    if report.records > 0 {
        out.push('\n');
        out.push_str(&report.render_text());
    }
    if let Some(chrome) = flag(args, "--chrome") {
        std::fs::write(&chrome, report.to_chrome_json())
            .map_err(|e| format!("cannot write `{chrome}`: {e}"))?;
        out.push_str(&format!(
            "wrote Chrome trace_event JSON to `{chrome}` (open in chrome://tracing or \
             https://ui.perfetto.dev)\n"
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// `dsf explain`: one reader for both kinds of flight frames.
// ---------------------------------------------------------------------

fn explain(args: &[String]) -> Result<String, String> {
    use willard_dsf::flight::request::TraceReport;
    let path = args.first().ok_or("explain: missing <file.flight>")?;
    let log = load_flight(path)?;
    let attr = log.replay();
    let request_of = |seq: u64| log.requests().find(|r| r.seq == seq && seq != 0);
    // One command, both answers: its request's waterfall (when a served
    // request ran it) above its page cost.
    let joined = |seq: u64, rec: Option<&willard_dsf::flight::RequestTimeline>| {
        let mut out = rec.map(TraceReport::render_waterfall).unwrap_or_default();
        match attr.find(seq) {
            Some(c) => out.push_str(&explain_command(c, &log.budget, rec)),
            None if seq == 0 => out.push_str("  no structural command (a read or a miss)\n"),
            None => out.push_str(&format!(
                "  no complete command with seq {seq} in this log\n"
            )),
        }
        out
    };
    if let Some(id_s) = flag(args, "--id") {
        // Accept both decimal and the 0x-hex form the waterfalls print.
        let id = match id_s.strip_prefix("0x") {
            Some(hex) => {
                u64::from_str_radix(hex, 16).map_err(|_| format!("invalid --id: `{id_s}`"))?
            }
            None => parse(&id_s, "--id")?,
        };
        let rec = log
            .requests()
            .find(|r| r.id == id)
            .ok_or(format!("explain: no request with trace id {id:#x}"))?;
        return Ok(joined(rec.seq, Some(rec)));
    }
    if let Some(seq_s) = flag(args, "--seq") {
        let seq: u64 = parse(&seq_s, "--seq")?;
        let rec = request_of(seq);
        if rec.is_none() && attr.find(seq).is_none() {
            return Err(format!(
                "explain: no request or complete command with seq {seq}"
            ));
        }
        return Ok(joined(seq, rec));
    }
    let k: usize = match flag(args, "--top") {
        Some(s) => parse(&s, "--top")?,
        None => 3,
    };
    let mut out = String::new();
    let report = TraceReport::from_log(&log, k);
    if report.records > 0 {
        out.push_str(&format!(
            "top {} of {} timelines by end-to-end latency:\n\n",
            report.exemplars.len(),
            report.records,
        ));
        for rec in &report.exemplars {
            out.push_str(&joined(rec.seq, Some(rec)));
            out.push('\n');
        }
        if let Some((phase, share)) = report.dominant_phase() {
            out.push_str(&format!(
                "dominant phase: {} ({:.0}% of total time)\n\n",
                phase.name(),
                share * 100.0
            ));
        }
    }
    let top = attr.top(k);
    let Some(worst) = attr.worst() else {
        if out.is_empty() {
            out.push_str("no complete commands or requests in this flight log\n");
        }
        return Ok(out);
    };
    out.push_str(&format!(
        "top {} of {} commands by page accesses (J={}, page bound {}):\n\
         \x20  seq  kind    slot  pages   user  shift  activ  rollb  wal  steps  wal_frames\n",
        top.len(),
        attr.command_count(),
        log.budget.j,
        log.budget.page_limit(),
    ));
    for c in &top {
        out.push_str(&format!(
            "  {:>5} {:7} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>4} {:>6} {:>11}\n",
            c.seq,
            c.kind.map(|k| k.label()).unwrap_or("?"),
            c.target,
            c.accesses,
            c.user_pages(),
            c.shift_pages(),
            c.activate_pages(),
            c.rollback_pages(),
            c.wal_pages(),
            c.shift_steps,
            c.wal_frames,
        ));
    }
    out.push_str(&format!("\nworst command: seq {}\n", worst.seq));
    out.push_str(&joined(worst.seq, request_of(worst.seq)));
    Ok(out)
}

/// Renders one command's full causal trace (plus its Figure-4-style
/// per-moment table when moment snapshots were recorded). `rec` is the
/// request the command ran as: its waterfall holds the group commit's
/// lock wait and fsync, which every member of the batch waited for.
fn explain_command(
    c: &willard_dsf::flight::CommandCost,
    budget: &willard_dsf::flight::BoundBudget,
    rec: Option<&willard_dsf::flight::RequestTimeline>,
) -> String {
    use willard_dsf::flight::request::Phase;
    let us = |n: u64| n as f64 / 1_000.0;
    let mut out = format!(
        "command {} ({} → slot {}): {} page accesses (page bound {}), {:.3}us\n\
         \x20 breakdown: user {}, SHIFT {}, ACTIVATE {}, rollback {}, WAL {} pages\n",
        c.seq,
        c.kind.map(|k| k.label()).unwrap_or("?"),
        c.target,
        c.accesses,
        budget.page_limit(),
        us(c.nanos),
        c.user_pages(),
        c.shift_pages(),
        c.activate_pages(),
        c.rollback_pages(),
        c.wal_pages(),
    );
    out.push_str(&format!(
        "  {} SHIFT steps of J={}; {} flags lowered; {} WAL frames ({} B)\n",
        c.shift_steps, budget.j, c.flags_lowered, c.wal_frames, c.wal_bytes,
    ));
    if let Some(r) = rec {
        out.push_str(&format!(
            "  group commit, shared by every member: lock wait {:.3}us, fsync {:.3}us\n",
            us(r.phases[Phase::LockWait as usize]),
            us(r.phases[Phase::Fsync as usize]),
        ));
    }
    for (node, dest) in &c.activations {
        out.push_str(&format!("  ACTIVATE(v{node}) → DEST slot {dest}\n"));
    }
    for (node, new_dest) in &c.rollbacks {
        out.push_str(&format!(
            "  rollback: DEST(v{node}) reset to slot {new_dest}\n"
        ));
    }
    for s in &c.shifts {
        out.push_str(&format!(
            "  SHIFT(v{}): slot {} → slot {}, {} records",
            s.node, s.source, s.dest, s.moved
        ));
        if let Some(nd) = s.new_dest {
            // A `.flight` file is untrusted input: no overflow on `nd + 1`.
            let page = nd.saturating_add(1);
            out.push_str(&format!(", DEST advances to slot {nd} (page {page})"));
        }
        out.push('\n');
    }
    if !c.moments.is_empty() {
        out.push_str("  flag-stable moments (per-slot record counts, as in Figure 4):\n");
        for (i, (class, counts)) in c.moments.iter().enumerate() {
            let row: Vec<String> = counts.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "    m{} {:<13}: [{}]\n",
                i + 1,
                class.label(),
                row.join(", ")
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Request tracing (`dsf trace`).
// ---------------------------------------------------------------------

fn trace(args: &[String]) -> Result<String, String> {
    let sub = args.first().ok_or("trace: expected record")?;
    match sub.as_str() {
        "record" => trace_record(&args[1..]),
        other => Err(format!("trace: unknown subcommand `{other}`")),
    }
}

fn trace_record(args: &[String]) -> Result<String, String> {
    use willard_dsf::flight;
    use willard_dsf::server::{Client, DurableKv, Payload, Request, ServerConfig};
    use willard_dsf::{Durability, KvService, Server, ShardedFile, SyncPolicy};

    let out = args.first().ok_or("trace record: missing <out.flight>")?;
    let clients: u64 = match flag(args, "--clients") {
        Some(s) => parse(&s, "--clients")?,
        None => 4,
    };
    let ops: u64 = match flag(args, "--ops") {
        Some(s) => parse(&s, "--ops")?,
        None => 256,
    };
    if clients == 0 || ops == 0 {
        return Err("trace record: --clients and --ops must be positive".into());
    }
    let shards: u32 = match flag(args, "--shards") {
        Some(s) => parse(&s, "--shards")?,
        None => 2,
    };
    let pages: u32 = match flag(args, "--pages") {
        Some(s) => parse(&s, "--pages")?,
        None => 256,
    };
    let d: u32 = match flag(args, "--min-density") {
        Some(s) => parse(&s, "--min-density")?,
        None => 8,
    };
    let big_d: u32 = match flag(args, "--max-density") {
        Some(s) => parse(&s, "--max-density")?,
        None => 48,
    };
    let per_shard = DenseFileConfig::control2(pages, d, big_d);

    // A scratch store: the run exists to record timelines, not data.
    let mut scratch: Option<std::path::PathBuf> = None;
    let (service, backend): (std::sync::Arc<dyn KvService>, &str) = if has_flag(args, "--memory") {
        let kv: ShardedFile<Payload> =
            ShardedFile::new(shards, per_shard).map_err(|e| format!("trace record: {e}"))?;
        kv.enable_optimistic_reads();
        (std::sync::Arc::new(kv), "in-memory")
    } else {
        let dir = std::env::temp_dir().join(format!("dsf-trace-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let kv = DurableKv::create(
            &dir,
            shards,
            per_shard,
            SyncPolicy::CommitWindow {
                max_frames: 64,
                max_micros: 2_000,
            },
        )
        .map_err(|e| format!("trace record: cannot create scratch store: {e}"))?;
        scratch = Some(dir);
        (std::sync::Arc::new(kv), "durable scratch")
    };

    flight::clear();
    flight::enable();
    let server = Server::bind(service, ServerConfig::default(), "127.0.0.1:0")
        .map_err(|e| format!("trace record: cannot bind: {e}"))?;
    let addr = server.local_addr();

    // Pipelined traced clients on striped keys: every insert lands on a
    // distinct key, and concurrent arrivals coalesce into group commits
    // whose shared fsyncs the timelines then attribute.
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || -> Result<(), String> {
                let mut cl = Client::connect(addr)
                    .map_err(|e| format!("client {c}: cannot connect: {e}"))?;
                for i in 0..ops {
                    cl.send_traced(&Request::Insert {
                        key: i * clients + c,
                        value: format!("c{c}.{i}"),
                        durability: Durability::Strict,
                    })
                    .map_err(|e| format!("client {c}: send failed: {e}"))?;
                }
                for _ in 0..ops {
                    cl.recv()
                        .map_err(|e| format!("client {c}: recv failed: {e}"))?;
                }
                Ok(())
            })
        })
        .collect();
    let mut failures = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(e),
            Err(_) => failures.push("client thread panicked".into()),
        }
    }
    server
        .shutdown()
        .map_err(|e| format!("trace record: {e}"))?;
    flight::disable();
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if let Some(e) = failures.into_iter().next() {
        return Err(format!("trace record: {e}"));
    }

    let budget = per_shard
        .resolve()
        .map_err(|e| format!("trace record: {e}"))?
        .flight_budget();
    let log = flight::snapshot_log(budget);
    flight::clear();
    log.save(out)
        .map_err(|e| format!("cannot write `{out}`: {e}"))?;
    let attr = log.replay();
    let report = willard_dsf::flight::request::TraceReport::from_log(&log, 3);
    let mut summary = format!(
        "recorded {} timelines to `{out}` ({} frames dropped) with the page cost of their \
         {} commands: {clients} clients × {ops} strict inserts, {backend}, {shards} shards\n",
        report.records,
        log.dropped,
        attr.command_count(),
    );
    let wb_pages = attr.total_writeback_pages();
    if wb_pages > 0 {
        // Writeback is asynchronous to any single request, so it is
        // charged to the commands that dirtied the pages, not a phase.
        summary.push_str(&format!(
            "background writeback: {wb_pages} pages (async to requests)\n"
        ));
    }
    summary.push('\n');
    summary.push_str(&report.render_text());
    Ok(summary)
}

// ---------------------------------------------------------------------
// Bench regression gate.
// ---------------------------------------------------------------------

/// Extracts a top-level numeric field from one of the `BENCH_*.json`
/// artifacts (flat enough that a full JSON parser is not worth a
/// dependency; nested objects only shadow keys we never gate on).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = text.find(&pat)? + pat.len();
    let rest = text[i..].trim_start();
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || "+-.eE".contains(ch)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every JSON key of `text` starting with `prefix` (e.g. the per-scenario
/// `max_accesses_<scenario>` metrics E17 emits), in file order.
fn json_keys_with_prefix(text: &str, prefix: &str) -> Vec<String> {
    let pat = format!("\"{prefix}");
    let mut keys = Vec::new();
    let mut at = 0;
    while let Some(i) = text[at..].find(&pat) {
        let start = at + i + 1; // past the opening quote
        let Some(len) = text[start..].find('"') else {
            break;
        };
        let key = &text[start..start + len];
        if text[start + len + 1..].trim_start().starts_with(':') {
            keys.push(key.to_string());
        }
        at = start + len + 1;
    }
    keys
}

fn bench_gate(args: &[String]) -> Result<String, String> {
    let baseline_path = args.first().ok_or("bench-gate: missing <baseline.json>")?;
    let candidate_path = args.get(1).ok_or("bench-gate: missing <candidate.json>")?;
    let threshold: f64 = match flag(args, "--threshold") {
        Some(s) => parse(&s, "--threshold")?,
        None => 0.15,
    };
    let base = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read `{baseline_path}`: {e}"))?;
    let cand = std::fs::read_to_string(candidate_path)
        .map_err(|e| format!("cannot read `{candidate_path}`: {e}"))?;
    // (metric, higher-is-better). Only metrics present in BOTH files gate.
    const GATED: &[(&str, bool)] = &[
        ("io_call_ratio", true),
        ("fsync_ratio", true),
        ("overhead_ratio", false),
        ("max_accesses", false),
        // Wall-clock ratios (sequential ms / batched ms): the batch
        // pipeline must stay cheaper in CPU terms, not just in syscalls.
        ("pool_wall_ratio", true),
        ("core_wall_ratio", true),
        ("wal_wall_ratio", true),
        // E16 async engine: durable-ingest p99 speedup of the commit
        // window over fsync-per-command at equal durability-on-ack.
        ("p99_speedup", true),
        // E18 server: commands per group commit at 8 clients (must stay
        // well above 1 — the accumulator's whole point), and the n=1/n=8
        // fsyncs-per-command ratio (concurrency must keep amortizing).
        ("serve_group_commit", true),
        ("serve_fsync_amortization", true),
        // E19 tracing: the full-sampling overhead ratio (traced p50 /
        // untraced p50) must stay bounded, the phase-sum-vs-e2e
        // reconciliation must hold, and the slow-fsync scenario must keep
        // attributing its tail to the fsync phase.
        ("trace_overhead_ratio", false),
        ("trace_reconcile_ok", true),
        ("trace_fsync_dominant", true),
        // E20 optimistic reads: multi-reader throughput scaling, served
        // read throughput vs the locked build, and read independence from
        // concurrent Strict ingest must not collapse. (`read_opt_vs_locked`
        // is reported but not ratio-gated: on small hosts it measures
        // scheduler luck more than code — the exact lock-wait gate below
        // is the deterministic guard.)
        ("read_scaling_ratio", true),
        ("serve_read_ratio", true),
        ("read_independence_ratio", true),
    ];
    let mut report = format!(
        "bench-gate: `{candidate_path}` vs baseline `{baseline_path}` (threshold {:.0}%)\n",
        threshold * 100.0
    );
    let mut checked = 0u32;
    let mut regressions: Vec<&str> = Vec::new();
    for &(key, higher_better) in GATED {
        let (Some(b), Some(c)) = (json_number(&base, key), json_number(&cand, key)) else {
            continue;
        };
        checked += 1;
        let change = if b == 0.0 { 0.0 } else { (c - b) / b };
        let regressed = if higher_better {
            change < -threshold
        } else {
            change > threshold
        };
        report.push_str(&format!(
            "  {key:<16} baseline {b:>10.4}  candidate {c:>10.4}  change {:>+7.1}%  {}\n",
            change * 100.0,
            if regressed { "REGRESSION" } else { "ok" }
        ));
        if regressed {
            regressions.push(key);
        }
    }
    // Exact (0%-slack) gates. E17's per-scenario worst cases are fully
    // deterministic — one extra page on any scenario's worst command fails.
    // So are its head-to-head means (`hh_<scenario>_<structure>_*_mean`):
    // page counts per command or retrieval, printed to three decimals.
    // E20's served `get_lock_wait_p50` is deterministically zero: an
    // optimistic hit never stamps a LockWait phase, so any nonzero
    // candidate means gets fell back to the shard lock. A key present in
    // the baseline but missing from the candidate also fails (a silently
    // dropped scenario must not pass).
    let mut exact_keys = json_keys_with_prefix(&base, "max_accesses_");
    exact_keys.extend(json_keys_with_prefix(&base, "hh_"));
    exact_keys.extend(json_keys_with_prefix(&base, "get_lock_wait_p50"));
    let mut dynamic: Vec<String> = Vec::new();
    for key in exact_keys {
        let Some(b) = json_number(&base, &key) else {
            continue;
        };
        checked += 1;
        let line = match json_number(&cand, &key) {
            None => {
                dynamic.push(key.clone());
                format!("  {key:<46} baseline {b:>7}  candidate MISSING  REGRESSION\n")
            }
            Some(c) => {
                let regressed = c > b;
                if regressed {
                    dynamic.push(key.clone());
                }
                format!(
                    "  {key:<46} baseline {b:>7}  candidate {c:>7}  exact  {}\n",
                    if regressed { "REGRESSION" } else { "ok" }
                )
            }
        };
        report.push_str(&line);
    }
    let mut regressions: Vec<&str> = regressions
        .into_iter()
        .chain(dynamic.iter().map(String::as_str))
        .collect();
    regressions.dedup();
    if checked == 0 {
        return Err(format!(
            "bench-gate: none of the gated metrics (io_call_ratio, fsync_ratio, overhead_ratio, \
             max_accesses, pool_wall_ratio, core_wall_ratio, wal_wall_ratio, p99_speedup, \
             serve_group_commit, serve_fsync_amortization, trace_overhead_ratio, \
             trace_reconcile_ok, trace_fsync_dominant, read_scaling_ratio, \
             serve_read_ratio, read_independence_ratio, max_accesses_<scenario>, \
             hh_<scenario>_<structure>_*_mean, get_lock_wait_p50) appear \
             in both `{baseline_path}` and `{candidate_path}`"
        ));
    }
    if let Some(rp) = flag(args, "--report") {
        std::fs::write(&rp, &report).map_err(|e| format!("cannot write `{rp}`: {e}"))?;
    }
    if regressions.is_empty() {
        report.push_str("bench-gate: PASS\n");
        Ok(report)
    } else {
        Err(format!(
            "{report}bench-gate: FAIL — regression in {}",
            regressions.join(", ")
        ))
    }
}

fn verify(args: &[String]) -> Result<String, String> {
    let path = args.first().ok_or("verify: missing <path>")?;
    let ledger = open(path)?;
    match ledger.check_invariants() {
        Ok(()) => Ok(format!(
            "ok: {} records, all invariants hold (order, density, BALANCE(d,D), flags)\n",
            ledger.len()
        )),
        Err(violations) => {
            let mut msg = String::from("INVARIANT VIOLATIONS:\n");
            for v in violations {
                msg.push_str(&format!("  - {v}\n"));
            }
            Err(msg)
        }
    }
}
