//! `dsfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the repository root (its store lives under
//! `.bench_work/` there and is removed afterwards), prints every metric
//! with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` prints
//! the end-to-end metrics, `--trace 1` the per-layer ones.

use dsfbench::{e2e, json_line, traced, Workload};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dsfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(val),
            "--seed" => seed = val.parse::<u64>().ok(),
            "--seconds" => seconds = val.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = val.parse::<u8>().ok().filter(|&t| t <= 1),
            _ => return usage(),
        }
    }
    let (Some(w), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace) else {
        return usage();
    };

    let work = std::env::current_dir()
        .expect("current directory")
        .join(".bench_work")
        .join(format!("{}-{}", w.name(), std::process::id()));
    let rep = if trace == 1 {
        traced(w, seed, seconds, &work)
    } else {
        e2e(w, seed, seconds, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        // Only removes the directory when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }

    println!(
        "# workload {} seed {seed} seconds {seconds} trace {trace}",
        w.name()
    );
    for m in &rep.metrics {
        match m.samples {
            Some(n) => println!("# {:<32} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
            None => println!("# {:<32} {:>14.4} {}", m.name, m.value, m.unit),
        }
    }
    for why in &rep.tally.reasons {
        println!("# FAILED: {why}");
    }
    println!("{}", json_line(&rep));
    ExitCode::SUCCESS
}
