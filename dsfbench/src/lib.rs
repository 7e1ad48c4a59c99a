//! The willard-dsf benchmark: four workloads, every end-to-end metric by
//! name and unit with every reply checked, and a traced pass that splits
//! the same command streams layer by layer. See `README.md` beside this
//! crate for why each workload exists and which layer each metric
//! should move.

#![warn(missing_docs)]

pub mod inproc;
pub mod ladder;
pub mod served;
pub mod util;

use served::{Phases, Plan, ServedKind, Shape};
use std::path::Path;
use std::time::Duration;
use util::{median, percentile_us, Metric, Samples, SplitMix, Tally};

/// Structural commands in the `adversarial_inproc` stream at 2^20 pages.
pub const ADV_OPS: usize = 1_500_000;
/// Pages of the adversary's file (E17's geometry).
pub const ADV_PAGES: u32 = 1 << 20;
/// Pages and stream length of the adversary replayed through the durable
/// and served rungs, which have no bulk-load entry point.
pub const ADV_SMALL: (u32, usize) = (1 << 14, 40_000);
/// Served rounds per run, each on a store of its own.
pub const SERVED_ROUNDS: u32 = 3;
/// Measurement windows per served round; each measures
/// `seconds / (SERVED_ROUNDS * WINDOWS)`.
pub const WINDOWS: u32 = 3;
/// Warm-up before the first served round's first write window; the first
/// round of a run otherwise comes out ~30% slower than the rest.
pub const FIRST_WARMUP: Duration = Duration::from_millis(2500);
/// Warm-up before every later round's first write window.
pub const WARMUP: Duration = Duration::from_millis(1000);
/// Warm-up before a round's later write windows, which follow a
/// read-back on a warm server.
pub const RESUME: Duration = Duration::from_millis(300);
/// The `served_ingest` workloads: share of a window's measured time given
/// to read-back.
pub const READ_SHARE: f64 = 1.0 / 3.0;
/// Fewest adversarial replays per run.
pub const ADV_MIN_ROUNDS: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Served Strict ingest on both shards.
    ServedIngest,
    /// `ServedIngest` with Relaxed writes on a store that does not fsync
    /// until shutdown.
    ServedIngestRelaxed,
    /// Served Zipf reads beside a depth-1 Strict churn.
    ReadMostly,
    /// In-process CONTROL 2 under the `Scenario::Adversarial` stream.
    AdversarialInproc,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ServedIngest,
        Workload::ServedIngestRelaxed,
        Workload::ReadMostly,
        Workload::AdversarialInproc,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServedIngest => "served_ingest",
            Workload::ServedIngestRelaxed => "served_ingest_relaxed",
            Workload::ReadMostly => "read_mostly",
            Workload::AdversarialInproc => "adversarial_inproc",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// A run's result: metrics plus the oracle's tally.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Ops attempted and failed, and whole-run checks.
    pub tally: Tally,
}

impl Report {
    fn push(&mut self, m: Metric) {
        self.tally
            .check(m.value.is_finite(), || format!("{} is not finite", m.name));
        self.metrics.push(m);
    }
}

/// What the end-to-end summary keeps of one measurement window (served)
/// or replay (in-process); the raw samples are dropped as soon as their
/// round ends, so they never count towards `peak_rss_mb`.
struct WindowSummary {
    /// Per op class (writes, gets, scans): p50 and p99 (µs) over all of
    /// the window's samples, and the sample count.
    lat: [(Option<f64>, Option<f64>, u64); 3],
    /// Acked writes per second of the write window.
    write_rate: f64,
    /// Completed reads per second of the window the reads ran in.
    read_rate: f64,
    cpu_us_per_op: f64,
    /// Exact (commands, page accesses).
    pages: (u64, u64),
}

impl WindowSummary {
    fn new(
        samples: &mut Samples,
        (write_s, read_s): (f64, f64),
        cpu_us_per_op: f64,
        pages: (u64, u64),
    ) -> Self {
        let reads = samples.reads() as f64;
        let lat = [&mut samples.writes, &mut samples.gets, &mut samples.scans].map(|v| {
            (
                percentile_us(v, 0.5),
                percentile_us(v, 0.99),
                v.len() as u64,
            )
        });
        eprintln!(
            "window: {} writes in {write_s:.2}s (p50 {:.1} p99 {:.1} us), {reads} reads in {read_s:.2}s (get p50 {:.1} p99 {:.1}, scan p50 {:.1} p99 {:.1} us), cpu {cpu_us_per_op:.2} us/op",
            lat[0].2,
            lat[0].0.unwrap_or(0.0),
            lat[0].1.unwrap_or(0.0),
            lat[1].0.unwrap_or(0.0),
            lat[1].1.unwrap_or(0.0),
            lat[2].0.unwrap_or(0.0),
            lat[2].1.unwrap_or(0.0),
        );
        WindowSummary {
            write_rate: lat[0].2 as f64 / write_s,
            read_rate: reads / read_s,
            lat,
            cpu_us_per_op,
            pages,
        }
    }
}

/// The thirteen end-to-end metrics, each the median over windows of the
/// window's figure (`setup_s`: over the run's setups). `worst` is the
/// stream's worst command.
fn e2e_metrics(rep: &mut Report, summaries: &[WindowSummary], setups: &[f64], worst: u64) {
    let med = |f: &dyn Fn(&WindowSummary) -> f64| -> f64 {
        median(&summaries.iter().map(f).collect::<Vec<_>>())
    };
    let mut lat = Vec::new();
    for (c, what) in ["write", "get", "scan"].iter().enumerate() {
        let measured = summaries.iter().all(|r| r.lat[c].0.is_some());
        rep.tally
            .check(measured, || format!("a window measured no {what} latency"));
        let n: u64 = summaries.iter().map(|r| r.lat[c].2).sum();
        let p50 = med(&|r| r.lat[c].0.unwrap_or(0.0));
        let p99 = med(&|r| r.lat[c].1.unwrap_or(0.0));
        lat.push((p50, p99, n));
    }
    let pages: Vec<_> = summaries.iter().map(|r| r.pages).collect();
    rep.tally.check(pages.windows(2).all(|w| w[0] == w[1]), || {
        format!("exact page counts differ between windows of one seed: {pages:?}")
    });
    let (cmds, acc) = pages[0];
    let [(w50, w99, wn), (g50, g99, gn), (s50, s99, sn)] = [lat[0], lat[1], lat[2]];
    rep.push(Metric::new(
        "write_ops_per_s",
        med(&|r| r.write_rate),
        "1/s",
    ));
    rep.push(Metric::sampled("write_p50_us", w50, "us", wn));
    rep.push(Metric::sampled("write_p99_us", w99, "us", wn));
    rep.push(Metric::new("read_ops_per_s", med(&|r| r.read_rate), "1/s"));
    rep.push(Metric::sampled("get_p50_us", g50, "us", gn));
    rep.push(Metric::sampled("get_p99_us", g99, "us", gn));
    rep.push(Metric::sampled("scan_p50_us", s50, "us", sn));
    rep.push(Metric::sampled("scan_p99_us", s99, "us", sn));
    rep.push(Metric::new(
        "cpu_us_per_op",
        med(&|r| r.cpu_us_per_op),
        "us",
    ));
    rep.push(Metric::sampled(
        "pages_per_cmd_max",
        worst as f64,
        "count",
        cmds,
    ));
    rep.push(Metric::sampled(
        "pages_per_cmd_mean",
        acc as f64 / cmds.max(1) as f64,
        "count",
        cmds,
    ));
    rep.push(Metric::sampled(
        "setup_s",
        median(setups),
        "s",
        setups.len() as u64,
    ));
    rep.push(Metric::new("peak_rss_mb", util::peak_rss_mb(), "MB"));
}

/// A served workload's kind and shape.
fn served(w: Workload) -> (ServedKind, Shape) {
    match w {
        Workload::ServedIngest => (ServedKind::Ingest, Shape::standard(ServedKind::Ingest)),
        Workload::ServedIngestRelaxed => (
            ServedKind::Ingest,
            Shape::standard(ServedKind::Ingest).relaxed(),
        ),
        _ => (
            ServedKind::ReadMostly,
            Shape::standard(ServedKind::ReadMostly),
        ),
    }
}

/// The `windows` measurement windows of served round `i` when a run
/// measures `seconds` over `SERVED_ROUNDS * WINDOWS` windows.
fn phases(kind: ServedKind, seconds: u64, i: u32, windows: u32) -> Vec<Phases> {
    let measured = seconds as f64 / f64::from(SERVED_ROUNDS * WINDOWS);
    let reads = if kind == ServedKind::Ingest {
        measured * READ_SHARE
    } else {
        0.0
    };
    (0..windows)
        .map(|w| Phases {
            warmup: match (i, w) {
                (0, 0) => FIRST_WARMUP,
                (_, 0) => WARMUP,
                _ => RESUME,
            },
            writes: Duration::from_secs_f64(measured - reads),
            reads: Duration::from_secs_f64(reads),
        })
        .collect()
}

/// The stream's exact page counts, replayed command by command into
/// plain `DenseFile`s after the same preload: (commands, accesses,
/// worst command of the stream alone). Each served round's store must
/// report the same (commands, accesses) at its checkpoint.
fn served_stream_pages(plan: &Plan) -> (u64, u64, u64) {
    let rec = plan.recorded(plan.shape.checkpoint_cmds as usize, 0);
    ladder::stream_pages(&mut plan.dense_files(false), &rec.writes)
}

/// The end-to-end pass: telemetry off, every metric of `BENCHMARK.json`'s
/// `end_to_end` list.
pub fn e2e(w: Workload, seed: u64, seconds: u64, work: &Path) -> Report {
    let mut rep = Report::default();
    let (mut summaries, mut setups) = (Vec::new(), Vec::new());
    let worst = match w {
        Workload::ServedIngest | Workload::ServedIngestRelaxed | Workload::ReadMostly => {
            let (kind, shape) = served(w);
            let plan = Plan::new(kind, shape, seed);
            for i in 0..SERVED_ROUNDS {
                let dir = work.join(format!("round-{i}"));
                let windows = phases(kind, seconds, i, WINDOWS);
                let r = served::run_round(&plan, &dir, &windows, false);
                eprintln!("round {i}: setup {:.3}s", r.setup_s);
                setups.push(r.setup_s);
                for mut m in r.windows {
                    let cpu = m.usage.cpu_us() / m.completed.max(1) as f64;
                    summaries.push(WindowSummary::new(
                        &mut m.samples,
                        (m.write_s, m.read_s),
                        cpu,
                        r.pages,
                    ));
                }
                rep.tally.absorb(r.tally);
            }
            let (cmds, acc, max) = served_stream_pages(&plan);
            rep.tally.check((cmds, acc) == summaries[0].pages, || {
                format!(
                    "DenseFile replay counts {:?} differ from the served checkpoint {:?}",
                    (cmds, acc),
                    summaries[0].pages
                )
            });
            max
        }
        Workload::AdversarialInproc => {
            let adv = inproc::Adversary::new(ADV_PAGES, ADV_OPS, seed);
            let mut rng = SplitMix::new(seed, 0xad7);
            let (mut measured, mut worsts) = (0.0, Vec::new());
            while summaries.len() < ADV_MIN_ROUNDS || measured < seconds as f64 {
                let mut r = inproc::run_round(&adv, &mut rng, summaries.is_empty());
                measured += r.replay_s + r.read_s;
                let cpu = r.usage.cpu_us() / r.samples.writes.len().max(1) as f64;
                eprintln!("replay {}: setup {:.3}s", summaries.len(), r.setup_s);
                setups.push(r.setup_s);
                summaries.push(WindowSummary::new(
                    &mut r.samples,
                    (r.replay_s, r.read_s),
                    cpu,
                    (r.pages.0, r.pages.1),
                ));
                worsts.push(r.pages.2);
                rep.tally.absorb(r.tally);
            }
            rep.tally
                .check(worsts.windows(2).all(|w| w[0] == w[1]), || {
                    format!("worst command differs between replays: {worsts:?}")
                });
            worsts[0]
        }
    };
    e2e_metrics(&mut rep, &summaries, &setups, worst);
    rep
}

/// Per-layer values before they become metrics.
#[derive(Debug, Default)]
struct Layers {
    core: ladder::CoreOut,
    durable: ladder::DurableOut,
    service: ladder::ServiceOut,
    counters: served::Counters,
    ping_us: f64,
    protocol_ns: f64,
    base_usage: util::Usage,
    base_ops: f64,
    overhead_ratio: f64,
}

fn layer_metrics(rep: &mut Report, l: &Layers) {
    let c = &l.core;
    let k = &l.counters;
    let reads = (k.read_hits + k.read_fallbacks).max(1) as f64;
    let m = [
        ("core.apply_ns_per_cmd", c.apply_ns_per_cmd, "ns"),
        ("core.shifts_per_cmd", c.shifts_per_cmd, "count"),
        (
            "core.records_shifted_per_cmd",
            c.records_shifted_per_cmd,
            "count",
        ),
        ("core.activations_per_cmd", c.activations_per_cmd, "count"),
        ("core.rollbacks_per_cmd", c.rollbacks_per_cmd, "count"),
        ("core.get_ns", c.get_ns, "ns"),
        (
            "pagestore.page_reads_per_cmd",
            c.page_reads_per_cmd,
            "count",
        ),
        (
            "pagestore.page_writes_per_cmd",
            c.page_writes_per_cmd,
            "count",
        ),
        (
            "readview.publish_ns_per_cmd",
            c.view_apply_ns_per_cmd - c.apply_ns_per_cmd,
            "ns",
        ),
        ("readview.try_get_ns", c.try_get_ns, "ns"),
        ("readview.get_hit_ratio", c.get_hit_ratio, "ratio"),
        ("readview.scan_hit_ratio", c.scan_hit_ratio, "ratio"),
        (
            "readview.retries_per_read",
            k.read_retries as f64 / reads,
            "count",
        ),
        (
            "readview.fallbacks_per_read",
            k.read_fallbacks as f64 / reads,
            "count",
        ),
        (
            "durable.relaxed_ns_per_cmd",
            l.durable.relaxed_ns_per_cmd,
            "ns",
        ),
        ("durable.sync_us", l.durable.sync_us, "us"),
        (
            "durable.fsyncs_per_cmd",
            k.fsyncs as f64 / k.batch_cmds.max(1) as f64,
            "count",
        ),
        (
            "durable.wal_bytes_per_cmd",
            l.durable.wal_bytes_per_cmd,
            "B",
        ),
        (
            "service.apply_us_per_batch",
            l.service.apply_us_per_batch,
            "us",
        ),
        ("service.get_ns", l.service.get_ns, "ns"),
        ("service.scan_us", l.service.scan_us, "us"),
        (
            "server.cmds_per_commit",
            k.batch_cmds as f64 / k.batches.max(1) as f64,
            "count",
        ),
        ("server.ping_rtt_us", l.ping_us, "us"),
        ("server.protocol_ns_per_req", l.protocol_ns, "ns"),
        (
            "proc.sys_cpu_share",
            l.base_usage.sys_us / l.base_usage.cpu_us().max(1.0),
            "ratio",
        ),
        (
            "proc.ctx_switches_per_op",
            l.base_usage.ctx_switches / l.base_ops.max(1.0),
            "count",
        ),
        ("trace.overhead_ratio", l.overhead_ratio, "ratio"),
    ];
    for (name, value, unit) in m {
        rep.push(Metric::new(name, value, unit));
    }
}

/// The traced pass: one untraced and one telemetry-on round of the
/// workload (registry deltas, tracing overhead), then the layer ladder
/// over the recorded stream. Prints every `per_layer` metric.
pub fn traced(w: Workload, seed: u64, seconds: u64, work: &Path) -> Report {
    let mut rep = Report::default();
    let mut l = Layers::default();
    let registry = dsf_telemetry::global();
    match w {
        Workload::ServedIngest | Workload::ServedIngestRelaxed | Workload::ReadMostly => {
            let (kind, shape) = served(w);
            let plan = Plan::new(kind, shape, seed);
            let rate = |r: &served::Round| {
                let m = &r.windows[0];
                (m.samples.writes.len() + m.samples.reads()) as f64 / (m.write_s + m.read_s)
            };
            // Untraced, traced, untraced: the overhead ratio compares the
            // traced round with the mean of the rounds around it. Each
            // round is one window as long as the e2e pass's windows.
            let round = |i: u32, name: &str, ping: bool| {
                served::run_round(&plan, &work.join(name), &phases(kind, seconds, i, 1), ping)
            };
            let mut base = round(0, "untraced", false);
            registry.enable();
            let mut tr = round(1, "traced", true);
            registry.disable();
            let mut after = round(2, "untraced2", false);
            l.overhead_ratio = 2.0 * rate(&tr) / (rate(&base) + rate(&after));
            l.base_usage = base.windows[0].usage;
            l.base_ops = base.windows[0].completed as f64;
            l.counters = tr.counters;
            l.ping_us = tr.ping_us.unwrap_or(0.0);
            for r in [&mut base, &mut tr, &mut after] {
                rep.tally.absorb(std::mem::take(&mut r.tally));
            }

            let batch = (tr.counters.batch_cmds as f64 / tr.counters.batches.max(1) as f64)
                .round()
                .max(1.0) as usize;
            let rec = plan.recorded(shape.checkpoint_cmds as usize, 4000);
            let cfg = shape.config();
            let build = |view: bool| plan.dense_files(view);
            let route = |k: u64| shape.shard_of(k);
            l.core =
                ladder::core_and_view(&build, &route, &rec.writes, batch, &rec.gets, &rec.scans);
            rep.tally.check(l.core.pages == tr.pages, || {
                format!(
                    "ladder DenseFile counts {:?} differ from the served checkpoint {:?}",
                    l.core.pages, tr.pages
                )
            });
            l.durable = ladder::durable_rung(
                cfg,
                &plan.preload,
                &rec.writes,
                batch,
                &work.join("durable"),
            );
            l.service = ladder::service_rung(
                cfg,
                &plan.preload,
                &rec.writes,
                batch,
                &rec.gets,
                &rec.scans,
                &work.join("service"),
            );
            l.protocol_ns = ladder::protocol_ns_per_req(&rec.writes, &rec.gets, &rec.scans);
        }
        Workload::AdversarialInproc => {
            let adv = inproc::Adversary::new(ADV_PAGES, ADV_OPS, seed);
            let mut rng = SplitMix::new(seed, 0xad7);
            let mut base = inproc::run_round(&adv, &mut rng, false);
            registry.enable();
            let c0 = served::Counters::read();
            let mut tr = inproc::run_round(&adv, &mut rng, false);
            let reads = served::Counters::read().since(c0);
            registry.disable();
            let mut after = inproc::run_round(&adv, &mut rng, false);
            let rate = |r: &inproc::Round| {
                (r.samples.writes.len() + r.samples.reads()) as f64 / (r.replay_s + r.read_s)
            };
            l.overhead_ratio = 2.0 * rate(&tr) / (rate(&base) + rate(&after));
            l.base_usage = base.usage;
            l.base_ops = base.samples.writes.len() as f64;
            for r in [&mut base, &mut tr, &mut after] {
                rep.tally.absorb(std::mem::take(&mut r.tally));
            }

            let writes = vec![adv.commands_with(inproc::value_of)];
            let (gets, scans) = adv.final_reads(4000, seed);
            let build = |view: bool| {
                let mut f = dsf_core::DenseFile::<u64, u64>::new(adv.cfg).expect("valid geometry");
                if view {
                    f.enable_optimistic_reads();
                }
                f.bulk_load(adv.backbone.iter().map(|&k| (k, inproc::value_of(k))))
                    .expect("backbone fits");
                vec![f]
            };
            l.core = ladder::core_and_view(&build, &|_| 0, &writes, 1, &gets, &scans);
            rep.tally
                .check(l.core.pages == (tr.pages.0, tr.pages.1), || {
                    format!(
                        "ladder DenseFile counts {:?} differ from the in-process replay {:?}",
                        l.core.pages, tr.pages
                    )
                });

            // Upper rungs: the same adversary at the served geometry,
            // loaded through the durable entry points.
            let small = inproc::Adversary::new(ADV_SMALL.0, ADV_SMALL.1, seed);
            let sw = vec![small.commands_with(served::value_of)];
            let (sg, ss) = small.final_reads(4000, seed);
            let preload = vec![small.backbone.clone()];
            registry.enable();
            let mut replay = ladder::served_replay(
                small.cfg,
                &small.backbone,
                sw[0].clone(),
                8,
                &work.join("served"),
            );
            registry.disable();
            l.counters = served::Counters {
                read_hits: reads.read_hits,
                read_retries: reads.read_retries,
                read_fallbacks: reads.read_fallbacks,
                ..replay.counters
            };
            l.ping_us = replay.ping_us;
            rep.tally.absorb(std::mem::take(&mut replay.tally));
            let batch = (replay.counters.batch_cmds as f64 / replay.counters.batches.max(1) as f64)
                .round()
                .max(1.0) as usize;
            l.durable =
                ladder::durable_rung(small.cfg, &preload, &sw, batch, &work.join("durable"));
            l.service = ladder::service_rung(
                small.cfg,
                &preload,
                &sw,
                batch,
                &sg,
                &ss,
                &work.join("service"),
            );
            l.protocol_ns = ladder::protocol_ns_per_req(&sw, &sg, &ss);
        }
    }
    layer_metrics(&mut rep, &l);
    rep
}

/// The last line the benchmark prints: one JSON object.
pub fn json_line(rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let t = &rep.tally;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.correct(),
        t.attempted.max(1),
        t.failed + t.checks_failed,
        metrics.join(", ")
    )
}
