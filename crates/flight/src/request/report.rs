//! The attribution engine: fold timelines into per-phase statistics and
//! p99 exemplars, render them for humans, export them for Perfetto.

use super::{request_kind_name, Phase};
use crate::{FlightLog, RequestTimeline, REQUEST_PHASES};

/// Latency statistics of one phase (or of the end-to-end totals) over a
/// set of timelines. Percentiles are over *all* records — a request that
/// never fsynced contributes 0 to the fsync distribution, which is what
/// "p99 of fsync time per request" means under group commit.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStat {
    /// Records with nonzero time in this phase.
    pub count: u64,
    /// Summed nanoseconds.
    pub total: u64,
    /// Worst single record.
    pub max: u64,
    /// Median nanoseconds.
    pub p50: u64,
    /// 99th-percentile nanoseconds.
    pub p99: u64,
}

impl PhaseStat {
    fn from_sorted(values: &[u64]) -> PhaseStat {
        if values.is_empty() {
            return PhaseStat::default();
        }
        let pick = |p: usize| values[(values.len() * p / 100).min(values.len() - 1)];
        PhaseStat {
            count: values.iter().filter(|&&v| v > 0).count() as u64,
            // Saturating: a flight log is untrusted input.
            total: values.iter().fold(0u64, |a, &v| a.saturating_add(v)),
            max: *values.last().expect("non-empty"),
            p50: pick(50),
            p99: pick(99),
        }
    }
}

/// Folded view of a set of timelines: per-phase statistics, end-to-end
/// statistics, and the N slowest requests with full waterfalls.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Timelines folded.
    pub records: u64,
    /// Frames of any kind the flight ring evicted before the log was
    /// taken (0 means every recorded timeline is here).
    pub dropped: u64,
    /// Per-phase statistics, indexed by `Phase as usize`.
    pub phases: [PhaseStat; REQUEST_PHASES],
    /// End-to-end (phase-sum) statistics.
    pub total: PhaseStat,
    /// The slowest requests, slowest first — the p99 exemplars.
    pub exemplars: Vec<RequestTimeline>,
}

impl TraceReport {
    /// Folds the `Request` frames of a flight log, keeping the
    /// `exemplar_n` slowest waterfalls.
    pub fn from_log(log: &FlightLog, exemplar_n: usize) -> TraceReport {
        let records: Vec<RequestTimeline> = log.requests().cloned().collect();
        TraceReport::build(&records, log.dropped, exemplar_n)
    }

    /// Folds `records`, keeping the `exemplar_n` slowest waterfalls.
    pub fn build(records: &[RequestTimeline], dropped: u64, exemplar_n: usize) -> TraceReport {
        let mut per_phase: Vec<Vec<u64>> =
            std::iter::repeat_with(|| Vec::with_capacity(records.len()))
                .take(REQUEST_PHASES)
                .collect();
        let mut totals: Vec<u64> = Vec::with_capacity(records.len());
        for r in records {
            for (i, n) in r.phases.iter().enumerate() {
                per_phase[i].push(*n);
            }
            totals.push(r.total());
        }
        let phases = std::array::from_fn(|i| {
            per_phase[i].sort_unstable();
            PhaseStat::from_sorted(&per_phase[i])
        });
        totals.sort_unstable();
        let total = PhaseStat::from_sorted(&totals);
        let mut exemplars: Vec<RequestTimeline> = records.to_vec();
        exemplars.sort_by_key(|r| std::cmp::Reverse(r.total()));
        exemplars.truncate(exemplar_n);
        TraceReport {
            records: records.len() as u64,
            dropped,
            phases,
            total,
            exemplars,
        }
    }

    /// The phase holding the largest share of summed time, with that
    /// share (0..=1). `None` when nothing was recorded.
    pub fn dominant_phase(&self) -> Option<(Phase, f64)> {
        if self.total.total == 0 {
            return None;
        }
        let (i, stat) = self
            .phases
            .iter()
            .enumerate()
            .max_by_key(|&(_, s)| s.total)
            .expect("REQUEST_PHASES > 0");
        Some((
            Phase::from_index(i).expect("index in range"),
            stat.total as f64 / self.total.total as f64,
        ))
    }

    /// A fixed-width text table of the per-phase breakdown (the body of
    /// `dsf flight replay` and the `dsf top` panel).
    pub fn render_text(&self) -> String {
        let us = |n: u64| n as f64 / 1_000.0;
        let mut out = String::new();
        out.push_str(&format!(
            "{} timelines ({} dropped), end-to-end p50 {:.1}us p99 {:.1}us max {:.1}us\n",
            self.records,
            self.dropped,
            us(self.total.p50),
            us(self.total.p99),
            us(self.total.max),
        ));
        out.push_str(&format!(
            "{:>12}  {:>6}  {:>10}  {:>10}  {:>10}  {:>10}\n",
            "phase", "share", "mean us", "p50 us", "p99 us", "max us"
        ));
        for p in Phase::ALL {
            let s = &self.phases[p as usize];
            let share = if self.total.total == 0 {
                0.0
            } else {
                100.0 * s.total as f64 / self.total.total as f64
            };
            let mean = if self.records == 0 {
                0.0
            } else {
                us(s.total) / self.records as f64
            };
            out.push_str(&format!(
                "{:>12}  {:>5.1}%  {:>10.1}  {:>10.1}  {:>10.1}  {:>10.1}\n",
                p.name(),
                share,
                mean,
                us(s.p50),
                us(s.p99),
                us(s.max),
            ));
        }
        out
    }

    /// Renders one exemplar as an indented waterfall (for `dsf explain`).
    /// Times print to the nanosecond, so the phase lines sum exactly to
    /// the total.
    pub fn render_waterfall(rec: &RequestTimeline) -> String {
        let mut out = format!(
            "trace {:#018x} client {} seq {} {} — {:.3}us total (dominant: {})\n",
            rec.id,
            rec.client,
            rec.seq,
            request_kind_name(rec.kind),
            rec.total() as f64 / 1_000.0,
            Phase::dominant(rec).name(),
        );
        let total = rec.total().max(1);
        let mut at = 0u64;
        for p in Phase::ALL {
            let n = rec.phases[p as usize];
            if n == 0 {
                continue;
            }
            let bar = (u128::from(n) * 40 / u128::from(total)).max(1) as usize;
            out.push_str(&format!(
                "  {:>12} {:>12.3}us  at +{:>11.3}us  {}\n",
                p.name(),
                n as f64 / 1_000.0,
                at as f64 / 1_000.0,
                "#".repeat(bar),
            ));
            at = at.saturating_add(n);
        }
        out
    }

    /// Exports the exemplars as Chrome `trace_event` JSON: open the file
    /// in `chrome://tracing` or <https://ui.perfetto.dev> and each
    /// exemplar renders as one track of complete (`"ph":"X"`) events,
    /// one per phase, in waterfall order. `pid` is the connection id,
    /// `tid` the exemplar rank (0 = slowest), timestamps microseconds
    /// from the trace epoch.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        for (rank, rec) in self.exemplars.iter().enumerate() {
            let mut at = rec.started;
            for p in Phase::ALL {
                let n = rec.phases[p as usize];
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"trace_id\":{},\"flight_seq\":{}}}}}",
                    p.name(),
                    request_kind_name(rec.kind),
                    at as f64 / 1_000.0,
                    n as f64 / 1_000.0,
                    rec.client,
                    rank,
                    rec.id,
                    rec.seq,
                ));
                at = at.saturating_add(n);
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, fsync: u64, exec: u64) -> RequestTimeline {
        let mut phases = [0u64; REQUEST_PHASES];
        phases[Phase::Fsync as usize] = fsync;
        phases[Phase::Execute as usize] = exec;
        RequestTimeline {
            id,
            client: 1,
            seq: id,
            kind: 0x01,
            started: id * 1_000,
            phases,
        }
    }

    #[test]
    fn report_folds_per_phase_and_ranks_exemplars() {
        let records: Vec<RequestTimeline> = (0..100).map(|i| rec(i, i * 10, 100)).collect();
        let report = TraceReport::build(&records, 5, 3);
        assert_eq!(report.records, 100);
        assert_eq!(report.dropped, 5);
        assert_eq!(report.exemplars.len(), 3);
        // Slowest first: the largest fsync times.
        assert_eq!(report.exemplars[0].id, 99);
        assert_eq!(report.exemplars[1].id, 98);
        let fsync = &report.phases[Phase::Fsync as usize];
        assert_eq!(fsync.count, 99); // record 0 had fsync == 0
        assert_eq!(fsync.max, 990);
        assert!(fsync.p99 >= fsync.p50);
        let (dom, share) = report.dominant_phase().expect("records folded");
        assert_eq!(dom, Phase::Fsync);
        assert!(share > 0.7, "fsync dominates: {share}");
    }

    #[test]
    fn empty_report_is_well_formed() {
        let report = TraceReport::build(&[], 0, 4);
        assert_eq!(report.records, 0);
        assert!(report.dominant_phase().is_none());
        assert!(report.exemplars.is_empty());
        assert_eq!(report.to_chrome_json(), "{\"traceEvents\":[]}");
        assert!(report.render_text().contains("0 timelines"));
    }

    #[test]
    fn chrome_export_is_one_complete_event_per_nonzero_phase() {
        let records = vec![rec(1, 500, 700)];
        let report = TraceReport::build(&records, 0, 1);
        let json = report.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"name\":\"fsync\""));
        assert!(json.contains("\"name\":\"execute\""));
        assert!(json.contains("\"trace_id\":1"));
        // Events telescope: execute starts at the record start, fsync after.
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn waterfall_renders_nonzero_phases_in_order() {
        let text = TraceReport::render_waterfall(&rec(2, 300, 900));
        let exec_at = text.find("execute").expect("execute line");
        let fsync_at = text.find("fsync").expect("fsync line");
        assert!(exec_at < fsync_at, "waterfall order");
        assert!(text.contains("dominant: execute"));
    }

    #[test]
    fn render_text_shows_every_phase() {
        let report = TraceReport::build(&[rec(1, 10, 20)], 0, 1);
        let text = report.render_text();
        for p in Phase::ALL {
            assert!(text.contains(p.name()), "missing {}", p.name());
        }
    }
}
