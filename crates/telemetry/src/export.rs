//! Exporters: Prometheus text exposition, JSON snapshots, a dependency-free
//! HTTP listener, and an exposition parser for smoke validation.
//!
//! The workspace is offline (no registry access), so the HTTP side is a
//! deliberately tiny `std::net` server: it understands exactly enough of
//! HTTP/1.1 to answer `GET /metrics` (Prometheus text format 0.0.4),
//! and `GET /json` (a machine-diffable snapshot). One request per
//! connection, `Connection: close`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::{bucket_upper_bound, Instrument, Registry, HISTOGRAM_BUCKETS};

impl Registry {
    /// Renders the registry in Prometheus text exposition format 0.0.4.
    ///
    /// Families appear in registration order, each with one `# HELP` and
    /// `# TYPE` header; histograms render cumulative `_bucket` series plus
    /// `_sum`, `_count`, and a sibling `<name>_max` gauge (the paper's
    /// headline quantity is a *maximum*, which standard histograms lose).
    pub fn render_prometheus(&self) -> String {
        let entries = self.snapshot_entries();
        let mut out = String::new();
        let mut seen_families: Vec<String> = Vec::new();
        for e in &entries {
            if !seen_families.contains(&e.family) {
                seen_families.push(e.family.clone());
                if !e.help.is_empty() {
                    out.push_str(&format!("# HELP {} {}\n", e.family, e.help));
                }
                out.push_str(&format!(
                    "# TYPE {} {}\n",
                    e.family,
                    e.instrument.type_name()
                ));
            }
            let labelled = |extra: &str| -> String {
                match (e.labels.is_empty(), extra.is_empty()) {
                    (true, true) => String::new(),
                    (true, false) => format!("{{{extra}}}"),
                    (false, true) => format!("{{{}}}", e.labels),
                    (false, false) => format!("{{{},{extra}}}", e.labels),
                }
            };
            match &e.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{}{} {}\n", e.family, labelled(""), c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{}{} {}\n", e.family, labelled(""), g.get()));
                }
                Instrument::Histogram(h) => {
                    let buckets = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, n) in buckets.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
                        cumulative += n;
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            e.family,
                            labelled(&format!("le=\"{}\"", bucket_upper_bound(i))),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        e.family,
                        labelled("le=\"+Inf\""),
                        h.count()
                    ));
                    out.push_str(&format!("{}_sum{} {}\n", e.family, labelled(""), h.sum()));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        e.family,
                        labelled(""),
                        h.count()
                    ));
                    out.push_str(&format!("{}_max{} {}\n", e.family, labelled(""), h.max()));
                }
            }
        }
        out
    }

    /// Renders the registry as one JSON object the bench harness can diff
    /// across runs (`{"metrics":[{name, labels, type, ...}]}`).
    pub fn render_json(&self) -> String {
        let entries = self.snapshot_entries();
        let mut out = String::from("{\"metrics\":[");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"labels\":\"{}\",\"type\":\"{}\",",
                e.family,
                e.labels.replace('\\', "\\\\").replace('"', "\\\""),
                e.instrument.type_name()
            ));
            match &e.instrument {
                Instrument::Counter(c) => out.push_str(&format!("\"value\":{}}}", c.get())),
                Instrument::Gauge(g) => {
                    let v = g.get();
                    if v.is_finite() {
                        out.push_str(&format!("\"value\":{v}}}"));
                    } else {
                        out.push_str("\"value\":null}");
                    }
                }
                Instrument::Histogram(h) => {
                    let buckets = h.bucket_counts();
                    let non_empty: Vec<String> = buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| format!("[{},{}]", bucket_upper_bound(i), n))
                        .collect();
                    out.push_str(&format!(
                        "\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{}]}}",
                        h.count(),
                        h.sum(),
                        h.max(),
                        non_empty.join(",")
                    ));
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// A fixed-width human-readable table of every instrument — the body of
    /// `dsf top`.
    pub fn render_text(&self) -> String {
        let entries = self.snapshot_entries();
        let mut out = String::new();
        for e in &entries {
            let name = if e.labels.is_empty() {
                e.family.clone()
            } else {
                format!("{}{{{}}}", e.family, e.labels)
            };
            match &e.instrument {
                Instrument::Counter(c) => {
                    out.push_str(&format!("{name:<44} {:>14}\n", c.get()));
                }
                Instrument::Gauge(g) => {
                    out.push_str(&format!("{name:<44} {:>14.3}\n", g.get()));
                }
                Instrument::Histogram(h) => {
                    let mean = if h.count() == 0 {
                        0.0
                    } else {
                        h.sum() as f64 / h.count() as f64
                    };
                    out.push_str(&format!(
                        "{name:<44} count={} mean={mean:.2} max={}\n",
                        h.count(),
                        h.max()
                    ));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// HTTP listener.
// ---------------------------------------------------------------------

/// Routes one request path against the **global** spine.
fn respond_to(path: &str) -> (u16, &'static str, String) {
    match path {
        "/metrics" => (
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            crate::global().render_prometheus(),
        ),
        "/json" => (200, "application/json", crate::global().render_json()),
        "/" => (
            200,
            "text/plain; charset=utf-8",
            "dsf-telemetry: /metrics (Prometheus), /json\n".to_string(),
        ),
        _ => (404, "text/plain; charset=utf-8", "not found\n".to_string()),
    }
}

fn handle_connection(mut conn: TcpStream) -> io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    conn.set_write_timeout(Some(Duration::from_secs(5)))?;
    // Read the request head (bounded; body, if any, is ignored).
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        let n = conn.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
    }
    let request_line = String::from_utf8_lossy(&head);
    let mut parts = request_line.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, content_type, body) = if method == "GET" {
        respond_to(path)
    } else {
        (405, "text/plain; charset=utf-8", "GET only\n".to_string())
    };
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(response.as_bytes())
}

/// A bound metrics endpoint that has not started serving yet.
pub struct MetricsListener {
    listener: TcpListener,
    addr: SocketAddr,
}

impl MetricsListener {
    /// Binds to `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks a free one).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(MetricsListener { listener, addr })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until `n` requests have been answered, then returns — the
    /// CI smoke mode (`dsf serve-metrics --oneshot`).
    pub fn serve_requests(&self, n: usize) -> io::Result<()> {
        for _ in 0..n {
            let (conn, _) = self.listener.accept()?;
            // A single bad connection must not take the endpoint down.
            let _ = handle_connection(conn);
        }
        Ok(())
    }

    /// Serves until the process exits.
    pub fn serve_forever(&self) -> io::Result<()> {
        loop {
            self.serve_requests(1)?;
        }
    }

    /// Moves serving to a background thread; the returned handle stops the
    /// server when shut down or dropped.
    pub fn spawn(self) -> MetricsServer {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        self.listener
            .set_nonblocking(true)
            .expect("set_nonblocking on a fresh listener");
        let listener = self.listener;
        let handle = std::thread::spawn(move || {
            while !stop_thread.load(Relaxed) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        if conn.set_nonblocking(false).is_ok() {
                            let _ = handle_connection(conn);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        });
        MetricsServer {
            addr: self.addr,
            stop,
            handle: Some(handle),
        }
    }
}

/// A running background metrics server over the global spine.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Binds `addr` and serves the global spine in the background.
pub fn serve<A: ToSocketAddrs>(addr: A) -> io::Result<MetricsServer> {
    Ok(MetricsListener::bind(addr)?.spawn())
}

// ---------------------------------------------------------------------
// Exposition validation (CI smoke, tests).
// ---------------------------------------------------------------------

/// What [`parse_exposition`] found in a well-formed exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Sample lines (non-comment).
    pub samples: usize,
    /// Distinct `# TYPE`d families.
    pub families: usize,
}

/// Validates Prometheus text exposition: non-empty, every sample line is
/// `name{labels} value`, no duplicate sample keys, every `# TYPE` names a
/// known metric type, and every `# TYPE … histogram` family carries a
/// complete series set — `_bucket`, `_sum`, and `_count`, with the
/// aggregated `+Inf` bucket equal to the aggregated `_count` (the
/// invariant scrapers rely on to compute rates and means). Returns a
/// summary or the first problem found.
pub fn parse_exposition(text: &str) -> Result<ExpositionSummary, String> {
    let mut samples = 0usize;
    let mut families = 0usize;
    let mut seen: Vec<&str> = Vec::new();
    let mut hist_families: Vec<&str> = Vec::new();
    // (name, is_inf_bucket, value) for histogram completeness checks.
    let mut detail: Vec<(&str, bool, f64)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            families += 1;
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or(format!("line {}: TYPE without name", lineno + 1))?;
            let ty = parts
                .next()
                .ok_or(format!("line {}: TYPE without type", lineno + 1))?;
            if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&ty) {
                return Err(format!("line {}: unknown metric type `{ty}`", lineno + 1));
            }
            if ty == "histogram" {
                hist_families.push(name);
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample: `name` or `name{labels}`, whitespace, value.
        let (key, value) = match line.rfind(' ') {
            Some(i) => (&line[..i], &line[i + 1..]),
            None => return Err(format!("line {}: no value on sample line", lineno + 1)),
        };
        let key = key.trim_end();
        if key.is_empty() {
            return Err(format!("line {}: empty sample name", lineno + 1));
        }
        if value.parse::<f64>().is_err() && !["+Inf", "-Inf", "NaN"].contains(&value) {
            return Err(format!("line {}: unparseable value `{value}`", lineno + 1));
        }
        let name_end = key.find('{').unwrap_or(key.len());
        let name = &key[..name_end];
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.is_empty()
        {
            return Err(format!("line {}: invalid metric name `{name}`", lineno + 1));
        }
        if name_end < key.len() && !key.ends_with('}') {
            return Err(format!("line {}: unterminated label set", lineno + 1));
        }
        if seen.contains(&key) {
            return Err(format!("line {}: duplicate sample `{key}`", lineno + 1));
        }
        seen.push(key);
        detail.push((
            name,
            key.contains("le=\"+Inf\""),
            value.parse::<f64>().unwrap_or(f64::NAN),
        ));
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition holds no samples".to_string());
    }
    // Histogram completeness: each declared family must render its full
    // series set, and the cumulative `+Inf` buckets must agree with the
    // `_count` series (aggregated over label sets — each label set
    // contributes the same value to both sides).
    for f in &hist_families {
        let (bucket, sum, count) = (
            format!("{f}_bucket"),
            format!("{f}_sum"),
            format!("{f}_count"),
        );
        let total = |name: &str, inf_only: bool| -> Option<f64> {
            let mut any = false;
            let mut acc = 0.0;
            for (n, is_inf, v) in &detail {
                if *n == name && (!inf_only || *is_inf) {
                    any = true;
                    acc += v;
                }
            }
            any.then_some(acc)
        };
        let inf =
            total(&bucket, true).ok_or(format!("histogram `{f}` has no `+Inf` bucket series"))?;
        total(&sum, false).ok_or(format!("histogram `{f}` has no `_sum` series"))?;
        let cnt = total(&count, false).ok_or(format!("histogram `{f}` has no `_count` series"))?;
        if inf != cnt {
            return Err(format!(
                "histogram `{f}`: +Inf bucket total {inf} != _count total {cnt}"
            ));
        }
    }
    Ok(ExpositionSummary { samples, families })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_rendering_round_trips_through_the_parser() {
        let reg = Registry::new();
        reg.enable();
        reg.counter("a_total", "counts a").add(3);
        reg.gauge_with("b", &[("shard", "2")], "level").set(1.5);
        let h = reg.histogram("c_pages", "pages");
        h.record(0);
        h.record(5);
        h.record(5000);
        let text = reg.render_prometheus();
        let summary = parse_exposition(&text).expect("well-formed exposition");
        // 1 counter + 1 gauge + (33 buckets + sum + count + max) = 38.
        assert_eq!(summary.samples, 38);
        assert_eq!(summary.families, 3);
        assert!(text.contains("a_total 3"));
        assert!(text.contains("b{shard=\"2\"} 1.5"));
        assert!(text.contains("c_pages_max 5000"));
        assert!(text.contains("c_pages_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("c_pages_count 3"));
    }

    #[test]
    fn histogram_buckets_render_cumulatively() {
        let reg = Registry::new();
        reg.enable();
        let h = reg.histogram("h", "");
        h.record(1); // bucket 1 (le=2)
        h.record(2); // bucket 1
        h.record(3); // bucket 2 (le=4)
        let text = reg.render_prometheus();
        assert!(text.contains("h_bucket{le=\"0\"} 0"));
        assert!(text.contains("h_bucket{le=\"2\"} 2"));
        assert!(text.contains("h_bucket{le=\"4\"} 3"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 3"));
    }

    #[test]
    fn parser_rejects_duplicates_and_garbage() {
        assert!(parse_exposition("").is_err());
        assert!(parse_exposition("x 1\nx 1\n").is_err());
        assert!(parse_exposition("x notanumber\n").is_err());
        assert!(parse_exposition("# TYPE x sideways\nx 1\n").is_err());
        assert!(parse_exposition("x{a=\"1\"} 2\nx{a=\"2\"} 2\n").is_ok());
    }

    #[test]
    fn parser_requires_complete_histogram_series() {
        let ok = "# TYPE h histogram\n\
                  h_bucket{le=\"+Inf\"} 2\nh_sum 10\nh_count 2\n";
        assert!(parse_exposition(ok).is_ok());
        let no_sum = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n";
        assert!(parse_exposition(no_sum)
            .unwrap_err()
            .contains("no `_sum` series"));
        let no_count = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 10\n";
        assert!(parse_exposition(no_count)
            .unwrap_err()
            .contains("no `_count` series"));
        let no_bucket = "# TYPE h histogram\nh_sum 10\nh_count 2\n";
        assert!(parse_exposition(no_bucket)
            .unwrap_err()
            .contains("no `+Inf` bucket"));
        let skewed = "# TYPE h histogram\n\
                      h_bucket{le=\"+Inf\"} 3\nh_sum 10\nh_count 2\n";
        assert!(parse_exposition(skewed).unwrap_err().contains("!="));
        // Labelled series aggregate per family across label sets.
        let labelled = "# TYPE h histogram\n\
                        h_bucket{p=\"a\",le=\"+Inf\"} 1\nh_sum{p=\"a\"} 4\nh_count{p=\"a\"} 1\n\
                        h_bucket{p=\"b\",le=\"+Inf\"} 2\nh_sum{p=\"b\"} 9\nh_count{p=\"b\"} 2\n";
        assert!(parse_exposition(labelled).is_ok());
    }

    #[test]
    fn exposition_sum_reconciles_with_the_histogram_handle() {
        let reg = Registry::new();
        reg.enable();
        let h = reg.histogram("lat_us", "latency");
        for v in [3u64, 70, 900, 12_000] {
            h.record(v);
        }
        let text = reg.render_prometheus();
        parse_exposition(&text).expect("complete histogram series");
        let line = text
            .lines()
            .find(|l| l.starts_with("lat_us_sum"))
            .expect("_sum rendered");
        let sum: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(sum, h.sum(), "exposition _sum matches the live handle");
    }

    #[test]
    fn json_snapshot_carries_every_instrument() {
        let reg = Registry::new();
        reg.enable();
        reg.counter("n_total", "").add(7);
        let h = reg.histogram("p", "");
        h.record(9);
        let json = reg.render_json();
        assert!(json.contains("\"name\":\"n_total\""));
        assert!(json.contains("\"value\":7"));
        assert!(json.contains("\"max\":9"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
