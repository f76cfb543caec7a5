//! The benchmark's own tracing: spans kept in memory around its calls into
//! each layer, written out as JSON lines when the run ends, plus the
//! `/metrics` scrapes whose deltas give the in-daemon layer times.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One span: what ran, which span caused it, and when (µs since the run's
/// origin). Request spans use the request index as their id, so a request
/// and the daemon's `x-request-id: e2e-<workload>-<i>` share an identifier.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start_us: f64,
    pub end_us: f64,
}

/// Span ids of non-request spans start here, far above any request index.
const SPAN_ID_BASE: u64 = 1 << 40;

/// In-memory span recorder. When disabled it still times (callers need
/// the durations for their own metrics) but keeps nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            next_id: AtomicU64::new(SPAN_ID_BASE),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// A fresh span id (for a parent whose children start before it ends).
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside span `name` (a child of `parent`, 0 for a root) and
    /// returns its result with its duration in seconds.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.close(name, self.new_id(), parent, start, end);
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records a span that ran from `start` to `end`.
    pub fn close(&self, name: &'static str, id: u64, parent: u64, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span {
                name,
                id,
                parent,
                start_us: self.now_us(start),
                end_us: self.now_us(end),
            };
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
    }

    /// Adopts spans a worker thread buffered locally.
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            self.spans
                .lock()
                .expect("span buffer poisoned")
                .extend(spans);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned").len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name, s.id, s.parent, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Cost of recording one span in seconds: the two clock reads and the
/// buffered push a traced request adds.
pub fn span_cost_s() -> f64 {
    const N: usize = 100_000;
    let tracer = Tracer::new(true);
    let mut local = Vec::with_capacity(N);
    let start = Instant::now();
    for i in 0..N as u64 {
        let a = Instant::now();
        let b = Instant::now();
        local.push(Span {
            name: "probe",
            id: i,
            parent: 0,
            start_us: tracer.now_us(a),
            end_us: tracer.now_us(b),
        });
    }
    let cost = start.elapsed().as_secs_f64() / N as f64;
    std::hint::black_box(local);
    cost
}

/// One `/metrics` scrape: full series name (labels included) → value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses the Prometheus text exposition format the daemons render.
    pub fn parse(text: &str) -> Scrape {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.trim().parse::<f64>() {
                    series.insert(name.to_owned(), v);
                }
            }
        }
        Scrape(series)
    }

    /// Sum over the series named `base` (any labels) whose label set
    /// contains every string in `labels`.
    pub fn sum(&self, base: &str, labels: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|(name, _)| {
                let (b, rest) = name.split_once('{').unwrap_or((name.as_str(), ""));
                b == base && labels.iter().all(|l| rest.contains(l))
            })
            .map(|(_, v)| v)
            .sum()
    }
}

/// Change of every series between two scrapes of the same endpoints.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    before: Vec<Scrape>,
    after: Vec<Scrape>,
}

impl Delta {
    pub fn new(before: Vec<Scrape>, after: Vec<Scrape>) -> Delta {
        Delta { before, after }
    }

    /// Number of endpoints scraped.
    pub fn endpoints(&self) -> usize {
        self.after.len()
    }

    /// Change of [`Scrape::sum`] on endpoint `k` alone.
    pub fn at(&self, k: usize, base: &str, labels: &[&str]) -> f64 {
        match (self.before.get(k), self.after.get(k)) {
            (Some(b), Some(a)) => a.sum(base, labels) - b.sum(base, labels),
            _ => 0.0,
        }
    }

    /// Change of [`Scrape::sum`] summed over every endpoint.
    pub fn total(&self, base: &str, labels: &[&str]) -> f64 {
        (0..self.after.len())
            .map(|k| self.at(k, base, labels))
            .sum()
    }

    /// Change of a histogram's `_sum` over its `_count` (seconds per
    /// observation), summed over every endpoint; zero with no observations.
    pub fn mean_s(&self, base: &str, labels: &[&str]) -> f64 {
        ratio(
            self.total(&format!("{base}_sum"), labels),
            self.total(&format!("{base}_count"), labels),
        )
    }
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_deltas_sum_matching_series() {
        let before = Scrape::parse(
            "# TYPE serve_request_seconds histogram\n\
             serve_request_seconds_sum{route=\"/v1/ingest\",status=\"200\"} 1.5\n\
             serve_request_seconds_count{route=\"/v1/ingest\",status=\"200\"} 10\n\
             guard_floor_releases_total 0\n",
        );
        let after = Scrape::parse(
            "serve_request_seconds_sum{route=\"/v1/ingest\",status=\"200\"} 2.5\n\
             serve_request_seconds_count{route=\"/v1/ingest\",status=\"200\"} 20\n\
             serve_request_seconds_count{route=\"/metrics\",status=\"200\"} 3\n\
             guard_floor_releases_total 0\n",
        );
        let d = Delta::new(vec![before], vec![after]);
        assert_eq!(d.total("serve_request_seconds_count", &[]), 13.0);
        assert_eq!(
            d.total("serve_request_seconds_count", &["route=\"/v1/ingest\""]),
            10.0
        );
        assert!((d.mean_s("serve_request_seconds", &["/v1/ingest"]) - 0.1).abs() < 1e-12);
        assert_eq!(d.total("guard_floor_releases_total", &[]), 0.0);
        assert_eq!(d.mean_s("absent", &[]), 0.0);
    }
}
