//! Prometheus text and JSON renderers for a [`Registry`] snapshot.
//!
//! Both renderings are deterministic: instruments are emitted in
//! lexicographic name order and numbers use Rust's shortest round-trip
//! `f64` formatting, so a registry populated with fixed values renders to
//! a byte-stable string — which is what the golden-pin test locks down.

use crate::metrics::Instrument;
use crate::{Histogram, Registry, HISTOGRAM_BUCKETS};
use std::fmt::Write;

/// Schema tag embedded in every JSON snapshot: consumers (the CLI's
/// `--metrics-json`, the bench comparison gate) match on it before
/// trusting the field layout.
pub const JSON_SCHEMA: &str = "priste-metrics/1";

/// Formats an `f64` compactly: integral values print without a trailing
/// `.0` (`Display` for `f64` already omits it), non-finite values print
/// Prometheus-style.
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else if v.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{v}")
    }
}

/// JSON has no Inf/NaN literals; map them to `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Splits `name{labels}` into (`name`, `labels`); labels exclude braces
/// and are empty when the name is unlabeled.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(open) => (
            &name[..open],
            name[open + 1..]
                .strip_suffix('}')
                .unwrap_or(&name[open + 1..]),
        ),
        None => (name, ""),
    }
}

/// Renders a histogram's cumulative bucket lines plus `_sum`/`_count`.
fn prometheus_histogram(out: &mut String, name: &str, hist: &Histogram) {
    let (base, labels) = split_labels(name);
    let buckets = hist.bucket_counts();
    let mut cum = 0u64;
    for (i, n) in buckets.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
        if *n == 0 {
            continue;
        }
        cum += n;
        let le = fmt_f64(Histogram::bucket_le(i));
        if labels.is_empty() {
            let _ = writeln!(out, "{base}_bucket{{le=\"{le}\"}} {cum}");
        } else {
            let _ = writeln!(out, "{base}_bucket{{{labels},le=\"{le}\"}} {cum}");
        }
    }
    let total = hist.count();
    if labels.is_empty() {
        let _ = writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {total}");
        let _ = writeln!(out, "{base}_sum {}", fmt_f64(hist.sum()));
        let _ = writeln!(out, "{base}_count {total}");
    } else {
        let _ = writeln!(out, "{base}_bucket{{{labels},le=\"+Inf\"}} {total}");
        let _ = writeln!(out, "{base}_sum{{{labels}}} {}", fmt_f64(hist.sum()));
        let _ = writeln!(out, "{base}_count{{{labels}}} {total}");
    }
}

impl Registry {
    /// Renders every instrument in the Prometheus text exposition format.
    ///
    /// Counters and gauges emit one sample line; histograms emit their
    /// non-empty cumulative `_bucket{le=...}` series plus `_sum` and
    /// `_count`. A `# TYPE` comment precedes each distinct base name.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        for (name, instrument) in self.snapshot() {
            let (base, _) = split_labels(&name);
            if base != last_base {
                let kind = match instrument {
                    Instrument::Counter(_) => "counter",
                    Instrument::Gauge(_) => "gauge",
                    Instrument::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {base} {kind}");
                last_base = base.to_owned();
            }
            match instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", fmt_f64(g.get()));
                }
                Instrument::Histogram(h) => prometheus_histogram(&mut out, &name, &h),
            }
        }
        out
    }

    /// Renders a machine-readable JSON snapshot (schema
    /// `priste-metrics/1`):
    ///
    /// ```json
    /// {
    ///   "schema": "priste-metrics/1",
    ///   "counters": {"name": 3},
    ///   "gauges": {"name": 1.5},
    ///   "histograms": {
    ///     "name": {"count": 2, "sum": 0.5, "p50": 0.375, "p90": 0.5,
    ///              "p99": 0.5, "buckets": [[0.5, 2]]}
    ///   }
    /// }
    /// ```
    ///
    /// `buckets` lists `[upper_bound, count]` pairs for non-empty buckets
    /// (non-cumulative); the `p*` fields are the interpolated
    /// [`Histogram::quantile`] estimates. Non-finite numbers render as
    /// `null`.
    pub fn render_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, instrument) in self.snapshot() {
            let key = crate::json::quote(&name);
            match instrument {
                Instrument::Counter(c) => {
                    counters.push(format!("{key}: {}", c.get()));
                }
                Instrument::Gauge(g) => {
                    gauges.push(format!("{key}: {}", json_f64(g.get())));
                }
                Instrument::Histogram(h) => {
                    let buckets: Vec<String> = h
                        .bucket_counts()
                        .iter()
                        .enumerate()
                        .filter(|(_, n)| **n > 0)
                        .map(|(i, n)| format!("[{}, {n}]", json_f64(Histogram::bucket_le(i))))
                        .collect();
                    histograms.push(format!(
                        "{key}: {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p90\": {}, \
                         \"p99\": {}, \"buckets\": [{}]}}",
                        h.count(),
                        json_f64(h.sum()),
                        json_f64(h.quantile(0.5)),
                        json_f64(h.quantile(0.9)),
                        json_f64(h.quantile(0.99)),
                        buckets.join(", ")
                    ));
                }
            }
        }
        format!(
            "{{\n  \"schema\": \"{JSON_SCHEMA}\",\n  \"counters\": {{{}}},\n  \"gauges\": \
             {{{}}},\n  \"histograms\": {{{}}}\n}}\n",
            counters.join(", "),
            gauges.join(", "),
            histograms.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed_registry() -> Registry {
        let r = Registry::new();
        r.counter("guard_releases_total").add(42);
        r.counter("online_shard_panics_total{shard=\"3\"}").add(2);
        r.gauge("online_sessions").set(500.0);
        let h = r.histogram("durable_wal_append_seconds");
        // Dyadic values: bucket bounds and the sum are float-exact.
        h.observe(0.25); // -> bucket [0.25, 0.5), le 0.5
        h.observe(0.25);
        h.observe(4.0); // -> bucket [4, 8), le 8
        r
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_labeled() {
        let text = fixed_registry().render_prometheus();
        let expected = "\
# TYPE durable_wal_append_seconds histogram
durable_wal_append_seconds_bucket{le=\"0.5\"} 2
durable_wal_append_seconds_bucket{le=\"8\"} 3
durable_wal_append_seconds_bucket{le=\"+Inf\"} 3
durable_wal_append_seconds_sum 4.5
durable_wal_append_seconds_count 3
# TYPE guard_releases_total counter
guard_releases_total 42
# TYPE online_sessions gauge
online_sessions 500
# TYPE online_shard_panics_total counter
online_shard_panics_total{shard=\"3\"} 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn labeled_histogram_merges_le_into_the_brace_set() {
        let r = Registry::new();
        r.histogram("plan_seconds{planner=\"greedy\"}").observe(1.0);
        let text = r.render_prometheus();
        assert!(
            text.contains("plan_seconds_bucket{planner=\"greedy\",le=\"2\"} 1"),
            "got:\n{text}"
        );
        assert!(text.contains("plan_seconds_sum{planner=\"greedy\"} 1"));
        assert!(text.contains("plan_seconds_count{planner=\"greedy\"} 1"));
    }

    #[test]
    fn json_rendering_parses_back_and_agrees() {
        let r = fixed_registry();
        let text = r.render_json();
        let doc = crate::json::parse(&text).expect("exporter output must parse");
        assert_eq!(
            doc.get("schema").and_then(|j| j.as_str()),
            Some(JSON_SCHEMA)
        );
        let counters = doc.get("counters").expect("counters object");
        assert_eq!(
            counters
                .get("guard_releases_total")
                .and_then(|j| j.as_u64()),
            Some(42)
        );
        assert_eq!(
            counters
                .get("online_shard_panics_total{shard=\"3\"}")
                .and_then(|j| j.as_u64()),
            Some(2)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("durable_wal_append_seconds"))
            .expect("histogram entry");
        assert_eq!(hist.get("count").and_then(|j| j.as_u64()), Some(3));
        // Interpolated estimates: rank 2 of 2 exhausts [0.25, 0.5) → 0.5;
        // rank 3 is the sole observation in [4, 8) → its le, 8.
        assert_eq!(hist.get("p50").and_then(|j| j.as_f64()), Some(0.5));
        assert_eq!(hist.get("p99").and_then(|j| j.as_f64()), Some(8.0));
    }

    #[test]
    fn non_finite_values_render_as_null_in_json() {
        let r = Registry::new();
        r.gauge("weird").set(f64::INFINITY);
        let text = r.render_json();
        assert!(text.contains("\"weird\": null"), "got: {text}");
        assert!(crate::json::parse(&text).is_ok());
    }
}
