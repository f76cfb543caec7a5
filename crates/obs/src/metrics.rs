//! The sharded metric registry and its instrument handles.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of log₂ buckets in a [`Histogram`].
///
/// Bucket `i` covers values in `[2^(i-32), 2^(i-31))`, so the resolved
/// range spans `2^-31 ≈ 4.7e-10` up to `2^31 ≈ 2.1e9` — nanoseconds to
/// decades when observing seconds. Values at or below zero (and NaN) land
/// in bucket 0; values off the top land in the last (unbounded) bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Exponent offset: bucket `i` has upper bound `2^(i - LE_OFFSET)`.
const LE_OFFSET: i32 = 31;

/// Number of name shards in a [`Registry`]; get-or-create lookups on
/// distinct names contend on independent locks.
const REGISTRY_SHARDS: usize = 8;

/// Adds `v` to an `f64` stored as bits in an [`AtomicU64`] via a CAS loop.
fn atomic_f64_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// FNV-1a 64-bit hash, used to pick a registry name shard.
fn fnv1a64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A monotonically increasing `u64` counter.
///
/// Clones share the same cell. Recording is gated on the enabled flag the
/// handle was created with — a registry handle follows
/// [`Registry::set_enabled`]; a standalone [`Counter::new`] is always on
/// (the `SessionManager` uses standalone counters for `ServiceStats`,
/// which are service semantics rather than optional telemetry).
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    /// A standalone, always-enabled counter.
    pub fn new() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// A standalone counter whose record path is a no-op.
    pub fn disabled() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
            enabled: Arc::new(AtomicBool::new(false)),
        }
    }

    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
            enabled,
        }
    }

    /// Whether the record path is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        if self.is_enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value. Reads are never gated.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Overwrites the value — used when restoring counters from a durable
    /// snapshot. Stores are never gated.
    pub fn store(&self, n: u64) {
        self.cell.store(n, Ordering::Relaxed);
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.get())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// An `f64` gauge (bits in an atomic `u64`).
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    /// A standalone, always-enabled gauge initialised to `0.0`.
    pub fn new() -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0f64.to_bits())),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// A standalone gauge whose record path is a no-op.
    pub fn disabled() -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0f64.to_bits())),
            enabled: Arc::new(AtomicBool::new(false)),
        }
    }

    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Gauge {
            cell: Arc::new(AtomicU64::new(0f64.to_bits())),
            enabled,
        }
    }

    /// Whether the record path is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        if self.is_enabled() {
            self.cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        if self.is_enabled() {
            atomic_f64_add(&self.cell, delta);
        }
    }

    /// Current value. Reads are never gated.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.get())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// `f64` bits; exact running sum of observed values.
    sum: AtomicU64,
}

impl HistogramCell {
    fn empty() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// A log₂-bucketed value/latency histogram with exact count and sum.
///
/// Quantiles are estimated by locating the bucket containing the
/// requested rank and interpolating linearly inside it (the same model
/// Prometheus' `histogram_quantile` uses), so the error is bounded by
/// the bucket width around the true value rather than always rounding
/// up to the next power of two.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
    enabled: Arc<AtomicBool>,
}

impl Histogram {
    /// A standalone, always-enabled histogram.
    pub fn new() -> Self {
        Histogram {
            cell: Arc::new(HistogramCell::empty()),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    /// A standalone histogram whose record path is a no-op.
    pub fn disabled() -> Self {
        Histogram {
            cell: Arc::new(HistogramCell::empty()),
            enabled: Arc::new(AtomicBool::new(false)),
        }
    }

    pub(crate) fn with_flag(enabled: Arc<AtomicBool>) -> Self {
        Histogram {
            cell: Arc::new(HistogramCell::empty()),
            enabled,
        }
    }

    /// Whether the record path is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Index of the bucket `v` falls into.
    pub fn bucket_index(v: f64) -> usize {
        // `v > 0.0` is false for v <= 0 and for NaN: both land in bucket 0.
        if v.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return 0;
        }
        let exp = v.log2().floor() as i64;
        (exp + i64::from(LE_OFFSET) + 1).clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
    }

    /// Upper bound (`le`) of bucket `i`; the last bucket is unbounded.
    pub fn bucket_le(i: usize) -> f64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            f64::INFINITY
        } else {
            (2f64).powi(i as i32 - LE_OFFSET)
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        if !self.is_enabled() {
            return;
        }
        let cell = &*self.cell;
        cell.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&cell.sum, v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.cell.sum.load(Ordering::Relaxed))
    }

    /// Mean observed value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.cell.buckets[i].load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`): the bucket holding the
    /// rank-`⌈q·count⌉` observation is located, then the estimate
    /// interpolates linearly between the bucket's bounds according to
    /// where the rank falls among that bucket's observations. Returns
    /// `0.0` for an empty histogram; a rank landing in the unbounded top
    /// bucket reports that bucket's lower bound (there is no finite upper
    /// bound to interpolate towards — Prometheus does the same).
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.bucket_counts();
        let total: u64 = buckets.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, n) in buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            let below = cum;
            cum += n;
            if cum >= rank {
                let lower = if i == 0 { 0.0 } else { Self::bucket_le(i - 1) };
                let upper = Self::bucket_le(i);
                if upper.is_infinite() {
                    return lower;
                }
                let frac = (rank - below) as f64 / *n as f64;
                return lower + (upper - lower) * frac;
            }
        }
        f64::INFINITY
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// One registered instrument; clones share the underlying cell.
#[derive(Clone, Debug)]
pub(crate) enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct RegistryInner {
    enabled: Arc<AtomicBool>,
    shards: Vec<RwLock<BTreeMap<String, Instrument>>>,
    sink: RwLock<Option<Arc<dyn crate::EventSink>>>,
}

/// The sharded metric registry.
///
/// Cheap to clone (an `Arc`); all clones share instruments, the enabled
/// flag, and the event sink. Instrument names may bake labels in
/// Prometheus syntax (`online_shard_panics_total{shard="3"}`); the text
/// exporter keeps them intact and merges histogram `le` labels into the
/// brace set.
///
/// Lookups (`counter`/`gauge`/`histogram`) are get-or-create and intended
/// for setup paths: hot paths hold on to the returned handle. Looking up
/// an existing name with a different instrument kind panics — that is a
/// programming error, not an operational condition.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    fn with_enabled(enabled: bool) -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                enabled: Arc::new(AtomicBool::new(enabled)),
                shards: (0..REGISTRY_SHARDS)
                    .map(|_| RwLock::new(BTreeMap::new()))
                    .collect(),
                sink: RwLock::new(None),
            }),
        }
    }

    /// An enabled registry.
    pub fn new() -> Self {
        Registry::with_enabled(true)
    }

    /// A registry whose instruments' record paths are no-ops until
    /// [`Registry::set_enabled`] flips them on.
    pub fn disabled() -> Self {
        Registry::with_enabled(false)
    }

    /// Whether instruments created by this registry record.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables every instrument created by this registry
    /// (adopted instruments keep their own flag).
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    fn shard(&self, name: &str) -> &RwLock<BTreeMap<String, Instrument>> {
        &self.inner.shards[(fnv1a64(name) % REGISTRY_SHARDS as u64) as usize]
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        let shard = self.shard(name);
        if let Some(found) = shard.read().expect("registry shard poisoned").get(name) {
            return found.clone();
        }
        let mut map = shard.write().expect("registry shard poisoned");
        map.entry(name.to_owned()).or_insert_with(make).clone()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn counter(&self, name: &str) -> Counter {
        let flag = Arc::clone(&self.inner.enabled);
        match self.get_or_insert(name, || Instrument::Counter(Counter::with_flag(flag))) {
            Instrument::Counter(c) => c,
            other => panic!("metric `{name}` already registered as {}", kind_of(&other)),
        }
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let flag = Arc::clone(&self.inner.enabled);
        match self.get_or_insert(name, || Instrument::Gauge(Gauge::with_flag(flag))) {
            Instrument::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as {}", kind_of(&other)),
        }
    }

    /// Gets or creates the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different instrument kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let flag = Arc::clone(&self.inner.enabled);
        match self.get_or_insert(name, || Instrument::Histogram(Histogram::with_flag(flag))) {
            Instrument::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as {}", kind_of(&other)),
        }
    }

    /// Registers an existing counter under `name`, replacing any previous
    /// registration. The handle keeps its own enabled flag — this is how
    /// always-on `ServiceStats` counters surface in an exported snapshot
    /// without losing their pre-attach values.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.shard(name)
            .write()
            .expect("registry shard poisoned")
            .insert(name.to_owned(), Instrument::Counter(counter.clone()));
    }

    /// A sorted snapshot of every registered instrument.
    pub(crate) fn snapshot(&self) -> BTreeMap<String, Instrument> {
        let mut merged = BTreeMap::new();
        for shard in &self.inner.shards {
            let map = shard.read().expect("registry shard poisoned");
            for (name, instrument) in map.iter() {
                merged.insert(name.clone(), instrument.clone());
            }
        }
        merged
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().expect("registry shard poisoned").len())
            .sum()
    }

    /// Whether no instrument has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Installs a structured event sink receiving every [`Span`]
    /// completion (and any direct [`Registry::emit`] calls).
    ///
    /// [`Span`]: crate::Span
    pub fn set_sink(&self, sink: Arc<dyn crate::EventSink>) {
        *self.inner.sink.write().expect("sink lock poisoned") = Some(sink);
    }

    pub(crate) fn sink(&self) -> Option<Arc<dyn crate::EventSink>> {
        self.inner.sink.read().expect("sink lock poisoned").clone()
    }

    /// Emits a structured event directly to the sink, if one is set and
    /// the registry is enabled.
    pub fn emit(&self, name: &str, fields: &[(String, f64)]) {
        if !self.is_enabled() {
            return;
        }
        if let Some(sink) = self.sink() {
            sink.event(name, fields);
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("instruments", &self.len())
            .finish()
    }
}

fn kind_of(instrument: &Instrument) -> &'static str {
    match instrument {
        Instrument::Counter(_) => "a counter",
        Instrument::Gauge(_) => "a gauge",
        Instrument::Histogram(_) => "a histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_clones_share_the_cell() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
        c.store(42);
        assert_eq!(c2.get(), 42);
    }

    #[test]
    fn disabled_counter_records_nothing_but_store_wins() {
        let c = Counter::disabled();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        // Stores are ungated: snapshot restore must work regardless.
        c.store(7);
        assert_eq!(c.get(), 7);
    }

    #[test]
    fn gauge_set_add_get() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
        let off = Gauge::disabled();
        off.set(9.0);
        assert_eq!(off.get(), 0.0);
    }

    #[test]
    fn histogram_exact_count_and_sum() {
        let h = Histogram::new();
        for v in [0.001, 0.004, 0.004, 1.5, 300.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 301.509).abs() < 1e-9);
        assert!((h.mean() - 301.509 / 5.0).abs() < 1e-9);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn histogram_bucket_bounds_bracket_the_value() {
        for v in [1e-9, 0.001, 0.5, 1.0, 2.0, 3.7, 1024.0, 5e8] {
            let i = Histogram::bucket_index(v);
            assert!(
                v < Histogram::bucket_le(i),
                "v={v} le={}",
                Histogram::bucket_le(i)
            );
            if i > 0 {
                assert!(
                    v >= Histogram::bucket_le(i - 1),
                    "v={v} prev_le={}",
                    Histogram::bucket_le(i - 1)
                );
            }
        }
        // Out-of-range and pathological inputs stay in-bounds.
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(-3.0), 0);
        assert_eq!(Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Histogram::bucket_index(1e300), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_le(HISTOGRAM_BUCKETS - 1), f64::INFINITY);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_the_bucket() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.observe(0.003); // -> bucket [2^-9, 2^-8) = [0.001953125, 0.00390625)
        }
        for _ in 0..10 {
            h.observe(3.0); // -> bucket [2, 4)
        }
        // rank 50 of 90 in [0.001953125, 0.00390625): lower + width·(50/90).
        let p50 = 0.001953125 + 0.001953125 * (50.0 / 90.0);
        assert!((h.quantile(0.5) - p50).abs() < 1e-15, "{}", h.quantile(0.5));
        // rank 90 exhausts the first bucket exactly: estimate is its le.
        assert_eq!(h.quantile(0.9), 0.00390625);
        // rank 99 is the 9th of 10 observations in [2, 4): 2 + 2·0.9.
        assert!(
            (h.quantile(0.99) - 3.8).abs() < 1e-12,
            "{}",
            h.quantile(0.99)
        );
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_quantile_handles_edge_buckets_and_stays_monotone() {
        // Bucket 0 interpolates down towards zero.
        let tiny = Histogram::new();
        tiny.observe(1e-12);
        let q = tiny.quantile(0.5);
        assert!(q > 0.0 && q <= Histogram::bucket_le(0), "q={q}");
        // The unbounded top bucket reports its (finite) lower bound.
        let huge = Histogram::new();
        huge.observe(1e300);
        assert_eq!(
            huge.quantile(0.99),
            Histogram::bucket_le(HISTOGRAM_BUCKETS - 2)
        );
        // Quantile estimates are monotone in q.
        let h = Histogram::new();
        for i in 1..=1000u32 {
            h.observe(f64::from(i) * 0.001);
        }
        let mut prev = 0.0;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(est >= prev, "quantile({q})={est} < {prev}");
            prev = est;
        }
        // ... and the p50 estimate lands within the true value's bucket.
        let p50 = h.quantile(0.5);
        assert!((0.25..=1.0).contains(&p50), "p50={p50}");
    }

    #[test]
    fn registry_get_or_create_returns_the_same_cell() {
        let r = Registry::new();
        let a = r.counter("x_total");
        let b = r.counter("x_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn registry_kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x_total");
        r.gauge("x_total");
    }

    #[test]
    fn disabled_registry_instruments_record_nothing_until_enabled() {
        let r = Registry::disabled();
        let c = r.counter("c_total");
        let h = r.histogram("h_seconds");
        c.inc();
        h.observe(1.0);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        r.set_enabled(true);
        c.inc();
        h.observe(1.0);
        assert_eq!(c.get(), 1);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn adopt_preserves_existing_values_and_flags() {
        let standalone = Counter::new();
        standalone.add(17);
        let r = Registry::disabled();
        r.adopt_counter("svc_total", &standalone);
        // The adopted handle keeps counting despite the registry being
        // disabled: it carries its own always-on flag.
        standalone.inc();
        let via_registry = match r.snapshot().get("svc_total") {
            Some(Instrument::Counter(c)) => c.get(),
            other => panic!("expected adopted counter, got {other:?}"),
        };
        assert_eq!(via_registry, 18);
    }

    #[test]
    fn snapshot_is_sorted_across_shards() {
        let r = Registry::new();
        for name in ["zeta", "alpha", "mid", "beta_total"] {
            r.counter(name);
        }
        let names: Vec<String> = r.snapshot().keys().cloned().collect();
        assert_eq!(names, vec!["alpha", "beta_total", "mid", "zeta"]);
    }
}
