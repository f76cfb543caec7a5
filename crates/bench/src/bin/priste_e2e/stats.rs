//! Order statistics for the benchmark: per-run latency quantiles from raw
//! samples, the across-run median and quartiles, and the rule `compare`
//! applies to two sets of runs.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least `q · n` samples at or below it. Raw samples, no
/// interpolation and no buckets, so p99 of 10 000 samples is the 9 900th
/// smallest and has exactly 100 samples above it.
///
/// # Panics
/// On an empty sample or `q` outside `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample in place (total order; the benchmark never records NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Samples a quantile needs per window: p99 then has ten samples beyond it.
pub const WINDOW_SAMPLES: usize = 1_000;

/// Median over consecutive windows of the `q`-quantile, for samples in
/// arrival order. Windows hold at least [`WINDOW_SAMPLES`] samples (the
/// remainder joins the last window); with fewer samples this is the plain
/// quantile. A burst of interference from outside the program spoils one
/// or two windows and leaves the median alone; a stall the program causes
/// in most windows still shows.
///
/// # Panics
/// On an empty sample.
pub fn windowed_quantile(in_order: &[f64], q: f64) -> f64 {
    let windows = (in_order.len() / WINDOW_SAMPLES).max(1);
    let len = in_order.len() / windows;
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * len
            };
            let mut window = in_order[w * len..end].to_vec();
            sort(&mut window);
            quantile(&window, q)
        })
        .collect();
    Summary::of(&per_window).median
}

/// Consecutive windows [`window_rates`] splits a phase into.
pub const RATE_WINDOWS: usize = 10;

/// Completion rates (per second) of [`RATE_WINDOWS`] windows of equally
/// many consecutive completions, from completion times in seconds since the
/// phase started: window `k` completes its share in the time between its
/// first and last completion. Their median, like [`windowed_quantile`],
/// keeps a burst of outside interference, which spoils a window or two, out
/// of the result. With fewer completions than windows, the one rate over
/// the whole span.
pub fn window_rates(completions_s: &[f64]) -> Vec<f64> {
    let mut t = completions_s.to_vec();
    sort(&mut t);
    let per = t.len() / RATE_WINDOWS;
    if per < 2 {
        let end = t.last().copied().unwrap_or(0.0);
        return vec![if end > 0.0 { t.len() as f64 / end } else { 0.0 }];
    }
    (0..RATE_WINDOWS)
        .map(|k| {
            let span = t[(k + 1) * per - 1] - t[k * per];
            (per - 1) as f64 / span.max(1e-9)
        })
        .collect()
}

/// Median, quartiles and spread of one metric across runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Median and quartiles as Python's `statistics.median` and
    /// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
    /// compute them, so the numbers here match an external check. A single
    /// run has no spread: its quartiles equal its value.
    ///
    /// # Panics
    /// On an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no runs");
        let mut v = values.to_vec();
        sort(&mut v);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n == 1 {
            return Summary {
                median,
                q1: median,
                q3: median,
            };
        }
        let quartile = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quartile(1),
            q3: quartile(3),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing a change's runs against the parent's on one
/// (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the run pairs and the medians
    /// differ by more than the parent's own interquartile distance.
    Improved,
    /// The change's median is no worse than the parent's by more than the
    /// bound.
    Within,
    /// The change's median is worse than the parent's by more than the bound.
    Regressed,
    /// The run-to-run spread exceeds the bound, so "within" would be a guess;
    /// reported unless every change run beats every parent run.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The comparison rule of the benchmark. `base` are the parent's runs,
/// `change` the change's, paired by index for the win count; `bound` is the
/// share of the parent's median by which the metric may worsen.
///
/// # Panics
/// When either side has no runs.
pub fn compare(base: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let b = Summary::of(base);
    let c = Summary::of(change);
    // Signed so that a positive number is always "worse", as a share of the
    // parent's median.
    let worse = |from: f64, to: f64| {
        let d = match better {
            Better::Lower => to - from,
            Better::Higher => from - to,
        };
        if from == 0.0 {
            if d == 0.0 {
                0.0
            } else {
                d.signum() * f64::INFINITY
            }
        } else {
            d / from.abs()
        }
    };
    let beats = |x: f64, y: f64| worse(y, x) < 0.0;
    let all_better = change.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|&(&y, &x)| beats(x, y))
        .count();
    let shift = worse(b.median, c.median);
    if wins * 10 >= pairs * 9 && -shift > b.spread() && shift < 0.0 {
        return Verdict::Improved;
    }
    if b.spread() > bound || c.spread() > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if shift > bound {
        Verdict::Regressed
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_use_raw_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        // A lone outlier in 10 000 samples moves p99.99 but not p99.
        let mut v: Vec<f64> = vec![1.0; 9_999];
        v.push(1_000.0);
        sort(&mut v);
        assert_eq!(quantile(&v, 0.99), 1.0);
        assert_eq!(quantile(&v, 1.0), 1_000.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_burst_in_one_window() {
        // Five windows of 1000; one window holds a burst of 200 slow samples.
        let mut v = vec![1.0; 5_000];
        for x in &mut v[2_000..2_200] {
            *x = 50.0;
        }
        let mut sorted = v.clone();
        sort(&mut sorted);
        assert_eq!(quantile(&sorted, 0.99), 50.0);
        assert_eq!(windowed_quantile(&v, 0.99), 1.0);
        // A stall in every window still shows.
        let v: Vec<f64> = (0..5_000)
            .map(|i| if i % 50 == 0 { 9.0 } else { 1.0 })
            .collect();
        assert_eq!(windowed_quantile(&v, 0.99), 9.0);
        // Too few samples for two windows: the plain quantile.
        assert_eq!(windowed_quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn median_window_rate_ignores_a_stall() {
        // One completion every 10 ms, with a 0.5 s stall in the middle.
        let mut t: Vec<f64> = (1..=200).map(|i| i as f64 * 0.01).collect();
        for x in &mut t[100..] {
            *x += 0.5;
        }
        let rates = window_rates(&t);
        assert_eq!(rates.len(), RATE_WINDOWS);
        assert!((Summary::of(&rates).median - 100.0).abs() < 1e-6);
        // The mean rate over the whole span is a fifth lower.
        assert!((200.0 / t[199] - 80.0).abs() < 1e-9);
        // Too few completions for the windows: the rate over the span.
        assert_eq!(window_rates(&[0.05, 0.1]), vec![20.0]);
    }

    #[test]
    fn summary_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn compare_applies_bound_spread_and_win_rules() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        // Same distribution: within.
        assert_eq!(compare(&base, &base, Better::Lower, 0.1), Verdict::Within);
        // 20 % slower latency with a 10 % bound: regressed.
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(
            compare(&base, &slower, Better::Lower, 0.1),
            Verdict::Regressed
        );
        // The same shift on a higher-is-better metric is an improvement.
        assert_eq!(
            compare(&base, &slower, Better::Higher, 0.1),
            Verdict::Improved
        );
        // 5 % slower with a 10 % bound: within.
        let bit_slower: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            compare(&base, &bit_slower, Better::Lower, 0.1),
            Verdict::Within
        );
        // A spread wider than the bound makes the answer unresolved...
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        assert_eq!(
            compare(&noisy, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let fast: Vec<f64> = noisy.iter().map(|x| x / 10.0).collect();
        assert_eq!(
            compare(&noisy, &fast, Better::Lower, 0.1),
            Verdict::Improved
        );
        // Winning fewer than nine pairs in ten is no improvement claim.
        let mixed = [9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, 11.0, 11.0];
        assert_eq!(compare(&base, &mixed, Better::Lower, 0.25), Verdict::Within);
    }
}
