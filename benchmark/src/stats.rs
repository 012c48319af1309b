//! Summary statistics the metrics are built from.
//!
//! Time-to-solution is summarized over k interleaved rounds (minimum,
//! quartiles, median; `analytics::typical` says which one is reported and
//! why); the per-layer micro-measurements use the minimum, since on a shared
//! box interference only ever adds time. Latency percentiles and rates are
//! taken over their whole timed window.

/// Smallest sample — the best-of-k statistic. `NaN` for an empty sample.
pub fn best_of(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::min)
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending-sorted sample, linearly
/// interpolated between order statistics. `NaN` for an empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A sorted copy of `samples` (total order; `NaN`s sort last).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Five-number style summary printed beside every best-of-k metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Minimum (best-of-k).
    pub best: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarize an unsorted sample.
    pub fn of(samples: &[f64]) -> Self {
        let s = sorted(samples);
        Self {
            n: s.len(),
            best: s.first().copied().unwrap_or(f64::NAN),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

/// The highest percentile of `n` samples that still has at least `beyond`
/// samples above it, chosen from the conventional ladder 50/90/95/99/99.9.
/// A tail percentile with fewer samples beyond it is one or two outliers,
/// not a statistic. Returns 50 when even the median lacks support.
pub fn supported_percentile(n: usize, beyond: usize) -> f64 {
    // In per-mille, so the count beyond is exact integer arithmetic.
    const LADDER: [usize; 5] = [999, 990, 950, 900, 500];
    LADDER
        .into_iter()
        .find(|p| n * (1000 - p) / 1000 >= beyond)
        .unwrap_or(500) as f64
        / 10.0
}

/// The `p`-th percentile (`0..=100`) of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(samples), p / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_is_the_minimum() {
        assert_eq!(best_of(&[3.0, 1.5, 2.0]), 1.5);
        assert!(best_of(&[]).is_nan());
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.best, s.median), (5, 1.0, 3.0));
        assert_eq!((s.q1, s.q3), (2.0, 4.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_endpoints_are_min_and_max() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 9.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        // 1000 samples: exactly 10 lie beyond p99.
        assert_eq!(supported_percentile(1000, 10), 99.0);
        assert_eq!(supported_percentile(999, 10), 95.0);
        assert_eq!(supported_percentile(10_000, 10), 99.9);
        assert_eq!(supported_percentile(200, 10), 95.0);
        assert_eq!(supported_percentile(199, 10), 90.0);
        assert_eq!(supported_percentile(100, 10), 90.0);
        assert_eq!(supported_percentile(20, 10), 50.0);
        assert_eq!(supported_percentile(3, 10), 50.0);
    }
}
