//! Order statistics for benchmark samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the default
//! "exclusive" method), because that is what the acceptance procedure applies
//! to the numbers this benchmark prints: a spread computed here and one
//! computed there agree to the last digit.

use serde::json::Value;

/// Median and quartiles of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise `samples` (any order). Panics on an empty slice: a metric
    /// with no sample is a harness bug, not a measurement.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&v);
        Summary {
            n: v.len(),
            q1,
            median,
            q3,
            min: v[0],
            max: v[v.len() - 1],
        }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Value {
        Value::object()
            .set("n", self.n)
            .set("q1", self.q1)
            .set("median", self.median)
            .set("q3", self.q3)
            .set("min", self.min)
            .set("max", self.max)
    }
}

/// `(q1, median, q3)` of an ascending slice, by the exclusive method: the
/// i-th of the three cut points sits at position `i * (n + 1) / 4`, linearly
/// interpolated, clamped to the data range. One sample is its own quartiles.
pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `samples` (any order).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// Nearest-rank percentile (`p` in 0..=100) of `samples` (any order); used for
/// the per-quantum span distributions, which have thousands of samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10,11], n=4) == [3.0, 6.0, 9.0]
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (3.0, 6.0, 9.0));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_sorted(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: the
        // exclusive method extrapolates past a two-point range.
        assert_eq!(quartiles_sorted(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles_sorted(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
    }

    #[test]
    fn summary_sorts_and_reports_spread() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.n, s.min, s.max, s.median), (5, 1.0, 5.0, 3.0));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.spread(), 1.0);
        let one = Summary::of(&[7.0]);
        assert_eq!(
            (one.q1, one.median, one.q3, one.spread()),
            (7.0, 7.0, 7.0, 0.0)
        );
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }
}
