//! Order statistics used by the runner, the probes and `--compare`.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `p` percent of the sample at or below it. `p` in `(0, 100]`.
pub fn percentile_nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the "exclusive" method) — the driver's spread rule uses exactly
/// these, so `--compare` must too. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median — the spread the
/// driver holds against each metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_nearest_rank(&v, 50.0), 5);
        assert_eq!(percentile_nearest_rank(&v, 90.0), 9);
        assert_eq!(percentile_nearest_rank(&v, 91.0), 10);
        assert_eq!(percentile_nearest_rank(&v, 100.0), 10);
        assert_eq!(percentile_nearest_rank(&v, 0.1), 1);
        assert_eq!(percentile_nearest_rank(&[7], 50.0), 7);
        // Nearest rank never interpolates: the result is always a sample.
        assert_eq!(percentile_nearest_rank(&[1, 100], 50.0), 1);
        assert_eq!(percentile_nearest_rank(&[1, 100], 51.0), 100);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((quartile_spread(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
        // Two values: both cuts interpolate (Python gives [0.75, 1.5, 2.25]
        // for [1, 2]).
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
