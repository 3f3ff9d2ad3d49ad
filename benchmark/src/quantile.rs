//! Order statistics for latency samples and for run-to-run comparison.

/// 1-based nearest rank of quantile `p` in `n` samples: `ceil(p * n)`.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0 && (0.0..=1.0).contains(&p));
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile of an ascending slice.
pub fn nearest_rank(sorted: &[u32], p: f64) -> u32 {
    sorted[rank(sorted.len(), p) - 1]
}

/// A tail quantile is reported only when at least this many samples lie
/// beyond its rank.
pub const MIN_BEYOND: usize = 10;

pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_BEYOND
}

/// The quantile as reported: the mean of the samples whose ranks lie in a
/// narrow band around the nearest rank — a fifth of the distance to the
/// nearer end of the distribution on either side (ranks 49 %–51 % for the
/// median, 98.8 %–99.2 % for p99, 99.88 %–99.92 % for p999). A single
/// order statistic of integer nanoseconds or cycles ties between runs
/// and jumps between neighbouring modes; the band mean keeps all the
/// measured digits and stays inside the `MIN_BEYOND` rule because it
/// never reaches more than a fifth of the way to the tail.
pub fn banded(sorted: &[u32], p: f64) -> f64 {
    let n = sorted.len();
    let half = p.min(1.0 - p) / 5.0;
    let lo = rank(n, (p - half).max(0.0));
    let hi = rank(n, (p + half).min(1.0));
    let band = &sorted[lo - 1..hi];
    band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them — the driver's spread uses that function. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    assert!(n >= 2);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median; 0 for a single value.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

/// Least-squares slope of `y` over `x` (cost per added access on the
/// ladder's k ∈ {1, 8, 32, 64} sweeps).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
        assert_eq!(nearest_rank(&[7], 0.999), 7);
        // ceil, not round: 5 samples, p = 0.5 → rank 3.
        assert_eq!(nearest_rank(&[10, 20, 30, 40, 50], 0.5), 30);
        // 4 samples, p = 0.5 → rank 2.
        assert_eq!(nearest_rank(&[10, 20, 30, 40], 0.5), 20);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p999 of 10 000 samples has exactly 10 beyond it; of 9 999, 9.
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert!(reportable(10_000, 0.999));
        assert!(!reportable(9_999, 0.999));
        assert!(reportable(1_000, 0.99));
        assert!(!reportable(999, 0.99));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn band_brackets_the_nearest_rank_and_respects_the_tail_rule() {
        let v: Vec<u32> = (1..=100_000).collect();
        for p in [0.5, 0.99, 0.999] {
            let b = banded(&v, p);
            let exact = nearest_rank(&v, p) as f64;
            assert!((b - exact).abs() <= 1.0, "p={p}: band {b} vs rank {exact}");
            let hi = rank(v.len(), p + p.min(1.0 - p) / 5.0);
            assert!(v.len() - hi >= samples_beyond(v.len(), p) * 4 / 5);
        }
        // Degenerate inputs still answer.
        assert_eq!(banded(&[5], 0.99), 5.0);
        assert_eq!(banded(&[1, 3], 0.5), 2.0);
    }

    #[test]
    fn quartiles_agree_with_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 20.0, 40.0]), (10.0, 40.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn slope_recovers_a_line() {
        let pts: Vec<(f64, f64)> = [1.0, 8.0, 32.0, 64.0]
            .iter()
            .map(|&k| (k, 40.0 + 12.5 * k))
            .collect();
        assert!((slope(&pts) - 12.5).abs() < 1e-9);
    }
}
