//! Order statistics: percentiles under the sample-count rule, medians
//! and the relative spread of repeated measurements.
//!
//! Latencies on the virtual clock take a few discrete values (every call
//! of one shape costs exactly the same), so a plain order statistic
//! jumps from one value to the next when a mode's share moves by a
//! fraction of a percent. [`band_percentile`] smooths that: it averages
//! the samples ranked within a narrow band around the quantile, so the
//! estimate moves in proportion to the shares instead of jumping.

/// A percentile is reported only when at least this many samples lie
/// strictly above it; below that the tail is too thin to mean anything.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples:
/// `ceil(q * n)`, clamped to `1..=n`. A hair is taken off the product so
/// that rounding in `q` (0.99 + 0.005 is not exactly 0.995) cannot push
/// an exact rank up by one.
pub fn rank(n: usize, q: f64) -> usize {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples lying strictly beyond the nearest-rank position of `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Nearest-rank quantile `q` of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() || beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// Half-width of the rank band [`band_percentile`] averages over: one
/// percentile point, or half the distance to the maximum for high
/// quantiles (p99 averages p98.5..p99.5).
pub fn band_half_width(q: f64) -> f64 {
    0.01f64.min((1.0 - q) / 2.0)
}

/// Quantile `q` of `sorted` (ascending) as the mean of the samples whose
/// nearest rank lies within [`band_half_width`] of `q`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond the band.
pub fn band_percentile(sorted: &[u64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let h = band_half_width(q);
    let (lo, hi) = (rank(n, (q - h).max(0.0)), rank(n, q + h));
    if n == 0 || n - hi < MIN_BEYOND {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "not sorted");
    let band = &sorted[lo - 1..hi];
    Some(band.iter().map(|&v| v as f64).sum::<f64>() / band.len() as f64)
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(max - min) / median` of repeated measurements of one quantity:
/// the run-to-run drift recorded alongside each reported median.
pub fn rel_range(values: &[f64]) -> f64 {
    let m = median(values);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_positions() {
        assert_eq!(rank(100, 0.5), 50);
        assert_eq!(rank(101, 0.5), 51);
        assert_eq!(rank(1000, 0.99), 990);
        assert_eq!(rank(1, 0.99), 1);
        assert_eq!(rank(10, 0.0), 1);
        assert_eq!(rank(10, 1.0), 10);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly 10 above it: reported.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.99), Some(990));
        assert_eq!(percentile(&s, 0.5), Some(500));
        // 999 samples leave only 9 above the p99 rank: withheld.
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(percentile(&s, 0.99), None);
        // The median of 20 samples has 10 above it; of 19, only 9.
        let s: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&s, 0.5), Some(10));
        let s: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&s, 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_of_repeated_values() {
        let mut s = vec![7u64; 500];
        s.extend(std::iter::repeat_n(9u64, 500));
        assert_eq!(percentile(&s, 0.5), Some(7));
        assert_eq!(percentile(&s, 0.99), Some(9));
    }

    #[test]
    fn band_percentile_moves_smoothly_across_modes() {
        // Two modes at 100 and 200; the median sits on their boundary.
        let sample = |low: usize| {
            let mut s = vec![100u64; low];
            s.extend(std::iter::repeat_n(200u64, 10_000 - low));
            s
        };
        // A plain order statistic flips between the modes...
        assert_eq!(percentile(&sample(5_001), 0.5), Some(100));
        assert_eq!(percentile(&sample(4_999), 0.5), Some(200));
        // ...the band estimate moves by the shares: the band holds ranks
        // 4900..=5100, and 2 of its 201 samples change mode.
        let a = band_percentile(&sample(5_001), 0.5).unwrap();
        let b = band_percentile(&sample(4_999), 0.5).unwrap();
        assert_eq!(a, (102.0 * 100.0 + 99.0 * 200.0) / 201.0);
        assert_eq!(b, (100.0 * 100.0 + 101.0 * 200.0) / 201.0);
        // On a continuum it agrees with the order statistic.
        let s: Vec<u64> = (1..=10_000).collect();
        assert!((band_percentile(&s, 0.99).unwrap() - 9900.0).abs() <= 1.0);
        // The rule counts the samples beyond the band: p99 averages
        // p98.5..p99.5, so it needs 2000 samples.
        let s: Vec<u64> = (1..=1_999).collect();
        assert_eq!(band_percentile(&s, 0.99), None);
        let s: Vec<u64> = (1..=2_000).collect();
        assert!(band_percentile(&s, 0.99).is_some());
        assert_eq!(band_half_width(0.5), 0.01);
        assert!((band_half_width(0.99) - 0.005).abs() < 1e-12);
        assert_eq!(rank(2_000, 0.99 + band_half_width(0.99)), 1_990);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((rel_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rel_range(&[5.0, 5.0]), 0.0);
        assert_eq!(ratio(1, 0), 0.0);
    }
}
