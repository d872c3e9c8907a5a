//! Order statistics over latency samples.
//!
//! Percentiles are nearest-rank: the p-th percentile of n sorted samples
//! is the one at rank ceil(p/100 · n), so every reported value is a
//! latency some request actually had. A tail percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it; with fewer, the
//! number is one slow request, not a tail.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The p-th percentile, or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond its rank.
pub fn tail_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    if sorted.len().saturating_sub(rank) < MIN_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// Median of unsorted nanosecond samples.
pub fn median_ns(samples: &[u64]) -> Option<u64> {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 50.0)
}

/// Median of unsorted floats (nearest-rank, like [`percentile`]).
pub fn median_f64(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.len().div_ceil(2);
    sorted.get(rank.checked_sub(1)?).copied()
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the driver's measure of how well a metric repeats). `None` below two
/// values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / quartile(2))
}

/// Geometric mean of positive ratios; `None` when empty.
pub fn geometric_mean(ratios: &[f64]) -> Option<f64> {
    if ratios.is_empty() {
        return None;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    Some((log_sum / ratios.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 99.0), Some(99));
        assert_eq!(percentile(&s, 100.0), Some(100));
        assert_eq!(percentile(&s, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // 5 samples: p50 is rank ceil(2.5) = 3
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 50.0), Some(30));
        assert_eq!(median_ns(&[50, 10, 40, 20, 30]), Some(30));
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&s, 99.0), Some(990));
        // 999 samples: rank 990, nine beyond.
        assert_eq!(tail_percentile(&s[..999], 99.0), None);
        // p90 needs 100.
        assert_eq!(tail_percentile(&s[..100], 90.0), Some(90));
        assert_eq!(tail_percentile(&s[..99], 90.0), None);
        assert_eq!(tail_percentile(&[], 99.0), None);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[3.0, 1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert!((quartile_spread(&[10.0, 12.0]).unwrap() - 3.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn geometric_mean_weights_ratios_equally() {
        let g = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), None);
    }
}
