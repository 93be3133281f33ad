//! Sample reduction: medians, nearest-rank percentiles, and the rule
//! that a tail percentile is reported only when the sample supports it.

use std::time::Duration;

/// Fewest samples that must lie strictly beyond a percentile for it to
/// be reported.
const MIN_BEYOND: usize = 10;

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Samples that lie beyond the nearest-rank `q` percentile of `n`.
fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank.min(n))
}

/// The `q` percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supported_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(nearest_rank(&sorted, q))
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples: rank 990, 9 beyond -> withheld.
        let small: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(supported_percentile(&small, 0.99), None);
        // 1000 samples: rank 990, exactly 10 beyond -> reported.
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(supported_percentile(&enough, 0.99), Some(989.0));
        // The median of any non-empty sample has plenty beyond it.
        assert_eq!(supported_percentile(&enough, 0.5), Some(499.0));
        assert_eq!(supported_percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
