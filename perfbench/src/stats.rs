//! Order statistics used by every workload.
//!
//! Percentiles are nearest-rank: the `p`-th percentile of `n` sorted
//! samples is the sample at 1-based rank `ceil(p/100 * n)`, so every
//! reported value is one that was actually measured.

/// Sorts `values` in place by total order and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// 1-based nearest rank of percentile `p` among `n` samples (`n > 0`).
/// The tiny subtraction keeps float noise in `p × n` (99.9 × 10,000 is
/// 999,000.000…1) from rounding an exact rank up.
fn rank(p: f64, n: usize) -> usize {
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100] of already sorted samples; `None`
/// when there are none.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of p99.9/p99/p95/p90/p75/p50 that has at least ten
/// samples beyond its nearest-rank position among `n` samples, or `None`
/// when even the median has fewer than ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| n > 0 && n - rank(p, n) >= 10)
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let v = sorted((1..=10).map(f64::from).rev().collect());
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }
}
