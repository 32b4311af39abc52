//! Order statistics for the benchmark's reported timings.
//!
//! Rep-level timings (`setup_s`, `campaign_s`) are reported as plain
//! medians. Pooled per-job walls use nearest-rank percentiles, so a
//! reported value is always one measured sample, and the tail percentile
//! is the highest of p90/p75/p50 that still has at least
//! [`MIN_BEYOND`] samples above it.

/// Samples a tail percentile must leave above itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried in order, highest first. The last one is the
/// fallback when too few samples exist for any of them.
const TAIL_LEVELS: [f64; 3] = [0.90, 0.75, 0.50];

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `values`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    v[rank(p, v.len()) - 1]
}

/// The tail percentile level to report for `n` samples: the highest of
/// p90/p75/p50 with at least [`MIN_BEYOND`] samples beyond it, else p50.
pub fn tail_level(n: usize) -> f64 {
    TAIL_LEVELS
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= MIN_BEYOND)
        .unwrap_or(TAIL_LEVELS[TAIL_LEVELS.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_a_measured_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(tail_level(100), 0.90);
        // 99 samples: rank 90 leaves nine beyond, so p75 (rank 75,
        // 24 beyond) is the highest that qualifies.
        assert_eq!(tail_level(99), 0.75);
        // 40 samples: p75 is rank 30, ten beyond.
        assert_eq!(tail_level(40), 0.75);
        assert_eq!(tail_level(39), 0.50);
        // Too few for any level: fall back to the median.
        assert_eq!(tail_level(12), 0.50);
        assert_eq!(tail_level(0), 0.50);
    }
}
