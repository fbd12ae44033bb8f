//! Order statistics the benchmark reports: nearest-rank percentiles and
//! the median / inter-quartile spread of lap throughputs.

/// Nearest-rank percentile (`q` in `[0, 1]`): the smallest sample such
/// that at least `q` of the samples are ≤ it. Always a measured value,
/// never an interpolation. Returns 0 for an empty sample set, which the
/// per-layer metrics use for "does not apply to this workload".
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of lap values: the mean of the two middle samples for an even
/// count, so a 2-lap run does not silently report its faster lap.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Inter-quartile range over the median — the run-to-run spread figure
/// (`harness.lap_spread`). Quartiles are nearest-rank; fewer than four
/// laps have no quartiles and report 0.
pub fn iqr_over_median(samples: &[f64]) -> f64 {
    if samples.len() < 4 {
        return 0.0;
    }
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    (percentile(samples, 0.75) - percentile(samples, 0.25)) / m
}

pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// FNV-1a over a token stream, so two commits' generated tokens can be
/// diffed by one number.
pub fn fnv1a64(tokens: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in tokens {
        for b in t.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        // ceil(0.9 * 5) = 5th smallest.
        assert_eq!(percentile(&s, 0.9), 5.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        // ceil(0.5 * 4) = 2nd smallest: never interpolated.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn lap_median_and_iqr() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Quartiles of 1..=8 by nearest rank are 2 and 6; median 4.5.
        let laps: Vec<f64> = (1..=8).map(f64::from).collect();
        assert!((iqr_over_median(&laps) - 4.0 / 4.5).abs() < 1e-12);
        // One outlier lap moves neither the median nor the quartiles.
        let mut noisy = laps.clone();
        noisy[7] = 1000.0;
        assert_eq!(median(&noisy), median(&laps));
        assert_eq!(iqr_over_median(&noisy), iqr_over_median(&laps));
        assert_eq!(iqr_over_median(&[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn fnv_depends_on_order_and_value() {
        assert_ne!(fnv1a64([1, 2]), fnv1a64([2, 1]));
        assert_ne!(fnv1a64([1, 2]), fnv1a64([1, 3]));
        assert_eq!(fnv1a64([7, 8, 9]), fnv1a64(vec![7, 8, 9]));
    }
}
