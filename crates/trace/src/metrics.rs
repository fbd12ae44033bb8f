//! Fixed-bucket histograms and the standard bucket bounds.
//!
//! [`Histogram`] is the plain, single-owner form: what a
//! [`LiveRegistry`](crate::LiveRegistry) snapshot holds for each of its
//! sharded histograms, and what offline tools observe into directly.
//! Aggregating finished traces into named metrics is
//! [`fold_traces`](crate::fold_traces), which goes through the live
//! registry.

use serde::{Serialize, Value};

/// The bucket `value` falls in: the first bound it does not exceed, or
/// the overflow bucket (`bounds.len()`). Shared by [`Histogram`] and the
/// live plane's sharded histogram so the two bucket identically.
pub(crate) fn bucket_of(bounds: &[f64], value: f64) -> usize {
    bounds
        .iter()
        .position(|&b| value <= b)
        .unwrap_or(bounds.len())
}

/// Fixed-bucket histogram. Bucket `i` counts observations `<= bounds[i]`;
/// one implicit overflow bucket counts the rest. Non-finite observations
/// (NaN, ±inf) are counted in `quarantined` but never touch the buckets
/// or the sum, so one poisoned measurement cannot corrupt an aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    total: u64,
    quarantined: u64,
}

impl Histogram {
    /// `bounds` must be strictly increasing.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = vec![0; bounds.len() + 1];
        Histogram {
            bounds,
            counts,
            sum: 0.0,
            total: 0,
            quarantined: 0,
        }
    }

    /// Rebuild a histogram from raw parts (used by the live registry to
    /// snapshot its atomic shards into the plain form).
    pub fn from_parts(
        bounds: Vec<f64>,
        counts: Vec<u64>,
        sum: f64,
        total: u64,
        quarantined: u64,
    ) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert_eq!(counts.len(), bounds.len() + 1, "counts/bounds mismatch");
        Histogram {
            bounds,
            counts,
            sum,
            total,
            quarantined,
        }
    }

    pub fn observe(&mut self, value: f64) {
        self.total += 1;
        if !value.is_finite() {
            self.quarantined += 1;
            return;
        }
        self.counts[bucket_of(&self.bounds, value)] += 1;
        self.sum += value;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of all *finite* observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Non-finite observations counted but excluded from buckets/sum.
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket containing the `q`-th finite observation. Returns `None`
    /// when no finite observation has been recorded; observations that
    /// landed in the overflow bucket yield `f64::INFINITY` (the bucket
    /// has no upper bound).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let finite = self.total - self.quarantined;
        if finite == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * finite as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }
}

impl Serialize for Histogram {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("bounds".into(), self.bounds.serialize()),
            ("counts".into(), self.counts.serialize()),
            ("sum".into(), self.sum.serialize()),
            ("total".into(), self.total.serialize()),
            ("quarantined".into(), self.quarantined.serialize()),
        ])
    }
}

/// Byte-size bucket bounds (64 B .. 256 MiB, powers of 16).
pub const BYTES_BOUNDS: [f64; 5] = [64.0, 1024.0, 16384.0, 262_144.0, 4_194_304.0];
/// Seconds bucket bounds (1 µs .. 10 s, decades).
pub const SECONDS_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(100.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 105.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_bad_bounds() {
        Histogram::new(vec![1.0, 1.0]);
    }

    #[test]
    fn histogram_quarantines_non_finite() {
        let mut h = Histogram::new(vec![1.0, 10.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(5.0);
        // All four observations counted, but only the finite one reached
        // a bucket or the sum.
        assert_eq!(h.count(), 4);
        assert_eq!(h.quarantined(), 3);
        assert_eq!(h.bucket_counts(), &[0, 1, 0]);
        assert!((h.sum() - 5.0).abs() < 1e-12);
        assert!(h.sum().is_finite());
        assert_eq!(h.quantile(0.5), Some(10.0));
    }

    #[test]
    fn quantile_on_empty_histogram_is_none() {
        let h = Histogram::new(vec![1.0, 10.0]);
        assert_eq!(h.quantile(0.5), None);
        // A histogram holding only quarantined values has no finite
        // observations either.
        let mut q = Histogram::new(vec![1.0, 10.0]);
        q.observe(f64::NAN);
        assert_eq!(q.quantile(0.5), None);
    }

    #[test]
    fn quantile_walks_buckets() {
        let mut h = Histogram::new(vec![1.0, 10.0, 100.0]);
        for _ in 0..8 {
            h.observe(0.5);
        }
        h.observe(5.0);
        h.observe(500.0); // overflow bucket
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(1.0));
        assert_eq!(h.quantile(0.9), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY));
    }
}
