//! Elementwise reduction folds shared by every reducing collective.
//!
//! All reduce algorithms (ring, linear, recursive halving/doubling,
//! binomial tree) fold incoming buffers into a local accumulator through
//! these helpers, so vectorization lands in one place. The f32 **sum**
//! fold is one plain loop compiled twice: with the `avx2` target feature
//! (8-lane adds), taken when the CPU reports it, and as written (4-lane
//! SSE2 on x86-64), taken elsewhere and under miri. IEEE f32 addition is
//! elementwise at any vector width, so both copies give the scalar bits
//! and the bitwise reference-equivalence oracles hold on every CPU. The
//! **max** fold stays scalar: vector max instructions and `f32::max`
//! disagree on NaN propagation.

use crate::comm::ReduceOp;

/// Fold `src` into `acc` elementwise under `op`.
#[inline]
pub fn fold_op(op: ReduceOp, acc: &mut [f32], src: &[f32]) {
    debug_assert_eq!(acc.len(), src.len(), "fold length mismatch");
    match op {
        ReduceOp::Sum => fold_sum(acc, src),
        ReduceOp::Max => {
            for (a, &s) in acc.iter_mut().zip(src) {
                *a = a.max(s);
            }
        }
    }
}

/// Elementwise `acc[i] += src[i]`, on AVX2 when the CPU has it
/// (runtime-detected, cached by std).
#[inline]
pub fn fold_sum(acc: &mut [f32], src: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU executes AVX2 instructions (checked just above).
        unsafe { fold_sum_avx2(acc, src) };
        return;
    }
    fold_sum_plain(acc, src);
}

/// The one source of the sum fold; `#[inline(always)]` so that
/// [`fold_sum_avx2`] compiles it rather than calls it.
#[inline(always)]
fn fold_sum_plain(acc: &mut [f32], src: &[f32]) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += s;
    }
}

/// [`fold_sum_plain`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_sum_avx2(acc: &mut [f32], src: &[f32]) {
    fold_sum_plain(acc, src);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sum_matches_scalar_bitwise() {
        // Lengths straddling the 8-lane boundary, values with varied
        // exponents so any reassociation would change bits.
        let mut cases: Vec<(Vec<f32>, Vec<f32>)> = [0usize, 1, 7, 8, 9, 31, 32, 100]
            .into_iter()
            .map(|len| {
                (
                    (0..len).map(|i| (i as f32) * 7.7e2).collect(),
                    (0..len).map(|i| (i as f32 + 0.5) * 1.3e-3).collect(),
                )
            })
            .collect();
        // Signed zeros, subnormals and infinities, in every pairing that
        // sums to a number: `∞ + -∞` is a NaN, whose bits IEEE leaves open.
        let special = [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 4.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
        ];
        cases.push(
            special
                .iter()
                .flat_map(|&a| special.map(|s| (a, s)))
                .filter(|(a, s)| !(a + s).is_nan())
                .unzip(),
        );
        for (acc, src) in cases {
            let len = acc.len();
            let expect: Vec<u32> = acc
                .iter()
                .zip(&src)
                .map(|(a, s)| (a + s).to_bits())
                .collect();
            let mut plain = acc.clone();
            fold_sum_plain(&mut plain, &src);
            assert_eq!(bits(&plain), expect, "plain, len {len}");
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                let mut avx2 = acc.clone();
                // SAFETY: the CPU executes AVX2 instructions (checked above).
                unsafe { fold_sum_avx2(&mut avx2, &src) };
                assert_eq!(bits(&avx2), expect, "avx2, len {len}");
            }
            let mut picked = acc;
            fold_sum(&mut picked, &src);
            assert_eq!(bits(&picked), expect, "fold_sum, len {len}");
        }
    }

    #[test]
    fn max_fold_keeps_f32_max_nan_semantics() {
        let mut acc = vec![f32::NAN, 1.0, -3.0];
        fold_op(ReduceOp::Max, &mut acc, &[2.0, f32::NAN, -4.0]);
        // f32::max returns the non-NaN operand.
        assert_eq!(acc[0], 2.0);
        assert_eq!(acc[1], 1.0);
        assert_eq!(acc[2], -3.0);
    }

    #[test]
    fn sum_fold_dispatches_through_fold_op() {
        let mut acc = vec![1.0f32; 20];
        fold_op(ReduceOp::Sum, &mut acc, &[2.0f32; 20]);
        assert!(acc.iter().all(|&v| v == 3.0));
    }
}
