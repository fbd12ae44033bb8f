//! The workspace's one GELU (tanh approximation, as in GPT MLP blocks)
//! and its derivative.
//!
//! `tanh` here is a clamp, an odd 13/6 rational polynomial and one
//! divide — no branch and no libm call. Two reasons: `tanhf` costs
//! 10–23 ns per element (it was 12 of the 43 ms of a `train_serial`
//! step, forward and again in backward) against ~1.5 ns for this form,
//! which the compiler also vectorizes; and pure IEEE mul/add/div gives
//! the same bits on every host, libc version and SIMD width, which
//! `tanhf` never promised — so losses and decoded tokens stay
//! reproducible across machines.

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)
const GELU_A: f32 = 0.044715;

/// `tanh(x)` to within 4e-7 absolute. Beyond ±9 `tanh` rounds to ±1 in
/// f32, so the argument is clamped there and the quotient to [−1, 1];
/// `f32::clamp` passes NaN through. Coefficients are the minimax fit
/// used by Eigen's `generic_fast_tanh_float`.
#[inline]
fn tanh_rational(x: f32) -> f32 {
    let x = x.clamp(-9.0, 9.0);
    let x2 = x * x;
    let mut p = -2.760_768_4e-16_f32;
    p = p * x2 + 2.000_188e-13;
    p = p * x2 + -8.604_672e-11;
    p = p * x2 + 5.122_297_3e-8;
    p = p * x2 + 1.485_722_35e-5;
    p = p * x2 + 6.372_619_5e-4;
    p = p * x2 + 4.893_524_6e-3;
    let mut q = 1.198_258_4e-6_f32;
    q = q * x2 + 1.185_347_1e-4;
    q = q * x2 + 2.268_434_7e-3;
    q = q * x2 + 4.893_525e-3;
    (x * p / q).clamp(-1.0, 1.0)
}

#[inline]
fn gelu_tanh(x: f32) -> f32 {
    tanh_rational(GELU_C * (x + GELU_A * x * x * x))
}

/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + gelu_tanh(x))
}

/// `d gelu / dx`, from the same `tanh` as [`gelu`].
#[inline]
pub fn gelu_grad(x: f32) -> f32 {
    let t = gelu_tanh(x);
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * GELU_C * (1.0 + 3.0 * GELU_A * x * x)
}

/// Define `$name` as `$body` compiled for the widest float vectors the
/// CPU reports (AVX-512F, else AVX2, else the build's baseline). The
/// bodies are plain IEEE mul/add/div/clamp, which no target feature lets
/// the compiler contract or reorder, so every copy gives the same bits;
/// only the lane count changes. An MLP activation of 80×512 (a serving
/// prefill) took 71 µs at the SSE baseline, 37 µs with AVX2 and 27 µs
/// with AVX-512 (2-core Sapphire Rapids VM, best of five).
macro_rules! widest {
    ($(#[$doc:meta])* pub fn $name:ident($($arg:ident: $ty:ty),*) = $body:ident;) => {
        $(#[$doc])*
        pub fn $name($($arg: $ty),*) {
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    #[target_feature(enable = "avx512f")]
                    fn avx512($($arg: $ty),*) {
                        $body($($arg),*)
                    }
                    // SAFETY: the CPU has AVX-512F (checked above).
                    return unsafe { avx512($($arg),*) };
                }
                if std::arch::is_x86_feature_detected!("avx2") {
                    #[target_feature(enable = "avx2")]
                    fn avx2($($arg: $ty),*) {
                        $body($($arg),*)
                    }
                    // SAFETY: the CPU has AVX2 (checked above).
                    return unsafe { avx2($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

widest! {
    /// `x ← gelu(x)` for every element: bitwise [`gelu`] on each.
    pub fn gelu_in_place(xs: &mut [f32]) = gelu_in_place_body;
}

#[inline(always)]
fn gelu_in_place_body(xs: &mut [f32]) {
    for x in xs {
        *x = gelu(*x);
    }
}

widest! {
    /// `d ← d · gelu'(pre)` elementwise: bitwise [`gelu_grad`] on each.
    ///
    /// # Panics
    /// If the two slices differ in length.
    pub fn gelu_backprop(pre: &[f32], d: &mut [f32]) = gelu_backprop_body;
}

#[inline(always)]
fn gelu_backprop_body(pre: &[f32], d: &mut [f32]) {
    assert_eq!(pre.len(), d.len(), "gelu_backprop: length mismatch");
    for (dv, &p) in d.iter_mut().zip(pre) {
        *dv *= gelu_grad(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 480 001 points over [−12, 12], step 5e-5.
    fn dense_grid() -> impl Iterator<Item = f32> {
        (0..=480_000).map(|i| (-12.0 + 24.0 * f64::from(i) / 480_000.0) as f32)
    }

    fn gelu_f64(x: f64) -> f64 {
        0.5 * x * (1.0 + f64::tanh(0.797_884_560_802_865_4 * (x + 0.044715 * x * x * x)))
    }

    #[test]
    fn tanh_is_within_1e6_of_f64_odd_and_bounded() {
        let mut worst = 0.0f64;
        for x in dense_grid() {
            let t = tanh_rational(x);
            worst = worst.max((f64::from(t) - f64::tanh(f64::from(x))).abs());
            assert!(t.abs() <= 1.0, "tanh({x}) = {t}");
            assert_eq!(tanh_rational(-x).to_bits(), (-t).to_bits(), "odd at {x}");
        }
        assert!(worst <= 1e-6, "max |tanh error| {worst:e}");
    }

    #[test]
    fn gelu_tracks_f64_on_a_dense_grid() {
        // The f32 product 0.5·x·(1 + t) scales the tanh error by |x|/2.
        for x in dense_grid() {
            let err = (f64::from(gelu(x)) - gelu_f64(f64::from(x))).abs();
            let tol = 1e-6 * f64::from(x.abs()).max(1.0);
            assert!(err <= tol, "gelu({x}) off by {err:e}");
        }
        assert!((gelu(1.0) - 0.841_192).abs() < 1e-6);
        assert!((gelu(-1.0) + 0.158_808).abs() < 1e-6);
    }

    #[test]
    fn gelu_zero_saturation_and_nan() {
        assert_eq!(gelu(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(gelu_grad(0.0), 0.5);
        for x in [8.0f32, 9.5, 12.0, 1e4] {
            assert_eq!(gelu(x), x, "gelu({x})");
            assert_eq!(gelu_grad(x), 1.0, "gelu_grad({x})");
        }
        assert_eq!(gelu(f32::INFINITY), f32::INFINITY);
        for x in [-8.0f32, -9.5, -12.0, -1e4] {
            assert_eq!(gelu(x), 0.0, "gelu({x})");
            assert_eq!(gelu_grad(x), 0.0, "gelu_grad({x})");
        }
        assert!(tanh_rational(f32::NAN).is_nan());
        assert!(gelu(f32::NAN).is_nan());
        assert!(gelu_grad(f32::NAN).is_nan());
    }

    #[test]
    fn slice_forms_are_bitwise_the_scalar_ones() {
        // Specials at the end, so that with the odd length some of them
        // land in a vector copy's remainder loop.
        let mut pre: Vec<f32> = dense_grid().collect();
        for s in [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1e30,
            -1e30,
            1e-40,
        ] {
            pre.extend([s; 3]);
        }
        let d: Vec<f32> = pre.iter().map(|x| 0.5 - x).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        let mut fwd = pre.clone();
        gelu_in_place(&mut fwd);
        let want: Vec<f32> = pre.iter().map(|&x| gelu(x)).collect();
        assert_eq!(bits(&fwd), bits(&want));

        let mut back = d.clone();
        gelu_backprop(&pre, &mut back);
        let want: Vec<f32> = d
            .iter()
            .zip(&pre)
            .map(|(&dv, &p)| dv * gelu_grad(p))
            .collect();
        assert_eq!(bits(&back), bits(&want));
    }

    #[test]
    fn gelu_grad_matches_central_difference() {
        let h = 1e-4;
        for i in -600..=600 {
            let x = f64::from(i) * 0.01;
            let fd = (gelu_f64(x + h) - gelu_f64(x - h)) / (2.0 * h);
            let g = f64::from(gelu_grad(x as f32));
            assert!((g - fd).abs() < 2e-5, "x={x}: analytic {g} vs fd {fd}");
        }
    }
}
