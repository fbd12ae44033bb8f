//! The one rounding rule of every GEMM kernel, and the loops that must
//! agree with it bit for bit: each term is added by one correctly rounded
//! fused multiply-add, in contraction order, from `+0.0`.
//!
//! `f32::mul_add` is correctly rounded wherever it runs — the `vfmadd`
//! instruction when the code is compiled with the `fma` target feature,
//! a call to the software `fmaf` otherwise — so both give the same bits,
//! and so does a vector FMA kernel of any width. On x86-64 the software
//! call is more than an order of magnitude slower, so every loop body here
//! is compiled twice: with `fma` enabled, taken when the CPU reports the
//! instruction, and as written, taken elsewhere (under miri, and on
//! targets where `mul_add` is already a baseline instruction). The
//! `*_body` functions are the single source of each loop; the public
//! names dispatch between the two copies.
//!
//! The portable GEMM kernel and cached decode attention run here on
//! every CPU.

use crate::pack::NR;

/// Whether the CPU executes fused multiply-add in hardware. The answer is
/// detected once and cached by the standard library.
fn hardware_fma() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Define `$name` as `$body` compiled twice: with the `fma` target
/// feature, taken when [`hardware_fma`] holds, and as written. `$body`
/// must be `#[inline(always)]` so that the first copy compiles it rather
/// than calls it.
macro_rules! twice {
    ($(#[$doc:meta])* $vis:vis fn $name:ident$(<const $r:ident: usize>)?
        ($($arg:ident: $ty:ty),*) $(-> $ret:ty)? = $body:ident;) => {
        $(#[$doc])*
        $vis fn $name$(<const $r: usize>)?($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if hardware_fma() {
                #[target_feature(enable = "fma")]
                fn fma$(<const $r: usize>)?($($arg: $ty),*) $(-> $ret)? {
                    $body$(::<$r>)?($($arg),*)
                }
                // SAFETY: the CPU executes FMA instructions (checked above).
                return unsafe { fma$(::<$r>)?($($arg),*) };
            }
            $body$(::<$r>)?($($arg),*)
        }
    };
}

twice! {
    /// `out[i] = Σ_p x[p] · rows[i·x.len() + p]`: one row of an NT GEMM
    /// (`x` against each row of the row-major `rows`), every entry one
    /// chain of fused multiply-adds in `p` order from `+0.0`.
    ///
    /// # Panics
    /// If `rows` is not `out.len()` rows of `x.len()` elements.
    pub fn dot_rows(x: &[f32], rows: &[f32], out: &mut [f32]) = dot_rows_body;
}

#[inline(always)]
fn dot_rows_body(x: &[f32], rows: &[f32], out: &mut [f32]) {
    // Chains of eight rows run interleaved: each stays sequential, so the
    // bits are those of one chain at a time, but eight are in flight to
    // cover the multiply-add latency.
    const CHAINS: usize = 8;
    let k = x.len();
    assert_eq!(rows.len(), out.len() * k, "rows do not match out and x");
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut outs = out.chunks_exact_mut(CHAINS);
    let mut groups = rows.chunks_exact(CHAINS * k);
    for (o, group) in (&mut outs).zip(&mut groups) {
        let rs: [&[f32]; CHAINS] = std::array::from_fn(|i| &group[i * k..(i + 1) * k]);
        let mut acc = [0.0f32; CHAINS];
        for (p, &xp) in x.iter().enumerate() {
            for (acc_i, r) in acc.iter_mut().zip(rs) {
                *acc_i = xp.mul_add(r[p], *acc_i);
            }
        }
        o.copy_from_slice(&acc);
    }
    let tail = groups.remainder().chunks_exact(k);
    for (o, row) in outs.into_remainder().iter_mut().zip(tail) {
        *o = x
            .iter()
            .zip(row)
            .fold(0.0, |acc, (&a, &b)| a.mul_add(b, acc));
    }
}

twice! {
    /// `y[j] = a · x[j] + y[j]` for every lane, one rounding each: one
    /// contraction step of a GEMM row.
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) = axpy_body;
}

#[inline(always)]
fn axpy_body(a: f32, x: &[f32], y: &mut [f32]) {
    for (y_v, &x_v) in y.iter_mut().zip(x) {
        *y_v = a.mul_add(x_v, *y_v);
    }
}

twice! {
    /// The portable GEMM micro-kernel: an `R × NR` tile of `C` over one
    /// packed B panel slice `b` (`len = b.len() / NR ≥ 1` contraction
    /// steps). `a` starts at the tile's first row and contraction step,
    /// element `(r, p)` at `r·rs + p·ps`; `c` starts at the tile's corner,
    /// rows at stride `ldc`. `first` starts every accumulator from `+0.0`
    /// instead of `c`.
    pub(crate) fn tile<const R: usize>(
        a: &[f32], rs: usize, ps: usize, b: &[f32], c: &mut [f32], ldc: usize, first: bool
    ) = tile_body;
}

#[inline(always)]
fn tile_body<const R: usize>(
    a: &[f32],
    rs: usize,
    ps: usize,
    b: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
) {
    let len = b.len() / NR;
    // Each row sliced once, to its last element: indexing `a` per read
    // instead slowed the unit-stride (NN) case by up to 60 %.
    let rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * rs..][..(len - 1) * ps + 1]);
    let mut acc = [[0.0f32; NR]; R];
    if !first {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&c[r * ldc..r * ldc + NR]);
        }
    }
    for (p, brow) in b.chunks_exact(NR).enumerate() {
        for (acc_r, row) in acc.iter_mut().zip(rows) {
            let av = row[p * ps];
            // Lane-independent: the compiler may vectorize across lanes
            // but cannot reassociate within one.
            for (acc_v, &b_v) in acc_r.iter_mut().zip(brow) {
                *acc_v = av.mul_add(b_v, *acc_v);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(acc_r);
    }
}

twice! {
    /// The NN zero-skip kernel: one row of [`tile`] that skips every
    /// exact-zero `a` term, as [`crate::gemm_reference`] does. Runs on
    /// every ISA, for the rows whose A row holds a zero.
    pub(crate) fn skip_row(a: &[f32], b: &[f32], c: &mut [f32], first: bool) = skip_row_body;
}

#[inline(always)]
fn skip_row_body(a: &[f32], b: &[f32], c: &mut [f32], first: bool) {
    let c = &mut c[..NR];
    let mut acc = [0.0f32; NR];
    if !first {
        acc.copy_from_slice(c);
    }
    for (&av, brow) in a.iter().zip(b.chunks_exact(NR)) {
        if av == 0.0 {
            continue;
        }
        for (acc_v, &b_v) in acc.iter_mut().zip(brow) {
            *acc_v = av.mul_add(b_v, *acc_v);
        }
    }
    c.copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn both_compilations_give_the_same_bits() {
        // Random terms, plus an underflowing first product that leaves a
        // -0.0 accumulator: the case where FMA and mul-then-add differ.
        let (r, k) = (5, 37);
        let mut a = Matrix::random(r, k, 1.0, 1).into_vec();
        let mut b = Matrix::random(k, NR, 1.0, 2).into_vec();
        a[0] = -1e-30;
        a[3] = 0.0;
        b[..NR].fill(1e-30);
        let x = &b[NR..2 * NR];

        // Eleven rows: one interleaved group of eight and a tail of three.
        let (mut fused, mut plain) = (vec![0.0; 11], vec![0.0; 11]);
        dot_rows(&a[..7], &b[..77], &mut fused);
        dot_rows_body(&a[..7], &b[..77], &mut plain);
        assert_eq!(bits(&fused), bits(&plain));
        for (i, &v) in fused.iter().enumerate() {
            let chain = a[..7]
                .iter()
                .zip(&b[i * 7..(i + 1) * 7])
                .fold(0.0f32, |acc, (&x, &y)| x.mul_add(y, acc));
            assert_eq!(v.to_bits(), chain.to_bits(), "row {i}");
        }
        let (mut fused, mut plain) = (b[..NR].to_vec(), b[..NR].to_vec());
        axpy(0.3, x, &mut fused);
        axpy_body(0.3, x, &mut plain);
        assert_eq!(bits(&fused), bits(&plain));

        for first in [true, false] {
            let seed = Matrix::random(r, NR, 1.0, 3).into_vec();
            let (mut fused, mut plain) = (seed.clone(), seed.clone());
            tile::<5>(&a, k, 1, &b, &mut fused, NR, first);
            tile_body::<5>(&a, k, 1, &b, &mut plain, NR, first);
            assert_eq!(bits(&fused), bits(&plain), "tile, first {first}");
            let (mut fused, mut plain) = (seed[..NR].to_vec(), seed[..NR].to_vec());
            skip_row(&a[..k], &b, &mut fused, first);
            skip_row_body(&a[..k], &b, &mut plain, first);
            assert_eq!(bits(&fused), bits(&plain), "skip row, first {first}");
        }
    }

    #[test]
    fn a_term_is_one_rounding_not_two() {
        // -1 + (1 + 2^-12)^2 = 2^-11 + 2^-24 exactly. Mul-then-add rounds
        // the square to 1 + 2^-11 first and loses the 2^-24.
        let x = 1.0 + 2f32.powi(-12);
        let exact = 2f32.powi(-11) + 2f32.powi(-24);
        let mut out = [0.0];
        dot_rows(&[1.0, x], &[-1.0, x], &mut out);
        assert_eq!(out[0], exact);
        assert_ne!(-1.0 + x * x, exact);
    }
}
