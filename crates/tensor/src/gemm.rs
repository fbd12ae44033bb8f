//! GEMM entry points: blocked/packed kernel hierarchy with distinct
//! NN / NT / TN handling, plus the retained naive tier.
//!
//! Section V-C of the paper observed that BLAS libraries ship kernels of
//! very different quality for the three operand-transposition modes (on
//! Frontier a TN matmul ran at 6% of peak vs 55% for NN), and built an
//! automated tuner that times all modes on the first batch. This module
//! reproduces that situation honestly on CPU with **two tiers**:
//!
//! * The **blocked tier** (default): cache-blocked mc/kc/nc loops over
//!   register-tiled micro-kernels reading packed B panels
//!   ([`crate::pack`] and the private `kernel` module). NT packs `Bᵀ` panels so the
//!   dot-product reduction becomes the same broadcast-multiply-add loop
//!   as NN; TN reads its `k × m` A in place through two strides, so the
//!   rows of one contraction step are one contiguous run. The dense
//!   tiles run on the best [`Isa`] the CPU has: AVX-512 FMA intrinsics
//!   with the `simd` feature, the portable kernel otherwise.
//! * The **naive tier** ([`gemm_into_naive`], [`gemm_tn_naive`]): the
//!   pre-blocking loops, kept as the alternative the `axonn-core` tuner
//!   times against the blocked tier (TN-naive is the stride-`m` column
//!   walk, the kind of kernel the paper tuned around) and as the
//!   "scalar" column of the bench drift tables.
//!
//! **Arithmetic contract.** Every tier is bitwise identical to
//! [`gemm_reference`]: each `C[i][j]` is one correctly rounded fused
//! multiply-add per term, in contraction order, from `+0.0`
//! ([`crate::fused`]); NN products skip every exact-zero A term (which
//! makes causal-mask zeros free and `0·inf` harmless). So results do not
//! depend on the ISA, the tile a row landed in, the block sizes, the
//! thread split, or whether B was packed per call or once.
//!
//! All kernels accumulate in `f32`; [`gemm_bf16`] quantizes operands to
//! the bf16 grid *during packing* (no intermediate matrix copies), which
//! is how the mixed-precision training mode reaches these kernels.

use crate::fused;
use crate::kernel::{self, Isa};
use crate::matrix::Matrix;
use crate::pack::{self, BLayout, BlockSizes, PackedB};
use rayon::prelude::*;
use std::cell::Cell;

/// Operand transposition mode of a matrix multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatMode {
    /// `C = A · B`
    NN,
    /// `C = A · Bᵀ`
    NT,
    /// `C = Aᵀ · B`
    TN,
}

impl MatMode {
    pub const ALL: [MatMode; 3] = [MatMode::NN, MatMode::NT, MatMode::TN];

    /// Output shape for operand shapes `a` and `b` under this mode.
    ///
    /// # Panics
    /// If the contracted dimensions do not match.
    pub fn output_shape(self, a: (usize, usize), b: (usize, usize)) -> (usize, usize) {
        match self {
            MatMode::NN => {
                assert_eq!(a.1, b.0, "NN: A cols must equal B rows");
                (a.0, b.1)
            }
            MatMode::NT => {
                assert_eq!(a.1, b.1, "NT: A cols must equal B cols");
                (a.0, b.0)
            }
            MatMode::TN => {
                assert_eq!(a.0, b.0, "TN: A rows must equal B rows");
                (a.1, b.1)
            }
        }
    }
}

impl std::fmt::Display for MatMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MatMode::NN => "NN",
            MatMode::NT => "NT",
            MatMode::TN => "TN",
        };
        f.write_str(s)
    }
}

/// The right-hand operand of a multiply: a matrix the call packs into
/// the thread-local panels, or panels packed once by [`PackedB::pack`].
/// The f32 blocked entry points take `impl Into<Rhs>`, so `&Matrix` and
/// `&PackedB` both work as their `b` argument.
#[derive(Debug, Clone, Copy)]
pub enum Rhs<'a> {
    Matrix(&'a Matrix),
    Packed(&'a PackedB),
}

impl<'a> From<&'a Matrix> for Rhs<'a> {
    fn from(b: &'a Matrix) -> Self {
        Rhs::Matrix(b)
    }
}

impl<'a> From<&'a PackedB> for Rhs<'a> {
    fn from(b: &'a PackedB) -> Self {
        Rhs::Packed(b)
    }
}

impl Rhs<'_> {
    /// Output shape of `a · self` under `mode`.
    ///
    /// # Panics
    /// If the contracted dimensions do not match, or a packed operand
    /// was packed for another mode.
    fn output_shape(&self, mode: MatMode, a: (usize, usize)) -> (usize, usize) {
        match self {
            Rhs::Matrix(b) => mode.output_shape(a, b.shape()),
            Rhs::Packed(bp) => {
                assert_eq!(bp.mode, mode, "operand packed for {}", bp.mode);
                let (m, k) = match mode {
                    MatMode::NN | MatMode::NT => a,
                    MatMode::TN => (a.1, a.0),
                };
                assert_eq!(k, bp.k, "{mode}: A contracts {k}, packed B {}", bp.k);
                (m, bp.n)
            }
        }
    }
}

/// Pack/kernel accounting for one multiply, surfaced on trace GEMM spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmStats {
    /// Bytes written into the thread-local pack buffers (B panels, plus
    /// the A copy of a bf16 product). A pre-packed B contributes none.
    pub packed_bytes: u64,
    /// Number of NR-wide B panels packed by this call.
    pub panels: u32,
    /// Whether an explicit-vector (AVX-512) micro-kernel ran the dense
    /// tiles; false on the portable kernel.
    pub simd: bool,
}

/// Per-thread accumulated GEMM wall time, split by operand mode; drained
/// by the step benchmark to report compute-phase medians.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GemmPhase {
    pub nn_seconds: f64,
    pub nt_seconds: f64,
    pub tn_seconds: f64,
    pub calls: u64,
    pub packed_bytes: u64,
    pub panels: u64,
}

impl GemmPhase {
    pub fn total_seconds(&self) -> f64 {
        self.nn_seconds + self.nt_seconds + self.tn_seconds
    }

    pub fn mode_seconds(&self, mode: MatMode) -> f64 {
        match mode {
            MatMode::NN => self.nn_seconds,
            MatMode::NT => self.nt_seconds,
            MatMode::TN => self.tn_seconds,
        }
    }
}

thread_local! {
    static PHASE: Cell<GemmPhase> = const {
        Cell::new(GemmPhase {
            nn_seconds: 0.0,
            nt_seconds: 0.0,
            tn_seconds: 0.0,
            calls: 0,
            packed_bytes: 0,
            panels: 0,
        })
    };
}

/// Drain this thread's accumulated GEMM phase counters (resets to zero).
pub fn take_gemm_phase() -> GemmPhase {
    PHASE.with(|c| c.replace(GemmPhase::default()))
}

fn record_phase(mode: MatMode, seconds: f64, stats: &GemmStats) {
    PHASE.with(|c| {
        let mut p = c.get();
        match mode {
            MatMode::NN => p.nn_seconds += seconds,
            MatMode::NT => p.nt_seconds += seconds,
            MatMode::TN => p.tn_seconds += seconds,
        }
        p.calls += 1;
        p.packed_bytes += stats.packed_bytes;
        p.panels += stats.panels as u64;
        c.set(p);
    });
}

fn timed(mode: MatMode, f: impl FnOnce() -> GemmStats) -> GemmStats {
    let t0 = std::time::Instant::now();
    let stats = f();
    record_phase(mode, t0.elapsed().as_secs_f64(), &stats);
    stats
}

/// Multiply with the given mode, allocating the output.
pub fn gemm<'a>(mode: MatMode, a: &Matrix, b: impl Into<Rhs<'a>>) -> Matrix {
    let b = b.into();
    let (m, n) = b.output_shape(mode, a.shape());
    let mut c = Matrix::zeros(m, n);
    gemm_into(mode, a, b, &mut c);
    c
}

/// Multiply with the given mode into a preallocated output (overwritten).
///
/// # Panics
/// If `c` does not have the shape implied by `mode`.
pub fn gemm_into<'a>(mode: MatMode, a: &Matrix, b: impl Into<Rhs<'a>>, c: &mut Matrix) {
    let _ = gemm_into_stats(mode, a, b, c);
}

/// [`gemm_into`] returning the pack/kernel accounting for trace spans.
pub fn gemm_into_stats<'a>(
    mode: MatMode,
    a: &Matrix,
    b: impl Into<Rhs<'a>>,
    c: &mut Matrix,
) -> GemmStats {
    gemm_into_with(mode, a, b, c, BlockSizes::default(), Isa::BEST)
}

/// Blocked multiply with explicit block sizes, on the best ISA the host
/// runs at or below `cap` (`Isa::BEST`: no cap). Test/bench hook: tiny
/// blocks exercise every block boundary; a cap measures one kernel and
/// proves every ISA bitwise-equal in one binary.
pub fn gemm_into_with<'a>(
    mode: MatMode,
    a: &Matrix,
    b: impl Into<Rhs<'a>>,
    c: &mut Matrix,
    blocks: BlockSizes,
    cap: Isa,
) -> GemmStats {
    let b = b.into();
    timed(mode, || gemm_blocked(mode, a, b, c, false, blocks, cap))
}

/// Mixed-precision multiply: quantize both operands to the bf16 grid,
/// multiply with f32 accumulation. This is the entry point used by the
/// training engine when `precision = Bf16Mixed`. Quantization is fused
/// into the packing pass — no full-matrix copies are allocated.
pub fn gemm_bf16(mode: MatMode, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, n) = mode.output_shape(a.shape(), b.shape());
    let mut c = Matrix::zeros(m, n);
    let _ = gemm_bf16_into(mode, a, b, &mut c);
    c
}

/// [`gemm_bf16`] into a preallocated output, returning pack accounting.
pub fn gemm_bf16_into(mode: MatMode, a: &Matrix, b: &Matrix, c: &mut Matrix) -> GemmStats {
    timed(mode, || {
        gemm_blocked(mode, a, b.into(), c, true, BlockSizes::default(), Isa::BEST)
    })
}

/// The blocked tier: pack B into panels (quantizing if asked) unless the
/// caller already did, take the A view (the caller's slice, or a
/// quantized copy in the same layout) with its two strides, then run the
/// register-tiled engine. Zero-skip row flags are computed on the A view
/// actually fed to the kernels, so f32 and bf16 agree on what "zero"
/// means.
fn gemm_blocked(
    mode: MatMode,
    a: &Matrix,
    b: Rhs<'_>,
    c: &mut Matrix,
    quantize: bool,
    blocks: BlockSizes,
    cap: Isa,
) -> GemmStats {
    let (m, n) = b.output_shape(mode, a.shape());
    assert_eq!(c.shape(), (m, n), "output shape mismatch for {mode}");
    let k = match mode {
        MatMode::NN | MatMode::NT => a.cols(),
        MatMode::TN => a.rows(),
    };
    if m == 0 || n == 0 {
        return GemmStats::default();
    }
    if k == 0 {
        c.as_mut_slice().fill(0.0);
        return GemmStats::default();
    }
    let blocks = blocks.normalized();
    let isa = Isa::best_up_to(cap);
    let workers = kernel::split_workers(m * n * k);
    // Element `(i, p)` of A at `i·rs + p·ps`: TN reads its `k × m`
    // operand in place, one contiguous run of rows per contraction step.
    let (rs, ps) = match mode {
        MatMode::NN | MatMode::NT => (k, 1),
        MatMode::TN => (1, m),
    };
    let c_slice = c.as_mut_slice();
    // Everything downstream of the packed panels: the A bytes it packed.
    let mut kernels = |bp: &[f32]| {
        pack::with_a_view(a.as_slice(), quantize, |av| {
            let mut run = |flags: Option<&[u8]>| {
                let g = kernel::Gemm {
                    a: av,
                    rs,
                    ps,
                    bp,
                    flags,
                    m,
                    k,
                    n,
                    blocks,
                    isa,
                };
                kernel::run(c_slice, &g, workers)
            };
            if mode == MatMode::NN {
                pack::with_row_flags(av, m, k, |flags| run(Some(flags)))
            } else {
                run(None)
            }
        })
    };
    let simd = isa != Isa::Scalar;
    match b {
        Rhs::Matrix(b) => {
            let (panels, b_bytes, (a_bytes, ())) =
                pack::with_packed_b(b.as_slice(), BLayout::of(mode), k, n, quantize, kernels);
            GemmStats {
                packed_bytes: b_bytes + a_bytes,
                panels: panels as u32,
                simd,
            }
        }
        Rhs::Packed(bp) => {
            assert!(!quantize, "pre-packed operands are f32 only");
            let (a_bytes, ()) = kernels(&bp.panels);
            GemmStats {
                packed_bytes: a_bytes,
                panels: 0,
                simd,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Naive tier: the pre-blocking kernels, kept as a live alternative.
// ---------------------------------------------------------------------------

/// Multiply with the naive (unblocked, unpacked) kernels. This is the
/// tier the automated tuner times the packed kernels against; TN in
/// particular keeps its deliberately bad stride-`m` column walk.
pub fn gemm_into_naive(mode: MatMode, a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let expect = mode.output_shape(a.shape(), b.shape());
    assert_eq!(c.shape(), expect, "output shape mismatch for {mode}");
    let _ = timed(mode, || {
        match mode {
            MatMode::NN => naive_nn(a, b, c),
            MatMode::NT => naive_nt(a, b, c),
            MatMode::TN => naive_tn(a, b, c),
        }
        GemmStats::default()
    });
}

/// Naive TN multiply, allocating the output — the tuner's "bad kernel"
/// baseline (`C = Aᵀ·B` via a column-strided walk over `A`).
pub fn gemm_tn_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, n) = MatMode::TN.output_shape(a.shape(), b.shape());
    let mut c = Matrix::zeros(m, n);
    gemm_into_naive(MatMode::TN, a, b, &mut c);
    c
}

/// Run `body(i, row i of C)` over every row: serially, or in one
/// contiguous band of rows per kernel thread when the product is large
/// enough to split — the blocked tier's predicate and thread count.
fn for_each_row(c: &mut Matrix, macs: usize, body: impl Fn((usize, &mut [f32])) + Sync) {
    let (m, n) = c.shape();
    let workers = kernel::split_workers(macs);
    if workers > 1 {
        let band = m.div_ceil(workers);
        c.as_mut_slice()
            .par_chunks_mut(band * n)
            .enumerate()
            .for_each(|(bi, rows)| {
                for (r, row) in rows.chunks_mut(n).enumerate() {
                    body((bi * band + r, row));
                }
            });
    } else {
        c.as_mut_slice().chunks_mut(n).enumerate().for_each(body);
    }
}

/// Naive NN: for each row of C, accumulate k rank-1 row updates with a
/// unit-stride inner loop, skipping exact-zero A terms as every NN tier
/// does.
fn naive_nn(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.cols();
    let body = |(i, c_row): (usize, &mut [f32])| {
        c_row.fill(0.0);
        for (p, &a_ip) in a.row(i).iter().enumerate() {
            if a_ip != 0.0 {
                fused::axpy(a_ip, b.row(p), c_row);
            }
        }
    };
    for_each_row(c, m * n * k, body);
}

/// Naive NT: C[i][j] = dot(A row i, B row j) — a scalar reduction.
fn naive_nt(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (m, k) = a.shape();
    let n = b.rows();
    let body = |(i, c_row): (usize, &mut [f32])| fused::dot_rows(a.row(i), b.as_slice(), c_row);
    for_each_row(c, m * n * k, body);
}

/// Naive TN: C[i][j] = sum_p A[p][i] * B[p][j] with a column-strided walk
/// over `A` — stride `m` per step — and over `B`.
fn naive_tn(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    let (k, m) = a.shape();
    let n = b.cols();
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    let body = |(i, c_row): (usize, &mut [f32])| {
        for (j, c_v) in c_row.iter_mut().enumerate() {
            *c_v = fused::dot_strided(&a_data[i..], m, &b_data[j..], n);
        }
    };
    for_each_row(c, m * n * k, body);
}

/// Naive triple-loop reference: the bitwise oracle for every other
/// kernel in this module. Each `C[i][j]` is a chain of `f32::mul_add`
/// over `p` starting from `+0.0`; NN skips exact-zero A terms. Written
/// plainly, so off hosts with hardware FMA it runs on software `fmaf`
/// and is slow — it is only the oracle.
pub fn gemm_reference(mode: MatMode, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, n) = mode.output_shape(a.shape(), b.shape());
    let k = match mode {
        MatMode::NN | MatMode::NT => a.cols(),
        MatMode::TN => a.rows(),
    };
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                let av = match mode {
                    MatMode::NN | MatMode::NT => a[(i, p)],
                    MatMode::TN => a[(p, i)],
                };
                let bv = match mode {
                    MatMode::NN | MatMode::TN => b[(p, j)],
                    MatMode::NT => b[(j, p)],
                };
                if mode == MatMode::NN && av == 0.0 {
                    continue;
                }
                acc = av.mul_add(bv, acc);
            }
            c[(i, j)] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mats(m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        (
            Matrix::random(m, k, 1.0, seed),
            Matrix::random(k, n, 1.0, seed + 1),
            Matrix::random(n, k, 1.0, seed + 2),
        )
    }

    fn operands(mode: MatMode, m: usize, k: usize, n: usize, seed: u64) -> (Matrix, Matrix) {
        match mode {
            MatMode::NN => (
                Matrix::random(m, k, 1.0, seed),
                Matrix::random(k, n, 1.0, seed + 1),
            ),
            MatMode::NT => (
                Matrix::random(m, k, 1.0, seed),
                Matrix::random(n, k, 1.0, seed + 1),
            ),
            MatMode::TN => (
                Matrix::random(k, m, 1.0, seed),
                Matrix::random(k, n, 1.0, seed + 1),
            ),
        }
    }

    #[test]
    fn nn_matches_reference() {
        let (a, b, _) = mats(13, 7, 11, 1);
        let c = gemm(MatMode::NN, &a, &b);
        assert_eq!(c, gemm_reference(MatMode::NN, &a, &b));
    }

    #[test]
    fn nt_matches_reference() {
        let (a, _, bt) = mats(13, 7, 11, 2);
        let c = gemm(MatMode::NT, &a, &bt);
        assert_eq!(c, gemm_reference(MatMode::NT, &a, &bt));
    }

    #[test]
    fn tn_matches_reference() {
        let at = Matrix::random(7, 13, 1.0, 3);
        let b = Matrix::random(7, 11, 1.0, 4);
        let c = gemm(MatMode::TN, &at, &b);
        assert_eq!(c, gemm_reference(MatMode::TN, &at, &b));
    }

    #[test]
    fn naive_tier_matches_reference_bitwise() {
        for mode in MatMode::ALL {
            let (a, b) = operands(mode, 13, 9, 11, 40);
            let mut c = Matrix::zeros(13, 11);
            gemm_into_naive(mode, &a, &b, &mut c);
            assert_eq!(c, gemm_reference(mode, &a, &b), "naive {mode}");
        }
        let at = Matrix::random(9, 5, 1.0, 44);
        let b = Matrix::random(9, 6, 1.0, 45);
        assert_eq!(gemm_tn_naive(&at, &b), gemm_reference(MatMode::TN, &at, &b));
    }

    #[test]
    fn tiny_blocks_cross_every_boundary() {
        // Block sizes far smaller than the shape force multiple kc
        // spills, tail panels, and odd row tiles in one multiply.
        let blocks = BlockSizes {
            mc: 5,
            kc: 3,
            nc: 16,
        };
        for mode in MatMode::ALL {
            let (a, b) = operands(mode, 17, 19, 23, 50);
            let mut c = Matrix::zeros(17, 23);
            let stats = gemm_into_with(mode, &a, &b, &mut c, blocks, Isa::BEST);
            assert_eq!(c, gemm_reference(mode, &a, &b), "blocked {mode}");
            assert!(stats.panels > 0);
            assert!(stats.packed_bytes > 0);
        }
    }

    #[test]
    fn every_isa_the_host_runs_matches_the_reference_bits() {
        for mode in MatMode::ALL {
            let (a, b) = operands(mode, 21, 33, 18, 60);
            let oracle = gemm_reference(mode, &a, &b).to_bits();
            for isa in Isa::ALL.into_iter().filter(|isa| isa.runs_here()) {
                let mut c = Matrix::zeros(21, 18);
                let stats = gemm_into_with(mode, &a, &b, &mut c, BlockSizes::default(), isa);
                assert_eq!(c.to_bits(), oracle, "{mode} on {isa:?}");
                assert_eq!(stats.simd, isa != Isa::Scalar);
            }
        }
    }

    #[test]
    fn zero_rows_take_skip_path_bitwise() {
        let mut a = Matrix::random(12, 10, 1.0, 70);
        // Whole zero rows plus sprinkled zeros exercise both the row
        // flag and the per-element skip.
        for p in 0..10 {
            a[(3, p)] = 0.0;
        }
        a[(0, 2)] = 0.0;
        a[(7, 9)] = 0.0;
        let b = Matrix::random(10, 9, 1.0, 71);
        assert_eq!(
            gemm(MatMode::NN, &a, &b).to_bits(),
            gemm_reference(MatMode::NN, &a, &b).to_bits()
        );
    }

    #[test]
    fn skipped_zero_after_an_underflowed_product_keeps_the_sign() {
        // The first fused product, -1e-60, rounds to -0.0. Skipping the
        // zero term leaves -0.0; adding `0·1` would give +0.0. Every NN
        // tier and the oracle skip it, and `==` could not tell them apart.
        let a = Matrix::from_vec(1, 2, vec![-1e-30, 0.0]);
        let b = Matrix::from_vec(2, 1, vec![1e-30, 1.0]);
        let oracle = gemm_reference(MatMode::NN, &a, &b);
        assert_eq!(oracle.as_slice()[0].to_bits(), 0x8000_0000);
        for isa in Isa::ALL.into_iter().filter(|isa| isa.runs_here()) {
            let mut c = Matrix::zeros(1, 1);
            let _ = gemm_into_with(MatMode::NN, &a, &b, &mut c, BlockSizes::default(), isa);
            assert_eq!(c.to_bits(), oracle.to_bits(), "{isa:?}");
        }
        let mut c = Matrix::zeros(1, 1);
        gemm_into_naive(MatMode::NN, &a, &b, &mut c);
        assert_eq!(c.to_bits(), oracle.to_bits(), "naive");
        // And `0·inf` is skipped, not NaN.
        let b_inf = Matrix::from_vec(2, 1, vec![1.0, f32::INFINITY]);
        assert_eq!(gemm(MatMode::NN, &a, &b_inf).as_slice(), &[-1e-30]);
        assert_eq!(
            gemm_reference(MatMode::NN, &a, &b_inf).to_bits(),
            gemm(MatMode::NN, &a, &b_inf).to_bits()
        );
    }

    #[test]
    fn deep_k_spills_across_kc_blocks() {
        // k > default kc: partial sums round-trip through C exactly.
        let (a, b) = operands(MatMode::NN, 5, 600, 33, 80);
        assert_eq!(
            gemm(MatMode::NN, &a, &b),
            gemm_reference(MatMode::NN, &a, &b)
        );
    }

    #[test]
    fn modes_agree_via_explicit_transposes() {
        // NT(A, B) == NN(A, Bᵀ) and TN(A, B) == NN(Aᵀ, B).
        let a = Matrix::random(9, 6, 1.0, 5);
        let b = Matrix::random(8, 6, 1.0, 6);
        let nt = gemm(MatMode::NT, &a, &b);
        let nn = gemm(MatMode::NN, &a, &b.transposed());
        assert!(nt.approx_eq(&nn, 1e-5));

        let a2 = Matrix::random(6, 9, 1.0, 7);
        let b2 = Matrix::random(6, 8, 1.0, 8);
        let tn = gemm(MatMode::TN, &a2, &b2);
        let nn2 = gemm(MatMode::NN, &a2.transposed(), &b2);
        assert!(tn.approx_eq(&nn2, 1e-5));
    }

    #[test]
    fn identity_multiplication() {
        let a = Matrix::random(5, 5, 1.0, 9);
        let i = Matrix::eye(5);
        assert!(gemm(MatMode::NN, &a, &i).approx_eq(&a, 1e-6));
        assert!(gemm(MatMode::NN, &i, &a).approx_eq(&a, 1e-6));
    }

    #[test]
    fn split_products_match_reference_for_every_thread_count() {
        // One shape just above the split threshold, with a ragged last
        // band (m is not a multiple of MR × workers), and one just below
        // it, which must stay serial whatever the thread count. An
        // installed pool is per thread, so sibling tests are not disturbed.
        // TN bands start at column `row0` of the strided `k × m` operand.
        let (k, n) = (512, 512);
        for mode in [MatMode::NN, MatMode::TN] {
            for (m, splits) in [(258, true), (255, false)] {
                let macs = m * k * n;
                assert_eq!(macs >= kernel::PAR_THRESHOLD, splits);
                let (a, b) = operands(mode, m, k, n, 10);
                let packed = PackedB::pack(mode, &b);
                let oracle = gemm_reference(mode, &a, &b).to_bits();
                for threads in [1, 2, 4] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    pool.install(|| {
                        let expect = if splits { threads } else { 1 };
                        assert_eq!(kernel::split_workers(macs), expect);
                        for isa in Isa::ALL.into_iter().filter(|isa| isa.runs_here()) {
                            let mut c = Matrix::zeros(m, n);
                            let blocks = BlockSizes::default();
                            let _ = gemm_into_with(mode, &a, &b, &mut c, blocks, isa);
                            assert_eq!(c.to_bits(), oracle, "{mode}, {threads} threads, {isa:?}");
                        }
                        let packed_c = gemm(mode, &a, &packed);
                        assert_eq!(packed_c.to_bits(), oracle, "{mode} packed, {threads}");
                        let mut c = Matrix::zeros(m, n);
                        gemm_into_naive(mode, &a, &b, &mut c);
                        assert_eq!(c.to_bits(), oracle, "{mode} naive, {threads} threads");
                    });
                }
            }
        }
    }

    #[test]
    fn output_shapes() {
        assert_eq!(MatMode::NN.output_shape((2, 3), (3, 5)), (2, 5));
        assert_eq!(MatMode::NT.output_shape((2, 3), (5, 3)), (2, 5));
        assert_eq!(MatMode::TN.output_shape((3, 2), (3, 5)), (2, 5));
    }

    #[test]
    #[should_panic(expected = "NN: A cols must equal B rows")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 5);
        let _ = gemm(MatMode::NN, &a, &b);
    }

    #[test]
    fn gemm_bf16_quantizes_operands() {
        // With operands exactly on the bf16 grid, bf16 gemm equals f32 gemm.
        let mut a = Matrix::random(8, 8, 1.0, 12);
        let mut b = Matrix::random(8, 8, 1.0, 13);
        a.round_bf16();
        b.round_bf16();
        let full = gemm(MatMode::NN, &a, &b);
        let mixed = gemm_bf16(MatMode::NN, &a, &b);
        assert_eq!(full, mixed);
    }

    #[test]
    fn gemm_bf16_fused_pack_matches_quantize_then_gemm() {
        // The fused quantize-on-pack path must be bitwise identical to
        // materializing bf16 copies first — for every mode.
        for mode in MatMode::ALL {
            let (a, b) = operands(mode, 11, 14, 9, 90);
            let fused = gemm_bf16(mode, &a, &b);
            let staged = gemm_reference(mode, &a.to_bf16(), &b.to_bf16());
            assert_eq!(fused, staged, "{mode}");
        }
    }

    #[test]
    fn gemm_bf16_error_is_bounded() {
        let a = Matrix::random(16, 16, 1.0, 14);
        let b = Matrix::random(16, 16, 1.0, 15);
        let full = gemm(MatMode::NN, &a, &b);
        let mixed = gemm_bf16(MatMode::NN, &a, &b);
        // Two operands each within 2^-8 relative error, k=16 accumulation:
        // generous bound of 0.05 absolute for unit-scale inputs.
        assert!(full.max_abs_diff(&mixed) < 0.05);
    }

    #[test]
    fn zero_sized_edges() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        let c = gemm(MatMode::NN, &a, &b);
        assert_eq!(c.shape(), (0, 3));
        // k == 0: the contraction is empty, C must be all +0.0 (and a
        // stale output must be overwritten).
        let a0 = Matrix::zeros(3, 0);
        let b0 = Matrix::zeros(0, 4);
        let mut c0 = Matrix::random(3, 4, 1.0, 16);
        gemm_into(MatMode::NN, &a0, &b0, &mut c0);
        assert_eq!(c0, Matrix::zeros(3, 4));
    }

    #[test]
    fn phase_accumulator_drains() {
        let _ = take_gemm_phase();
        let (a, b) = operands(MatMode::NT, 8, 8, 8, 17);
        let _ = gemm(MatMode::NT, &a, &b);
        let phase = take_gemm_phase();
        assert_eq!(phase.calls, 1);
        assert!(phase.nt_seconds > 0.0);
        assert_eq!(phase.nn_seconds, 0.0);
        assert!(phase.packed_bytes > 0);
        // Drained: a second take sees zeros.
        assert_eq!(take_gemm_phase(), GemmPhase::default());
    }

    #[test]
    fn prepacked_f32_call_counts_as_a_call_that_packs_nothing() {
        let _ = take_gemm_phase();
        for mode in MatMode::ALL {
            let (a, b) = operands(mode, 10, 7, 33, 20);
            let packed = PackedB::pack(mode, &b);
            let mut c = Matrix::zeros(10, 33);
            let stats = gemm_into_stats(mode, &a, &packed, &mut c);
            assert_eq!(c, gemm_reference(mode, &a, &b), "{mode}");
            assert_eq!((stats.panels, stats.packed_bytes), (0, 0), "{mode}");
            let phase = take_gemm_phase();
            assert_eq!((phase.calls, phase.packed_bytes), (1, 0), "{mode}");
            assert!(phase.mode_seconds(mode) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "operand packed for NT")]
    fn prepacked_operand_is_tied_to_its_mode() {
        let b = Matrix::random(6, 6, 1.0, 1);
        let _ = gemm(MatMode::NN, &b, &PackedB::pack(MatMode::NT, &b));
    }

    #[test]
    #[should_panic(expected = "NN: A contracts 5, packed B 6")]
    fn prepacked_contraction_mismatch_panics() {
        let a = Matrix::zeros(2, 5);
        let b = Matrix::zeros(6, 4);
        let _ = gemm(MatMode::NN, &a, &PackedB::pack(MatMode::NN, &b));
    }

    #[test]
    fn stats_match_pack_geometry() {
        for mode in MatMode::ALL {
            let (a, b) = operands(mode, 10, 7, 33, 20);
            let mut c = Matrix::zeros(10, 33);
            let stats = gemm_into_stats(mode, &a, &b, &mut c);
            let (panels, bytes) = crate::pack::pack_geometry(10, 7, 33);
            assert_eq!(stats.panels, panels, "{mode}");
            assert_eq!(stats.packed_bytes, bytes, "{mode}");
        }
    }
}
