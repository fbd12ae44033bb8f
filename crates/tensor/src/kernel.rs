//! Blocked GEMM engine: cache blocking, register-tiled micro-kernels,
//! and the AVX2 inner loop behind the `simd` feature.
//!
//! The engine walks `C` in `mc`-row blocks × `nc`-wide panel groups ×
//! `kc`-deep contracted slices, calling one of two micro-kernels per
//! (row-tile, panel): a dense `MR×NR` quad kernel, or a single-row
//! kernel that carries the NN zero-skip test. Both exist in scalar and
//! AVX2 forms that are **bitwise identical**: every `C[i][j]` is a
//! sequential mul-then-add over `p` starting from `+0.0`, exactly the
//! order of `gemm_reference`. The AVX2 path uses explicit
//! `_mm256_mul_ps` + `_mm256_add_ps` (never FMA — fused rounding would
//! break the oracle), and lane-parallelism across `j` is not a
//! reassociation, so SIMD and scalar agree bit-for-bit. Partial sums are
//! spilled to `C` between `kc` blocks; an f32 store/load round-trip is
//! exact, so blocking does not perturb results either.

use crate::pack::{BlockSizes, MR, NR};
use rayon::prelude::*;

/// Multiply-adds at and above which one product is split across kernel
/// threads — the one split predicate, for the blocked and naive tiers
/// alike. Set from the in-situ crossover, not a hot-cache microbenchmark
/// of one product (which put it at 6–8 M): whole
/// `TransformerStack::train_step` wall time (256 tokens, 2 layers, AVX2,
/// 2-core reference box; min–median of five interleaved runs), kernels
/// serial vs split from 8.4 M MACs, at three hidden sizes. In a step the
/// operands were just written by the issuing thread and the rayon
/// stand-in spawns scoped threads per region, so at hidden 128 (FC
/// products of 4–17 M MACs) splitting loses on every grid: 17.7–19.1 →
/// 19.4–21.6 ms on one rank, 12.1–12.5 → 16.1–16.7 and 12.9–13.3 →
/// 18.1–20.0 ms on two ranks with two threads each. At hidden 256
/// (17–67 M) it is a wash (61.8–71.2 vs 58.8–59.6 ms); at hidden 512
/// (67–268 M) the split wins on one rank, 245–249 → 181–208 ms. A
/// persistent, pinned worker pool did not rescue the small shapes, so
/// this is the predicate's to encode, not the spawn's. `256·512·512` is
/// the smallest hidden-512 FC product and four times the largest
/// hidden-128 one.
pub(crate) const PAR_THRESHOLD: usize = 256 * 512 * 512;

/// Workers for a product of `macs` multiply-adds: 1 below
/// [`PAR_THRESHOLD`] — without asking for a thread count, so a serial
/// product pays nothing — else the count of the rayon pool the calling
/// thread runs in (`axonn-exec` installs one of `cores / world_size`
/// per rank thread, so ranks do not fight each other for cores).
pub(crate) fn split_workers(macs: usize) -> usize {
    if macs < PAR_THRESHOLD {
        1
    } else {
        rayon::current_num_threads()
    }
}

/// One fully-packed multiply: `C[m×n] = Aview[m×k] · Bpacked`.
pub(crate) struct Gemm<'a> {
    /// `m × k` row-major A view (borrowed or packed).
    pub a: &'a [f32],
    /// Panel-major packed B (see [`crate::pack`]).
    pub bp: &'a [f32],
    /// Per-row "has a zero" flags (NN zero-skip); `None` disables skip.
    pub flags: Option<&'a [u8]>,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub blocks: BlockSizes,
    pub force_scalar: bool,
}

/// Whether the AVX2 micro-kernels are compiled in *and* the CPU has AVX2.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub(crate) fn avx2_available() -> bool {
    false
}

/// Run the blocked engine over `c`. Returns `true` when the AVX2 kernels
/// were used. `workers > 1` (see [`split_workers`]) splits `C` into that
/// many MR-aligned row bands — panel-group granularity inside each band.
pub(crate) fn run(c: &mut [f32], g: &Gemm<'_>, workers: usize) -> bool {
    debug_assert_eq!(c.len(), g.m * g.n);
    let simd = !g.force_scalar && avx2_available();
    if workers > 1 && g.m > MR {
        let chunk_rows = g.m.div_ceil(workers).div_ceil(MR) * MR;
        c.par_chunks_mut(chunk_rows * g.n)
            .enumerate()
            .for_each(|(ci, band)| band_loop(band, ci * chunk_rows, g, simd));
    } else {
        band_loop(c, 0, g, simd);
    }
    simd
}

/// Blocked loop nest over one contiguous band of `C` rows. `row0` maps
/// band-local rows to global A-view rows.
fn band_loop(band: &mut [f32], row0: usize, g: &Gemm<'_>, simd: bool) {
    let (n, k) = (g.n, g.k);
    let rows = band.len() / n;
    let panels = n.div_ceil(NR);
    let nc_panels = g.blocks.nc / NR;
    for ic in (0..rows).step_by(g.blocks.mc) {
        let ic_end = (ic + g.blocks.mc).min(rows);
        for jc in (0..panels).step_by(nc_panels) {
            let jc_end = (jc + nc_panels).min(panels);
            for pc in (0..k).step_by(g.blocks.kc) {
                let pc_end = (pc + g.blocks.kc).min(k);
                let first = pc == 0;
                for jp in jc..jc_end {
                    let bpanel = &g.bp[jp * k * NR..(jp + 1) * k * NR];
                    let j0 = jp * NR;
                    let lanes = (n - j0).min(NR);
                    let mut i = ic;
                    while i < ic_end {
                        let gi = row0 + i;
                        let quad = i + MR <= ic_end
                            && g.flags
                                .is_none_or(|f| f[gi..gi + MR].iter().all(|&x| x == 0));
                        if quad {
                            quad_tile(g, gi, bpanel, pc, pc_end, band, i, j0, lanes, first, simd);
                            i += MR;
                        } else {
                            let skip = g.flags.is_some_and(|f| f[gi] != 0);
                            row_tile(
                                g, gi, bpanel, pc, pc_end, band, i, j0, lanes, first, skip, simd,
                            );
                            i += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Dense `MR × lanes` tile update. Full-width panels hit `C` in place;
/// tail panels round-trip through a stack tile (exact: f32 copy).
#[allow(clippy::too_many_arguments)]
fn quad_tile(
    g: &Gemm<'_>,
    row: usize,
    bpanel: &[f32],
    p0: usize,
    p1: usize,
    band: &mut [f32],
    ci: usize,
    j0: usize,
    lanes: usize,
    first: bool,
    simd: bool,
) {
    let a = g.a[row * g.k..].as_ptr();
    let n = g.n;
    if lanes == NR {
        // SAFETY: rows ci..ci+MR and cols j0..j0+NR are in-bounds for the
        // band (quad requires i+MR <= ic_end, full panel requires
        // j0+NR <= n); A rows row..row+MR each hold k elements.
        unsafe {
            quad_kernel(
                a,
                g.k,
                bpanel.as_ptr(),
                band.as_mut_ptr().add(ci * n + j0),
                n,
                p0,
                p1,
                first,
                simd,
            );
        }
        return;
    }
    let mut tile = [0.0f32; MR * NR];
    if !first {
        for r in 0..MR {
            tile[r * NR..r * NR + lanes].copy_from_slice(&band[(ci + r) * n + j0..][..lanes]);
        }
    }
    // SAFETY: the stack tile is MR × NR with stride NR.
    unsafe {
        quad_kernel(
            a,
            g.k,
            bpanel.as_ptr(),
            tile.as_mut_ptr(),
            NR,
            p0,
            p1,
            first,
            simd,
        );
    }
    for r in 0..MR {
        band[(ci + r) * n + j0..][..lanes].copy_from_slice(&tile[r * NR..r * NR + lanes]);
    }
}

/// Single-row tile update carrying the zero-skip flag.
#[allow(clippy::too_many_arguments)]
fn row_tile(
    g: &Gemm<'_>,
    row: usize,
    bpanel: &[f32],
    p0: usize,
    p1: usize,
    band: &mut [f32],
    ci: usize,
    j0: usize,
    lanes: usize,
    first: bool,
    skip: bool,
    simd: bool,
) {
    let a = g.a[row * g.k..].as_ptr();
    let n = g.n;
    if lanes == NR {
        // SAFETY: same bounds argument as `quad_tile`, single row.
        unsafe {
            row_kernel(
                a,
                bpanel.as_ptr(),
                band.as_mut_ptr().add(ci * n + j0),
                p0,
                p1,
                first,
                skip,
                simd,
            );
        }
        return;
    }
    let mut tile = [0.0f32; NR];
    if !first {
        tile[..lanes].copy_from_slice(&band[ci * n + j0..][..lanes]);
    }
    // SAFETY: the stack tile is one NR-wide row.
    unsafe {
        row_kernel(
            a,
            bpanel.as_ptr(),
            tile.as_mut_ptr(),
            p0,
            p1,
            first,
            skip,
            simd,
        );
    }
    band[ci * n + j0..][..lanes].copy_from_slice(&tile[..lanes]);
}

/// # Safety
/// `a` must be valid for `MR` rows of `k` elements (stride `k`); `b` for
/// `p1·NR` elements; `c` for `MR` rows of `NR` elements at stride
/// `c_stride`.
#[allow(clippy::too_many_arguments)]
unsafe fn quad_kernel(
    a: *const f32,
    k: usize,
    b: *const f32,
    c: *mut f32,
    c_stride: usize,
    p0: usize,
    p1: usize,
    first: bool,
    simd: bool,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        return quad_kernel_avx2(a, k, b, c, c_stride, p0, p1, first);
    }
    let _ = simd;
    quad_kernel_scalar(a, k, b, c, c_stride, p0, p1, first);
}

/// # Safety
/// See [`quad_kernel`].
#[allow(clippy::too_many_arguments)]
unsafe fn quad_kernel_scalar(
    a: *const f32,
    k: usize,
    b: *const f32,
    c: *mut f32,
    c_stride: usize,
    p0: usize,
    p1: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            std::ptr::copy_nonoverlapping(c.add(r * c_stride), acc_r.as_mut_ptr(), NR);
        }
    }
    for p in p0..p1 {
        let brow = std::slice::from_raw_parts(b.add(p * NR), NR);
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = *a.add(r * k + p);
            // Lane-independent mul-then-add: the compiler may vectorize
            // across lanes but cannot reassociate within one.
            for (acc_v, &b_v) in acc_r.iter_mut().zip(brow) {
                *acc_v += av * b_v;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        std::ptr::copy_nonoverlapping(acc_r.as_ptr(), c.add(r * c_stride), NR);
    }
}

/// # Safety
/// See [`quad_kernel`]; additionally requires AVX2 (checked by caller).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn quad_kernel_avx2(
    a: *const f32,
    k: usize,
    b: *const f32,
    c: *mut f32,
    c_stride: usize,
    p0: usize,
    p1: usize,
    first: bool,
) {
    use core::arch::x86_64::*;
    let mut acc = [_mm256_setzero_ps(); 2 * MR];
    if !first {
        for r in 0..MR {
            acc[2 * r] = _mm256_loadu_ps(c.add(r * c_stride));
            acc[2 * r + 1] = _mm256_loadu_ps(c.add(r * c_stride + 8));
        }
    }
    for p in p0..p1 {
        let b0 = _mm256_loadu_ps(b.add(p * NR));
        let b1 = _mm256_loadu_ps(b.add(p * NR + 8));
        for r in 0..MR {
            let av = _mm256_set1_ps(*a.add(r * k + p));
            // mul + add, not FMA: keeps per-lane rounding identical to
            // the scalar kernel and gemm_reference.
            acc[2 * r] = _mm256_add_ps(acc[2 * r], _mm256_mul_ps(av, b0));
            acc[2 * r + 1] = _mm256_add_ps(acc[2 * r + 1], _mm256_mul_ps(av, b1));
        }
    }
    for r in 0..MR {
        _mm256_storeu_ps(c.add(r * c_stride), acc[2 * r]);
        _mm256_storeu_ps(c.add(r * c_stride + 8), acc[2 * r + 1]);
    }
}

/// # Safety
/// `a` must be valid for `p1` elements; `b` for `p1·NR`; `c` for `NR`.
#[allow(clippy::too_many_arguments)]
unsafe fn row_kernel(
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    p0: usize,
    p1: usize,
    first: bool,
    skip: bool,
    simd: bool,
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd {
        return row_kernel_avx2(a, b, c, p0, p1, first, skip);
    }
    let _ = simd;
    let mut acc = [0.0f32; NR];
    if !first {
        std::ptr::copy_nonoverlapping(c, acc.as_mut_ptr(), NR);
    }
    for p in p0..p1 {
        let av = *a.add(p);
        // Zero-skip: adding `±0 · b` to a finite accumulator that started
        // from +0.0 is a bitwise no-op, so skipping is exact (and is what
        // makes causal-mask columns free in the LM decode path).
        if skip && av == 0.0 {
            continue;
        }
        let brow = std::slice::from_raw_parts(b.add(p * NR), NR);
        for (acc_v, &b_v) in acc.iter_mut().zip(brow) {
            *acc_v += av * b_v;
        }
    }
    std::ptr::copy_nonoverlapping(acc.as_ptr(), c, NR);
}

/// # Safety
/// See [`row_kernel`]; additionally requires AVX2 (checked by caller).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn row_kernel_avx2(
    a: *const f32,
    b: *const f32,
    c: *mut f32,
    p0: usize,
    p1: usize,
    first: bool,
    skip: bool,
) {
    use core::arch::x86_64::*;
    let mut acc0 = _mm256_setzero_ps();
    let mut acc1 = _mm256_setzero_ps();
    if !first {
        acc0 = _mm256_loadu_ps(c);
        acc1 = _mm256_loadu_ps(c.add(8));
    }
    for p in p0..p1 {
        let av = *a.add(p);
        if skip && av == 0.0 {
            continue;
        }
        let avv = _mm256_set1_ps(av);
        let b0 = _mm256_loadu_ps(b.add(p * NR));
        let b1 = _mm256_loadu_ps(b.add(p * NR + 8));
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(avv, b0));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(avv, b1));
    }
    _mm256_storeu_ps(c, acc0);
    _mm256_storeu_ps(c.add(8), acc1);
}
