//! Blocked GEMM engine: cache blocking, one register-tile driver, and the
//! micro-kernels it drives.
//!
//! The engine walks `C` in `mc`-row blocks × `nc`-wide panel groups ×
//! `kc`-deep contracted slices. Within a block it covers each panel's
//! rows with dense tiles as tall as the kernel allows — so a 2-row tail
//! or an 8-stream decode batch is one tile, not eight single rows — and
//! hands each row flagged for the NN zero-skip to the single-row skip
//! kernel ([`fused::skip_row`]). One driver, const-generic over the
//! tile's row count (`1..=MR`), serves every [`Isa`]:
//!
//! * [`Isa::Avx512`]: 12×16 tiles, one 16-lane FMA accumulator per row;
//! * [`Isa::Scalar`]: 6×16 tiles of the portable kernel
//!   ([`fused::tile`]), which the compiler vectorizes to 8-lane FMA when
//!   the CPU has it.
//!
//! Both are **bitwise identical** to `gemm_reference`: every `C[i][j]` is
//! one correctly rounded fused multiply-add per term, in `p` order, from
//! `+0.0` — the rule of [`crate::fused`] — and lane parallelism across
//! `j` is not a reassociation. Partial sums are spilled to `C` between
//! `kc` blocks; an f32 store/load round-trip is exact, so blocking does
//! not perturb results either. The AVX-512 kernel is compiled with the
//! `simd` feature and picked by CPUID at run time; it shares `NR = 16`
//! and the packed-B layout with the portable one.

use crate::fused;
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
/// hidden-128 one. Re-measured with the FMA kernels (AVX-512, hidden
/// 512, one rank, 2-core Sapphire Rapids VM, eight interleaved runs of
/// ten steps): serial 136–161 ms min, 140–239 ms median; split 115–174
/// ms min, 128–212 ms median. The kernels got faster on both sides and
/// the crossover did not clearly move, so neither did the constant.
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

/// The instruction set of a GEMM's dense micro-kernel, in increasing
/// order of preference. Every one gives the same bits.
///
/// There is no AVX2 intrinsic kernel: the portable kernel, compiled with
/// the `fma` target feature, already issues 8-lane `vfmadd` on a 6×16
/// tile, and an intrinsic AVX2 6×16 kernel ran within 1 % of it on 288³
/// and the FC shapes 256×128×512 and 256×512×128, NN/NT/TN (medians of
/// ten alternating runs, one thread, 2-core Sapphire Rapids VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// The portable kernel of [`crate::fused`]; runs everywhere.
    Scalar,
    /// AVX-512F + FMA intrinsics (`simd` feature).
    Avx512,
}

impl Isa {
    pub const ALL: [Isa; 2] = [Isa::Scalar, Isa::Avx512];

    /// The most preferred ISA: as a cap, "no cap".
    pub const BEST: Isa = Isa::ALL[Isa::ALL.len() - 1];

    /// Whether this build holds the kernel and this CPU can run it.
    pub fn runs_here(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            Isa::Avx512 => is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma"),
            #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
            Isa::Avx512 => false,
        }
    }

    /// The most preferred ISA at or below `cap` that runs here.
    pub(crate) fn best_up_to(cap: Isa) -> Isa {
        Isa::ALL
            .into_iter()
            .rev()
            .find(|&isa| isa <= cap && isa.runs_here())
            .unwrap_or(Isa::Scalar)
    }

    /// Rows of this ISA's dense tile: 12 accumulators of one zmm, or 6 of
    /// two ymm, fill the register file without spilling.
    fn tile_rows(self) -> usize {
        match self {
            Isa::Avx512 => MR,
            Isa::Scalar => 6,
        }
    }
}

/// One multiply over packed B: `C[m×n] = A[m×k] · Bpacked`.
pub(crate) struct Gemm<'a> {
    /// The A view (see [`crate::pack`]): element `(i, p)` at
    /// `a[i·rs + p·ps]`.
    pub a: &'a [f32],
    pub rs: usize,
    pub ps: usize,
    /// Panel-major packed B (see [`crate::pack`]).
    pub bp: &'a [f32],
    /// Per-row "has a zero" flags (NN zero-skip); `None` disables skip.
    pub flags: Option<&'a [u8]>,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub blocks: BlockSizes,
    pub isa: Isa,
}

/// Run the blocked engine over `c`. `workers > 1` (see
/// [`split_workers`]) splits `C` into that many MR-aligned row bands —
/// panel-group granularity inside each band.
pub(crate) fn run(c: &mut [f32], g: &Gemm<'_>, workers: usize) {
    debug_assert_eq!(c.len(), g.m * g.n);
    if workers > 1 && g.m > MR {
        let chunk_rows = g.m.div_ceil(workers).div_ceil(MR) * MR;
        c.par_chunks_mut(chunk_rows * g.n)
            .enumerate()
            .for_each(|(ci, band)| band_loop(band, ci * chunk_rows, g));
    } else {
        band_loop(c, 0, g);
    }
}

/// `$f::<R>(args)` for a runtime row count `R` in `1..=MR`.
macro_rules! with_rows {
    ($rows:expr, $f:ident($($arg:expr),*)) => {
        match $rows {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            4 => $f::<4>($($arg),*),
            5 => $f::<5>($($arg),*),
            6 => $f::<6>($($arg),*),
            7 => $f::<7>($($arg),*),
            8 => $f::<8>($($arg),*),
            9 => $f::<9>($($arg),*),
            10 => $f::<10>($($arg),*),
            11 => $f::<11>($($arg),*),
            12 => $f::<12>($($arg),*),
            rows => unreachable!("a tile of {rows} rows"),
        }
    };
}

/// Blocked loop nest over one contiguous band of `C` rows. `row0` maps
/// band-local rows to global A-view rows.
fn band_loop(band: &mut [f32], row0: usize, g: &Gemm<'_>) {
    let (n, k) = (g.n, g.k);
    let rows = band.len() / n;
    let panels = n.div_ceil(NR);
    let nc_panels = g.blocks.nc / NR;
    let height = g.isa.tile_rows();
    for ic in (0..rows).step_by(g.blocks.mc) {
        let ic_end = (ic + g.blocks.mc).min(rows);
        for jc in (0..panels).step_by(nc_panels) {
            let jc_end = (jc + nc_panels).min(panels);
            for pc in (0..k).step_by(g.blocks.kc) {
                let pc_end = (pc + g.blocks.kc).min(k);
                for jp in jc..jc_end {
                    let panel = &g.bp[jp * k * NR..][pc * NR..pc_end * NR];
                    let at = Spot {
                        j0: jp * NR,
                        p0: pc,
                        first: pc == 0,
                    };
                    let mut i = ic;
                    while i < ic_end {
                        let gi = row0 + i;
                        let most = (ic_end - i).min(height);
                        // The rows from `i` on whose A row holds no zero.
                        let dense = g.flags.map_or(most, |f| {
                            f[gi..gi + most].iter().take_while(|&&z| z == 0).count()
                        });
                        if dense == 0 {
                            tile::<1>(g, true, gi, panel, band, i, at);
                            i += 1;
                        } else {
                            with_rows!(dense, tile(g, false, gi, panel, band, i, at));
                            i += dense;
                        }
                    }
                }
            }
        }
    }
}

/// Where a tile sits: first column, first contraction step of the `kc`
/// slice, and whether that slice is the first (accumulators from `+0.0`).
#[derive(Clone, Copy)]
struct Spot {
    j0: usize,
    p0: usize,
    first: bool,
}

/// One `R`-row tile (global A row `row`, band row `ci`) over one panel's
/// `kc` slice, on the zero-skip kernel when `skip` (then `R = 1`), else
/// on `g.isa`. Full-width panels hit `C` in place; tail panels round-trip
/// through a stack tile (exact: an f32 copy).
fn tile<const R: usize>(
    g: &Gemm<'_>,
    skip: bool,
    row: usize,
    panel: &[f32],
    band: &mut [f32],
    ci: usize,
    at: Spot,
) {
    let n = g.n;
    let a = &g.a[row * g.rs + at.p0 * g.ps..];
    let lanes = (n - at.j0).min(NR);
    let kernel = |c: &mut [f32], ldc: usize| {
        if skip {
            // Only NN flags rows, and NN reads A rows in unit steps.
            debug_assert_eq!(g.ps, 1);
            fused::skip_row(a, panel, c, at.first);
        } else {
            micro::<R>(g, a, panel, c, ldc, at.first);
        }
    };
    if lanes == NR {
        kernel(&mut band[ci * n + at.j0..], n);
        return;
    }
    let mut t = [[0.0f32; NR]; R];
    if !at.first {
        for (r, t_r) in t.iter_mut().enumerate() {
            t_r[..lanes].copy_from_slice(&band[(ci + r) * n + at.j0..][..lanes]);
        }
    }
    kernel(t.as_flattened_mut(), NR);
    for (r, t_r) in t.iter().enumerate() {
        band[(ci + r) * n + at.j0..][..lanes].copy_from_slice(&t_r[..lanes]);
    }
}

/// The dense `R × NR` micro-kernel of `g.isa`, with [`fused::tile`]'s
/// arguments and contract and `g`'s A strides.
fn micro<const R: usize>(
    g: &Gemm<'_>,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
) {
    let (rs, ps) = (g.rs, g.ps);
    match g.isa {
        Isa::Scalar => fused::tile::<R>(a, rs, ps, b, c, ldc, first),
        // SAFETY: `Isa::best_up_to` picks a vector ISA only when
        // `runs_here` found its CPU features.
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        Isa::Avx512 => unsafe { x86::tile_avx512::<R>(a, rs, ps, b, c, ldc, first) },
        #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
        isa @ Isa::Avx512 => unreachable!("{isa:?} does not run in this build"),
    }
}

/// The explicit-vector kernel: [`fused::tile`] with its multiply-adds
/// issued as `vfmadd` on 16 lanes.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use crate::pack::NR;
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx512f,fma")]
    pub(super) fn tile_avx512<const R: usize>(
        a: &[f32],
        rs: usize,
        ps: usize,
        b: &[f32],
        c: &mut [f32],
        ldc: usize,
        first: bool,
    ) {
        // The bounds of every raw access below: A element `(r, p)` at
        // `r·rs + p·ps`, B row `p` at `p·NR..`, C row `r` at `r·ldc..`,
        // for `r < R` and `p < len`, with `len ≥ 1`.
        let len = b.len() / NR;
        assert_eq!(b.len(), len * NR, "B slice is not whole panel rows");
        assert!(
            len > 0 && a.len() > (R - 1) * rs + (len - 1) * ps,
            "A tile out of bounds"
        );
        assert!(c.len() >= (R - 1) * ldc + NR, "C tile out of bounds");
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // SAFETY: every offset below is one asserted above.
        unsafe {
            let mut acc = [_mm512_setzero_ps(); R];
            if !first {
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    *acc_r = _mm512_loadu_ps(c.add(r * ldc));
                }
            }
            for p in 0..len {
                let bv = _mm512_loadu_ps(b.add(p * NR));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let av = _mm512_set1_ps(*a.add(r * rs + p * ps));
                    *acc_r = _mm512_fmadd_ps(av, bv, *acc_r);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                _mm512_storeu_ps(c.add(r * ldc), *acc_r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn every_kernel_panics_on_an_a_tile_one_element_short() {
        // A 3-row tile over 4 contraction steps reads up to element
        // `2·rs + 3·ps`: the bound is `2·rs + 3·ps + 1`, for the NN
        // strides `(k, 1)` and the TN strides `(1, m)` alike.
        const R: usize = 3;
        let b = [1.0f32; 4 * NR];
        for isa in Isa::ALL.into_iter().filter(|isa| isa.runs_here()) {
            for (rs, ps) in [(7, 1), (1, 5)] {
                let need = (R - 1) * rs + 3 * ps + 1;
                let a = vec![1.0f32; need];
                let run = |len: usize| {
                    let g = Gemm {
                        a: &a[..len],
                        rs,
                        ps,
                        bp: &b,
                        flags: None,
                        m: R,
                        k: 4,
                        n: NR,
                        blocks: BlockSizes::default(),
                        isa,
                    };
                    let mut c = [0.0f32; R * NR];
                    catch_unwind(AssertUnwindSafe(|| {
                        micro::<R>(&g, g.a, &b, &mut c, NR, true);
                    }))
                    .map(|()| c)
                };
                let c = run(need).expect("an exact A tile is in bounds");
                assert!(c.iter().all(|&v| v == 4.0), "{isa:?} ({rs}, {ps})");
                assert!(run(need - 1).is_err(), "{isa:?} ({rs}, {ps}) read past A");
            }
        }
    }
}
