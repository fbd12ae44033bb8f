//! Operand packing for the blocked GEMM engine.
//!
//! The micro-kernels (the private `kernel` module) only ever read two
//! layouts:
//!
//! * **A view** — the left operand read in place through two strides:
//!   element `(i, p)` at `i·rs + p·ps`. NN/NT borrow the caller's
//!   `m × k` matrix (`rs = k, ps = 1`); TN borrows its `k × m` matrix
//!   (`rs = 1, ps = m`), so the rows of one contraction step are one
//!   contiguous run. bf16 copies the operand in its own layout, rounding
//!   while it copies.
//! * **Packed B** — `⌈n/NR⌉` panels, each `k × NR`, laid out panel-major:
//!   element `(p, lane)` of panel `jp` lives at `jp·k·NR + p·NR + lane`.
//!   Tail-panel lanes beyond `n` are zero so the kernels always run full
//!   width; a zero lane accumulates a value that never reaches `C`.
//!   Every kernel, of every tile height and ISA, reads this one layout.
//!
//! Pack buffers are thread-local and reused across calls, so steady-state
//! training steps do no per-GEMM slab allocation.

use crate::bf16;
use crate::gemm::MatMode;
use crate::matrix::Matrix;
use std::cell::RefCell;

/// The tallest register tile: a micro-kernel call updates up to `MR`
/// rows of `C` (12 on AVX-512, 6 on the portable kernel).
pub const MR: usize = 12;
/// Register-tile columns: the packed-panel width — one 16-lane AVX-512
/// vector, or two 8-lane AVX vectors, for every tile height.
pub const NR: usize = 16;

/// Cache-blocking parameters. `kc` bounds the contracted slice held in
/// L1 alongside one B panel (`kc × NR` floats); `mc` bounds the A rows
/// kept warm in L2 while a panel group streams (the default, 96, is a
/// multiple of both tile heights); `nc` is the panel-group width
/// (rounded up to a multiple of [`NR`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSizes {
    pub mc: usize,
    pub kc: usize,
    pub nc: usize,
}

impl Default for BlockSizes {
    fn default() -> Self {
        BlockSizes {
            mc: 96,
            kc: 256,
            nc: 256,
        }
    }
}

impl BlockSizes {
    /// Clamp degenerate values and round `nc` up to a whole panel.
    pub(crate) fn normalized(self) -> Self {
        BlockSizes {
            mc: self.mc.max(1),
            kc: self.kc.max(1),
            nc: self.nc.max(1).div_ceil(NR) * NR,
        }
    }
}

/// Where element `(p, j)` of the logical `k × n` right-hand operand
/// lives in the source slice.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BLayout {
    /// `k × n` row-major (`b[p·n + j]`): the B operand of NN and TN.
    KxN,
    /// `n × k` row-major (`b[j·k + p]`): the B operand of NT (`C = A·Bᵀ`).
    NxK,
}

impl BLayout {
    /// How the right operand of a `mode` multiply is stored.
    pub(crate) fn of(mode: MatMode) -> BLayout {
        match mode {
            MatMode::NN | MatMode::TN => BLayout::KxN,
            MatMode::NT => BLayout::NxK,
        }
    }
}

thread_local! {
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static ROW_FLAGS: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Fill `dst` (`⌈n/NR⌉·k·NR` floats) with the packed panels of the
/// logical `k × n` operand in `src`. Every lane is written exactly once:
/// full panels from the source, the tail panel's padding lanes with
/// `+0.0` — so `dst` may hold stale data on entry and no memset of the
/// whole buffer is needed.
fn fill_packed_b(dst: &mut [f32], src: &[f32], layout: BLayout, k: usize, n: usize) {
    debug_assert_eq!(dst.len(), n.div_ceil(NR) * k * NR);
    if k == 0 {
        return;
    }
    for (jp, panel) in dst.chunks_exact_mut(k * NR).enumerate() {
        let j0 = jp * NR;
        let lanes = (n - j0).min(NR);
        match layout {
            BLayout::KxN => {
                for (p, prow) in panel.chunks_exact_mut(NR).enumerate() {
                    prow[..lanes].copy_from_slice(&src[p * n + j0..p * n + j0 + lanes]);
                    prow[lanes..].fill(0.0);
                }
            }
            BLayout::NxK => {
                for lane in 0..lanes {
                    let row = &src[(j0 + lane) * k..(j0 + lane) * k + k];
                    for (p, &v) in row.iter().enumerate() {
                        panel[p * NR + lane] = v;
                    }
                }
                if lanes < NR {
                    for prow in panel.chunks_exact_mut(NR) {
                        prow[lanes..].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Run `f` with the thread-local B pack buffer filled from `src`.
/// Returns `(panels, packed_bytes, f-result)`.
pub(crate) fn with_packed_b<R>(
    src: &[f32],
    layout: BLayout,
    k: usize,
    n: usize,
    quantize: bool,
    f: impl FnOnce(&[f32]) -> R,
) -> (usize, u64, R) {
    let panels = n.div_ceil(NR);
    let len = panels * k * NR;
    PACK_B.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        let packed = &mut buf[..len];
        fill_packed_b(packed, src, layout, k, n);
        if quantize {
            bf16::round_slice(packed);
        }
        let r = f(packed);
        (panels, (len * std::mem::size_of::<f32>()) as u64, r)
    })
}

/// An owned, already-packed right-hand operand: the same panel layout
/// the blocked GEMM packs per call, filled once by the same routine.
/// Handing one to `gemm` skips the per-call pack — what a weight matrix
/// that never changes between multiplies (inference) wants.
#[derive(Debug, Clone)]
pub struct PackedB {
    pub(crate) panels: Vec<f32>,
    /// The mode this operand was packed for (and must be multiplied in).
    pub(crate) mode: MatMode,
    /// Contracted length and output columns of the logical operand.
    pub(crate) k: usize,
    pub(crate) n: usize,
}

impl PackedB {
    /// Pack `b` as the right operand of a `mode` multiply: `k × n`
    /// row-major for NN and TN, `n × k` for NT.
    pub fn pack(mode: MatMode, b: &Matrix) -> PackedB {
        let layout = BLayout::of(mode);
        let (k, n) = match layout {
            BLayout::KxN => b.shape(),
            BLayout::NxK => (b.cols(), b.rows()),
        };
        let mut panels = vec![0.0; n.div_ceil(NR) * k * NR];
        fill_packed_b(&mut panels, b.as_slice(), layout, k, n);
        PackedB { panels, mode, k, n }
    }
}

/// Run `f` with the A view for `src`: the slice itself, or, when
/// `quantize`, a bf16-rounded copy in the same layout in the thread-local
/// A buffer. Returns `(packed_bytes, f-result)`.
pub(crate) fn with_a_view<R>(src: &[f32], quantize: bool, f: impl FnOnce(&[f32]) -> R) -> (u64, R) {
    if !quantize {
        return (0, f(src));
    }
    PACK_A.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        buf.extend_from_slice(src);
        bf16::round_slice(&mut buf);
        (std::mem::size_of_val(src) as u64, f(&buf))
    })
}

/// Run `f` with per-row "contains a zero" flags for the `m × k` A view
/// (the NN zero-skip decision, hoisted ahead of packing).
pub(crate) fn with_row_flags<R>(
    a_view: &[f32],
    m: usize,
    k: usize,
    f: impl FnOnce(&[u8]) -> R,
) -> R {
    ROW_FLAGS.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        buf.resize(m, 0);
        for (i, flag) in buf.iter_mut().enumerate() {
            if a_view[i * k..i * k + k].contains(&0.0) {
                *flag = 1;
            }
        }
        f(&buf)
    })
}

/// Pack traffic the blocked engine generates for an f32 multiply of the
/// given shape, in any mode: `(B panels, packed bytes)`. Only B is
/// packed; A is read in place. Pure geometry — a caller that knows which
/// strategy ran (the tuned weight-gradient product) records its pack
/// traffic without the kernel's own stats.
pub fn pack_geometry(m: usize, k: usize, n: usize) -> (u32, u64) {
    if m == 0 || n == 0 || k == 0 {
        return (0, 0);
    }
    let panels = n.div_ceil(NR);
    let bytes = panels * k * NR * std::mem::size_of::<f32>();
    (panels as u32, bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_b_kxn_layout_and_zero_padding() {
        // 2 × 3 B, one panel: lane 0..3 filled, lanes 3..NR zero.
        let b = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let (panels, bytes, ()) = with_packed_b(&b, BLayout::KxN, 2, 3, false, |bp| {
            assert_eq!(bp.len(), 2 * NR);
            assert_eq!(&bp[0..3], &[1.0, 2.0, 3.0]);
            assert!(bp[3..NR].iter().all(|&v| v == 0.0));
            assert_eq!(&bp[NR..NR + 3], &[4.0, 5.0, 6.0]);
        });
        assert_eq!(panels, 1);
        assert_eq!(bytes, (2 * NR * 4) as u64);
    }

    #[test]
    fn packed_b_nxk_transposes() {
        // NT: B is n × k = 2 × 3; packed panel must hold B[j][p] at lane j.
        let b = [1.0f32, 2.0, 3.0, 10.0, 20.0, 30.0];
        with_packed_b(&b, BLayout::NxK, 3, 2, false, |bp| {
            assert_eq!(bp[0], 1.0); // p=0 lane 0
            assert_eq!(bp[1], 10.0); // p=0 lane 1
            assert_eq!(bp[NR], 2.0); // p=1 lane 0
            assert_eq!(bp[NR + 1], 20.0);
            assert_eq!(bp[2 * NR], 3.0);
            assert_eq!(bp[2 * NR + 1], 30.0);
        });
    }

    #[test]
    fn reused_buffer_zeroes_only_what_a_smaller_pack_leaves_stale() {
        // Same thread, so the same scratch: a dense 3-panel pack first,
        // then a one-panel tail pack whose padding lanes must read +0.0
        // although the buffer is no longer memset per call.
        let big = vec![7.0f32; 5 * 40];
        for layout in [BLayout::KxN, BLayout::NxK] {
            with_packed_b(&big, layout, 5, 40, false, |bp| {
                assert_eq!(bp.len(), 3 * 5 * NR);
                assert!(bp[..2 * 5 * NR].iter().all(|&v| v == 7.0));
            });
            let small = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
            let (k, n) = (2, 3);
            with_packed_b(&small, layout, k, n, false, |bp| {
                assert_eq!(bp.len(), k * NR);
                for p in 0..k {
                    assert!(bp[p * NR..p * NR + n].iter().all(|&v| v != 0.0 && v != 7.0));
                    assert!(bp[p * NR + n..(p + 1) * NR]
                        .iter()
                        .all(|&v| v.to_bits() == 0));
                }
            });
        }
    }

    #[test]
    fn owned_pack_equals_scratch_pack() {
        let b = Matrix::random(7, 21, 1.0, 3);
        for mode in MatMode::ALL {
            let (k, n) = if mode == MatMode::NT {
                (21, 7)
            } else {
                (7, 21)
            };
            let owned = PackedB::pack(mode, &b);
            assert_eq!((owned.k, owned.n), (k, n));
            with_packed_b(b.as_slice(), BLayout::of(mode), k, n, false, |bp| {
                assert_eq!(bp, &owned.panels[..]);
            });
        }
        // Degenerate operands pack to nothing rather than panicking.
        assert!(PackedB::pack(MatMode::NN, &Matrix::zeros(0, 5))
            .panels
            .is_empty());
        assert!(PackedB::pack(MatMode::NN, &Matrix::zeros(5, 0))
            .panels
            .is_empty());
    }

    #[test]
    fn row_flags_mark_zero_rows() {
        let a = [1.0f32, 2.0, 0.0, 3.0, 4.0, 5.0];
        with_row_flags(&a, 3, 2, |flags| {
            assert_eq!(flags, &[0, 1, 0]);
        });
    }

    #[test]
    fn geometry_matches_packing() {
        let (m, k, n) = (10, 7, 33);
        let b = vec![1.0f32; k * n];
        let (panels, bytes, ()) = with_packed_b(&b, BLayout::KxN, k, n, false, |_| ());
        assert_eq!(pack_geometry(m, k, n), (panels as u32, bytes));
        assert_eq!(pack_geometry(0, k, n), (0, 0));
    }
}
