//! Property tests for the tensor kernels: blocked/packed/SIMD GEMM
//! *bitwise* agreement (`Matrix::to_bits`) against the reference oracle
//! across all modes, every kernel ISA the host runs and every tile
//! height, shard/assemble round trips, and bf16 error bounds, over
//! randomly drawn shapes.

use axonn_tensor::shard::assemble_blocks;
use axonn_tensor::{
    block_of, concat_cols, concat_rows, gemm, gemm_bf16, gemm_into_with, gemm_reference,
    pack_geometry, shard_rows, unshard_rows, BlockSizes, BlockSpec, Isa, MatMode, Matrix, PackedB,
    MR, NR,
};
use proptest::prelude::*;

fn dim() -> impl Strategy<Value = usize> {
    1usize..24
}

/// Shapes that straddle the register-tile and cache-block boundaries:
/// sub-tile, odd/prime, exact-multiple, and just-past-multiple sizes.
fn kernel_dim() -> impl Strategy<Value = usize> {
    const PRIMES: [usize; 10] = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    prop_oneof![
        1usize..=3, // sub-tile
        Just(MR),
        Just(MR + 1),
        Just(NR - 1),
        Just(NR),
        Just(NR + 1),
        (0usize..PRIMES.len()).prop_map(|i| PRIMES[i]),
        Just(2 * NR),
        Just(2 * NR + 3),
    ]
}

/// Row counts that give every tile height `1..=MR` of every ISA, as a
/// whole product or as the tail after full tiles.
fn tile_rows() -> impl Strategy<Value = usize> {
    1usize..=2 * MR + 1
}

/// The kernel ISAs this build and CPU run: the portable kernel always,
/// AVX-512 with `simd` on a CPU that has it.
fn isas() -> impl Iterator<Item = Isa> {
    Isa::ALL.into_iter().filter(|isa| isa.runs_here())
}

/// Random operands for a logical `m×k×n` product in `mode`.
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

fn mode() -> impl Strategy<Value = MatMode> {
    prop_oneof![Just(MatMode::NN), Just(MatMode::NT), Just(MatMode::TN)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_nn_matches_reference(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = Matrix::random(m, k, 1.0, seed);
        let b = Matrix::random(k, n, 1.0, seed + 1);
        // Bitwise: every C[i][j] is the same fixed-order chain of fused
        // multiply-adds in the blocked kernels as in the reference oracle.
        prop_assert_eq!(gemm(MatMode::NN, &a, &b).to_bits(), gemm_reference(MatMode::NN, &a, &b).to_bits());
    }

    #[test]
    fn gemm_nt_matches_reference(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = Matrix::random(m, k, 1.0, seed);
        let b = Matrix::random(n, k, 1.0, seed + 1);
        prop_assert_eq!(gemm(MatMode::NT, &a, &b).to_bits(), gemm_reference(MatMode::NT, &a, &b).to_bits());
    }

    #[test]
    fn gemm_tn_matches_reference(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        let a = Matrix::random(k, m, 1.0, seed);
        let b = Matrix::random(k, n, 1.0, seed + 1);
        prop_assert_eq!(gemm(MatMode::TN, &a, &b).to_bits(), gemm_reference(MatMode::TN, &a, &b).to_bits());
    }

    #[test]
    fn blocked_kernel_bitwise_across_tile_boundaries(
        mode in mode(), m in tile_rows(), k in kernel_dim(), n in kernel_dim(), seed in 0u64..1000
    ) {
        // Row counts give every tile height, and the other shapes
        // straddle NR panels; every kernel ISA must equal the oracle bit
        // for bit, and report the same pack traffic (the benchmark's
        // exact GEMM counts must not depend on which ISA the host picks).
        let (a, b) = operands(mode, m, k, n, seed);
        let oracle = gemm_reference(mode, &a, &b).to_bits();
        let geometry = pack_geometry(m, k, n);
        for isa in isas() {
            let mut c = Matrix::zeros(m, n);
            let stats = gemm_into_with(mode, &a, &b, &mut c, BlockSizes::default(), isa);
            prop_assert_eq!(&c.to_bits(), &oracle, "mode {}, {:?}", mode, isa);
            prop_assert_eq!((stats.panels, stats.packed_bytes), geometry, "mode {}, {:?}", mode, isa);
        }
    }

    #[test]
    fn tiny_cache_blocks_bitwise(
        mode in mode(),
        m in 1usize..30, k in 1usize..20, n in 1usize..20,
        mc in 1usize..16, kc in 1usize..8, nc in 1usize..40,
        seed in 0u64..1000
    ) {
        // Arbitrary (normalized) cache-block sizes cross every block
        // boundary; partial k-sums round-trip through C exactly.
        let (a, b) = operands(mode, m, k, n, seed);
        let oracle = gemm_reference(mode, &a, &b).to_bits();
        for isa in isas() {
            let mut c = Matrix::zeros(m, n);
            let _ = gemm_into_with(mode, &a, &b, &mut c, BlockSizes { mc, kc, nc }, isa);
            prop_assert_eq!(&c.to_bits(), &oracle, "{:?}", isa);
        }
    }

    #[test]
    fn zero_rows_skip_path_bitwise(
        m in tile_rows(), k in 1usize..24, n in 1usize..24,
        zero_every in 1usize..8, lone in 0usize..2 * MR + 1, seed in 0u64..1000
    ) {
        // NN zero-skip rows (whole zero rows every `zero_every`, and one
        // row with a single zero that splits a tile in two) beside dense
        // tiles: skipping the exact-zero terms is the oracle's rule too.
        let mut a = Matrix::random(m, k, 1.0, seed);
        for i in (0..m).step_by(zero_every) {
            for p in 0..k {
                a[(i, p)] = 0.0;
            }
        }
        a[(lone % m, seed as usize % k)] = 0.0;
        let b = Matrix::random(k, n, 1.0, seed + 1);
        let oracle = gemm_reference(MatMode::NN, &a, &b).to_bits();
        for isa in isas() {
            let mut c = Matrix::zeros(m, n);
            let _ = gemm_into_with(MatMode::NN, &a, &b, &mut c, BlockSizes::default(), isa);
            prop_assert_eq!(&c.to_bits(), &oracle, "{:?}", isa);
        }
    }

    #[test]
    fn prepacked_b_matches_reference_bitwise(
        mode in mode(), m in tile_rows(), k in kernel_dim(), n in kernel_dim(),
        tiny_blocks in 0usize..2, mc in 1usize..16, kc in 1usize..8, nc in 1usize..40,
        zero_every in 1usize..5, seed in 0u64..1000
    ) {
        // A right operand packed once (KxN source for NN/TN, NxK for NT;
        // tail panels whenever n is not a multiple of NR) must give the
        // oracle's bits on every kernel ISA, with k spilling across kc
        // blocks and with whole zero rows of A on the NN skip path.
        let (mut a, b) = operands(mode, m, k, n, seed);
        if mode == MatMode::NN {
            for i in (0..m).step_by(zero_every) {
                for p in 0..k {
                    a[(i, p)] = 0.0;
                }
            }
        }
        let blocks = if tiny_blocks == 1 { BlockSizes { mc, kc, nc } } else { BlockSizes::default() };
        let oracle = gemm_reference(mode, &a, &b).to_bits();
        let packed = PackedB::pack(mode, &b);
        for isa in isas() {
            let mut c = Matrix::random(m, n, 1.0, seed + 2);
            let stats = gemm_into_with(mode, &a, &packed, &mut c, blocks, isa);
            prop_assert_eq!(&c.to_bits(), &oracle, "mode {}, {:?}", mode, isa);
            // Only what this call packed is accounted: nothing, as B came
            // packed and f32 A is read in place.
            prop_assert_eq!((stats.panels, stats.packed_bytes), (0, 0));
        }
    }

    #[test]
    fn prepacked_b_deep_k(m in 1usize..12, extra in 0usize..90, n in kernel_dim(), seed in 0u64..1000) {
        // k beyond the default kc (256): partial sums round-trip through C.
        let k = 257 + extra;
        for mode in [MatMode::NN, MatMode::NT] {
            let (a, b) = operands(mode, m, k, n, seed);
            prop_assert_eq!(
                gemm(mode, &a, &PackedB::pack(mode, &b)).to_bits(),
                gemm_reference(mode, &a, &b).to_bits()
            );
        }
    }

    #[test]
    fn prepacked_rows_do_not_depend_on_the_batch(
        m in 2usize..20, k in kernel_dim(), n in kernel_dim(), seed in 0u64..1000
    ) {
        // Row i of an m-row product equals the 1-row product of row i
        // alone: what lets a decode batch reproduce per-stream logits.
        let (a, b) = operands(MatMode::NN, m, k, n, seed);
        let packed = PackedB::pack(MatMode::NN, &b);
        let batched = gemm(MatMode::NN, &a, &packed).to_bits().2;
        for i in 0..m {
            let row = Matrix::from_vec(1, k, a.row(i).to_vec());
            let alone = gemm(MatMode::NN, &row, &b).to_bits().2;
            prop_assert_eq!(&batched[i * n..(i + 1) * n], &alone[..], "row {}", i);
        }
    }

    #[test]
    fn bf16_fused_pack_matches_quantize_then_gemm(
        mode in mode(), m in dim(), k in dim(), n in dim(), seed in 0u64..1000
    ) {
        // Quantization fused into packing must be indistinguishable from
        // materializing bf16 copies first (the old two-copy path).
        let (a, b) = operands(mode, m, k, n, seed);
        let fused = gemm_bf16(mode, &a, &b);
        let staged = gemm_reference(mode, &a.to_bf16(), &b.to_bf16());
        prop_assert_eq!(fused.to_bits(), staged.to_bits());
    }

    #[test]
    fn zero_sized_edges_all_modes(mode in mode(), m in 0usize..3, k in 0usize..3, n in 0usize..3, seed in 0u64..1000) {
        let (a, b) = operands(mode, m, k, n, seed);
        let out = gemm(mode, &a, &b);
        prop_assert_eq!(out.shape(), (m, n));
        prop_assert_eq!(out.to_bits(), gemm_reference(mode, &a, &b).to_bits());
    }

    #[test]
    fn transpose_is_involution(r in dim(), c in dim(), seed in 0u64..1000) {
        let m = Matrix::random(r, c, 1.0, seed);
        prop_assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn gemm_transpose_identity(m in dim(), k in dim(), n in dim(), seed in 0u64..1000) {
        // (A·B)ᵀ == Bᵀ·Aᵀ expressed through modes.
        let a = Matrix::random(m, k, 1.0, seed);
        let b = Matrix::random(k, n, 1.0, seed + 1);
        let ab_t = gemm(MatMode::NN, &a, &b).transposed();
        let bt_at = gemm(MatMode::NN, &b.transposed(), &a.transposed());
        prop_assert!(ab_t.approx_eq(&bt_at, 1e-4));
    }

    #[test]
    fn block_partition_reassembles(
        pr in 1usize..5, pc in 1usize..5, br in 1usize..6, bc in 1usize..6, seed in 0u64..1000
    ) {
        let m = Matrix::random(pr * br, pc * bc, 1.0, seed);
        let blocks: Vec<Matrix> = (0..pr)
            .flat_map(|i| (0..pc).map(move |j| (i, j)))
            .map(|(i, j)| block_of(&m, BlockSpec::new(pr, pc, i, j)))
            .collect();
        prop_assert_eq!(assemble_blocks(&blocks, pr, pc), m);
    }

    #[test]
    fn row_shard_round_trip(parts in 1usize..8, rows_per in 1usize..6, cols in 1usize..8, seed in 0u64..1000) {
        let m = Matrix::random(parts * rows_per, cols, 1.0, seed);
        let shards: Vec<Matrix> = (0..parts).map(|i| shard_rows(&m, parts, i)).collect();
        prop_assert_eq!(unshard_rows(&shards), m);
    }

    #[test]
    fn concat_shapes(r in 1usize..6, c1 in 1usize..6, c2 in 1usize..6, seed in 0u64..1000) {
        let a = Matrix::random(r, c1, 1.0, seed);
        let b = Matrix::random(r, c2, 1.0, seed + 1);
        let cc = concat_cols(&[a.clone(), b.clone()]);
        prop_assert_eq!(cc.shape(), (r, c1 + c2));
        let rr = concat_rows(&[a.transposed(), b.transposed()]);
        prop_assert_eq!(rr.shape(), (c1 + c2, r));
    }

    #[test]
    fn bf16_round_trip_error_bound(x in -1.0e30f32..1.0e30) {
        let r = axonn_tensor::Bf16::round_f32(x);
        if x != 0.0 && x.is_normal() {
            prop_assert!(((r - x) / x).abs() <= 1.0 / 256.0, "x={x} r={r}");
        }
        // Idempotence.
        prop_assert_eq!(axonn_tensor::Bf16::round_f32(r), r);
    }

    #[test]
    fn bf16_gemm_error_scales_with_k(m in 1usize..8, k in 1usize..16, n in 1usize..8, seed in 0u64..1000) {
        let a = Matrix::random(m, k, 1.0, seed);
        let b = Matrix::random(k, n, 1.0, seed + 1);
        let exact = gemm(MatMode::NN, &a, &b);
        let mixed = gemm_bf16(MatMode::NN, &a, &b);
        // |error| <= k * (2*eps + eps^2) for unit-bounded operands.
        let bound = k as f32 * 3.0 * (1.0 / 256.0) + 1e-5;
        prop_assert!(exact.max_abs_diff(&mixed) <= bound);
    }
}
