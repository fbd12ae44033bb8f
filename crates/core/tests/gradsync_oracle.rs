//! The bucketed + ZeRO-1-sharded gradient pipeline must be **bitwise**
//! identical to the seed's per-tensor path — for every data-parallel
//! width, every bucket geometry (boundaries splitting a tensor, a final
//! partial bucket), and uneven tensor sizes. This holds because both
//! modes fold the data-group sums in canonical group order and apply the
//! same `p += (-lr)·g` update expression; the property test here is the
//! contract that keeps the oracle meaningful.

use axonn_core::{
    Activation, GradSyncMode, GridTopology, NetConfig, Network4d, OverlapConfig, TransformerStack,
};
use axonn_exec::run_spmd;
use axonn_tensor::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random batch.
fn batch(rows: usize, cols: usize, salt: u64) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(salt);
            ((x >> 33) % 1000) as f32 / 500.0 - 1.0
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Train `steps` steps of the MLP on a (gx, gy, gz, gd) grid under the
/// given sync mode; return every rank's (weight-bits, loss-bits).
fn run_mlp(
    grid_dims: (usize, usize, usize, usize),
    dims: Vec<usize>,
    mode: GradSyncMode,
    bucket_elems: usize,
    steps: usize,
) -> Vec<(Vec<Vec<u32>>, Vec<u32>)> {
    let (gx, gy, gz, gd) = grid_dims;
    let world = gx * gy * gz * gd;
    let rows = 4 * gd * gz;
    run_spmd(world, move |comm| {
        let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
        let cfg = NetConfig {
            overlap: OverlapConfig::all(),
            grad_sync: mode,
            grad_bucket_elems: bucket_elems,
            ..NetConfig::default()
        };
        let mut net = Network4d::with_config(comm, grid, &dims, Activation::Relu, 7, cfg);
        let mut losses = Vec::new();
        for s in 0..steps {
            let x = batch(rows, dims[0], 11 + s as u64);
            let t = batch(rows, *dims.last().unwrap(), 23 + s as u64);
            losses.push(net.train_step(&x, &t, 0.01).to_bits());
        }
        let weights: Vec<Vec<u32>> = net
            .weight_shards()
            .iter()
            .map(|w| w.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        (weights, losses)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// G_data ∈ {1, 2, 4} × uneven layer sizes × bucket capacities small
    /// enough that buckets split tensors mid-way and the last bucket is
    /// partial: weights and losses match the oracle bit for bit.
    #[test]
    fn bucketed_sync_matches_per_tensor_oracle_bitwise(
        gd_pow in 0usize..3,
        hidden in 3usize..14,
        bucket_elems in 3usize..96,
    ) {
        let gd = 1usize << gd_pow;
        // Uneven dims: tensor sizes 5*h, h*7, 7*3 — none a multiple of
        // the other, so bucket boundaries land mid-tensor.
        let dims = vec![5, hidden, 7, 3];
        let bucketed = run_mlp((1, 1, 1, gd), dims.clone(), GradSyncMode::Bucketed, bucket_elems, 3);
        let oracle = run_mlp((1, 1, 1, gd), dims, GradSyncMode::PerTensor, bucket_elems, 3);
        prop_assert_eq!(bucketed, oracle);
    }
}

/// The same contract on a grid that exercises the intra-layer dimensions
/// too (Z reduce-scatters feeding the buckets, uneven shard sizes).
#[test]
fn bucketed_matches_oracle_on_mixed_grids() {
    for (grid, dims, bucket) in [
        ((1, 1, 2, 2), vec![8, 12, 8], 10),
        ((2, 1, 1, 2), vec![8, 8, 8, 8], 7),
        ((1, 2, 2, 1), vec![8, 8, 8], 5),
    ] {
        let bucketed = run_mlp(grid, dims.clone(), GradSyncMode::Bucketed, bucket, 2);
        let oracle = run_mlp(grid, dims.clone(), GradSyncMode::PerTensor, bucket, 2);
        assert_eq!(bucketed, oracle, "grid {grid:?} dims {dims:?}");
    }
}

/// Full-stack contract: the GPT's mixed buckets (FC shards, LayerNorm
/// gains/biases, the embedding table) reduce and update bit-identically
/// to the per-tensor path. The one-rank grids hold the in-place update of
/// a one-rank data group and the unreduced dŴ of a one-rank Z group to
/// the oracle too; (1, 1, 2, 1) keeps ORS on a two-rank Z group.
#[test]
fn transformer_stack_bucketed_matches_oracle_bitwise() {
    let run = |(gx, gy, gz, gd): (usize, usize, usize, usize),
               mode: GradSyncMode,
               bucket_elems: usize| {
        run_spmd(gx * gy * gz * gd, move |comm| {
            let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
            let mut stack = TransformerStack::new(&grid, 8, 8, 2, 2, 4, 3, OverlapConfig::all());
            stack.set_grad_sync(mode);
            stack.set_grad_bucket_elems(bucket_elems);
            let tokens: Vec<usize> = (0..16).map(|i| (i * 5 + 1) % 8).collect();
            let targets: Vec<usize> = (0..16).map(|i| (i * 3 + 2) % 8).collect();
            let mut losses = Vec::new();
            for _ in 0..2 {
                losses.push(
                    stack
                        .train_step(&comm, &grid, &tokens, &targets, 0.05)
                        .to_bits(),
                );
            }
            let mut bits: Vec<Vec<u32>> = Vec::new();
            let grab = |m: &Matrix| {
                m.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u32>>()
            };
            bits.push(grab(&stack.emb.table));
            for b in &stack.blocks {
                bits.push(grab(b.qkv.weight_shard()));
                bits.push(grab(b.proj.weight_shard()));
                bits.push(grab(b.fc1.weight_shard()));
                bits.push(grab(b.fc2.weight_shard()));
                bits.push(grab(&b.ln1.gain));
                bits.push(grab(&b.ln1.bias));
                bits.push(grab(&b.ln2.gain));
                bits.push(grab(&b.ln2.bias));
            }
            bits.push(grab(&stack.final_ln.gain));
            bits.push(grab(&stack.final_ln.bias));
            bits.push(grab(stack.head.weight_shard()));
            (bits, losses)
        })
    };
    for grid in [(1, 2, 1, 2), (1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1)] {
        for bucket_elems in [6usize, 17, 4096] {
            assert_eq!(
                run(grid, GradSyncMode::Bucketed, bucket_elems),
                run(grid, GradSyncMode::PerTensor, bucket_elems),
                "grid {grid:?} bucket_elems {bucket_elems}"
            );
        }
    }
}
