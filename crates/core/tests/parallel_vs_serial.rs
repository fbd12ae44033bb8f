//! The correctness core of the reproduction: for every legal 4D grid, the
//! parallel network must reproduce the serial reference — same losses,
//! same final weights — and the overlap optimizations must change timing
//! only, never numerics.

use axonn_core::{Activation, GridTopology, Network4d, OverlapConfig, SerialMlp};
use axonn_exec::run_spmd;
use axonn_tensor::Matrix;

const DIMS: [usize; 4] = [16, 32, 16, 16];
const SEED: u64 = 42;
const BATCH: usize = 16;
const LR: f32 = 0.01;
const STEPS: usize = 5;

fn global_batch() -> (Matrix, Matrix) {
    let x = Matrix::random(BATCH, DIMS[0], 1.0, 1000);
    let t = Matrix::random(BATCH, DIMS[DIMS.len() - 1], 1.0, 1001);
    (x, t)
}

fn serial_run() -> (Vec<f32>, Vec<Matrix>) {
    let (x, t) = global_batch();
    let mut net = SerialMlp::new(&DIMS, Activation::Gelu, SEED);
    let losses = (0..STEPS).map(|_| net.train_step(&x, &t, LR)).collect();
    (losses, net.weights)
}

fn parallel_run(
    gx: usize,
    gy: usize,
    gz: usize,
    gd: usize,
    overlap: OverlapConfig,
    tuning: bool,
) -> (Vec<f32>, Vec<Matrix>) {
    let world = gx * gy * gz * gd;
    let mut results = run_spmd(world, move |comm| {
        let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
        let mut net = Network4d::new(comm, grid, &DIMS, Activation::Gelu, SEED, overlap, tuning);
        let (x, t) = global_batch();
        let losses: Vec<f32> = (0..STEPS).map(|_| net.train_step(&x, &t, LR)).collect();
        let weights = net.gather_full_weights();
        (losses, weights)
    });
    // All ranks must agree on the gathered weights.
    let (losses0, weights0) = results.remove(0);
    for (losses, weights) in &results {
        assert_eq!(losses, &losses0, "ranks disagree on losses");
        for (a, b) in weights.iter().zip(&weights0) {
            assert!(a.approx_eq(b, 1e-6), "ranks disagree on gathered weights");
        }
    }
    (losses0, weights0)
}

fn assert_matches_serial(gx: usize, gy: usize, gz: usize, gd: usize) {
    let (s_losses, s_weights) = serial_run();
    let (p_losses, p_weights) = parallel_run(gx, gy, gz, gd, OverlapConfig::default(), false);
    for (i, (s, p)) in s_losses.iter().zip(&p_losses).enumerate() {
        let rel = (s - p).abs() / s.max(1e-6);
        assert!(
            rel < 2e-3,
            "grid {gx}x{gy}x{gz}x{gd} step {i}: serial loss {s} vs parallel {p}"
        );
    }
    for (i, (s, p)) in s_weights.iter().zip(&p_weights).enumerate() {
        assert!(
            s.approx_eq(p, 2e-3),
            "grid {gx}x{gy}x{gz}x{gd} layer {i}: weights diverged (max diff {})",
            s.max_abs_diff(p)
        );
    }
}

#[test]
fn trivial_grid_matches_serial() {
    assert_matches_serial(1, 1, 1, 1);
}

#[test]
fn x_only_matches_serial_megatron_reduction() {
    // G_x-only + the transpose scheme is exactly Megatron-style 1D TP.
    assert_matches_serial(2, 1, 1, 1);
    assert_matches_serial(4, 1, 1, 1);
}

#[test]
fn y_only_matches_serial() {
    assert_matches_serial(1, 2, 1, 1);
    assert_matches_serial(1, 4, 1, 1);
}

#[test]
fn z_only_matches_serial_fsdp_reduction() {
    // G_z-only is exactly FSDP/ZeRO-3: weights fully sharded, gathered
    // on demand, gradients reduce-scattered.
    assert_matches_serial(1, 1, 2, 1);
    assert_matches_serial(1, 1, 4, 1);
}

#[test]
fn data_only_matches_serial() {
    assert_matches_serial(1, 1, 1, 2);
    assert_matches_serial(1, 1, 1, 4);
}

#[test]
fn hybrid_z_data_matches_serial_hsdp_reduction() {
    // Z + data together is hybrid sharded data parallelism (ZeRO++).
    assert_matches_serial(1, 1, 2, 2);
}

#[test]
fn full_4d_grid_matches_serial() {
    assert_matches_serial(2, 2, 2, 2);
}

#[test]
fn asymmetric_grids_match_serial() {
    assert_matches_serial(4, 2, 1, 1);
    assert_matches_serial(2, 1, 4, 1);
    assert_matches_serial(1, 2, 2, 2);
}

#[test]
fn overlap_changes_nothing_numerically() {
    // Same ring algorithms in the same order: async vs blocking must be
    // bit-identical.
    let base = parallel_run(2, 2, 2, 1, OverlapConfig::default(), false);
    let all = parallel_run(2, 2, 2, 1, OverlapConfig::all(), false);
    assert_eq!(base.0, all.0, "losses differ under overlap");
    for (a, b) in base.1.iter().zip(&all.1) {
        assert_eq!(a, b, "weights differ under overlap");
    }
}

#[test]
fn kernel_tuning_changes_nothing_numerically_beyond_rounding() {
    let base = parallel_run(2, 2, 1, 1, OverlapConfig::all(), false);
    let tuned = parallel_run(2, 2, 1, 1, OverlapConfig::all(), true);
    for (a, b) in base.0.iter().zip(&tuned.0) {
        let rel = (a - b).abs() / a.max(1e-6);
        assert!(rel < 1e-3, "tuned loss {b} vs untuned {a}");
    }
    for (a, b) in base.1.iter().zip(&tuned.1) {
        assert!(a.approx_eq(b, 1e-3), "tuned weights diverged");
    }
}

#[test]
fn parallel_training_is_deterministic() {
    let a = parallel_run(2, 2, 1, 1, OverlapConfig::all(), false);
    let b = parallel_run(2, 2, 1, 1, OverlapConfig::all(), false);
    assert_eq!(a.0, b.0);
    for (wa, wb) in a.1.iter().zip(&b.1) {
        assert_eq!(wa, wb);
    }
}

#[test]
fn one_rank_z_group_prefetches_nothing() {
    // OAG on a one-rank Z group has nothing to gather: forward borrows
    // the shard, so no weight copy goes through the world's slab pool.
    let stats = run_spmd(1, |comm| {
        let grid = GridTopology::new(1, 1, 1, 1, comm.rank());
        let mut net = Network4d::new(
            comm.clone(),
            grid,
            &DIMS,
            Activation::Gelu,
            SEED,
            OverlapConfig::all(),
            false,
        );
        let (x, t) = global_batch();
        net.train_step(&x, &t, LR);
        comm.pool_stats()
    });
    assert_eq!(stats[0].hits + stats[0].misses, 0, "{:?}", stats[0]);
}
