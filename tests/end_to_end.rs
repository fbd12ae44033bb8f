//! Workspace-level integration: the full 4D stack — grid, collectives,
//! Algorithm 1, overlap, kernel tuning, data parallelism, virtual time —
//! exercised together and checked against the serial reference.

use axonn::collectives::RingCostModel;
use axonn::engine::{
    Activation, GridTopology, Network4d, OverlapConfig, SerialMlp, TransformerStack,
};
use axonn::exec::{run_spmd, run_spmd_timed};
use axonn::tensor::Matrix;
use std::sync::Arc;

const DIMS: [usize; 4] = [16, 32, 32, 16];
const SEED: u64 = 99;

fn batch() -> (Matrix, Matrix) {
    (
        Matrix::random(16, DIMS[0], 1.0, 1),
        Matrix::random(16, DIMS[3], 1.0, 2),
    )
}

#[test]
fn sixteen_rank_full_4d_training_matches_serial() {
    let (x, t) = batch();
    let mut serial = SerialMlp::new(&DIMS, Activation::Gelu, SEED);
    let serial_losses: Vec<f32> = (0..4).map(|_| serial.train_step(&x, &t, 0.01)).collect();

    let losses = run_spmd(16, move |comm| {
        let grid = GridTopology::new(2, 2, 2, 2, comm.rank());
        let mut net = Network4d::new(
            comm,
            grid,
            &DIMS,
            Activation::Gelu,
            SEED,
            OverlapConfig::all(),
            true,
        );
        let (x, t) = batch();
        (0..4)
            .map(|_| net.train_step(&x, &t, 0.01))
            .collect::<Vec<f32>>()
    });
    for (s, p) in serial_losses.iter().zip(&losses[0]) {
        assert!(((s - p) / s).abs() < 2e-3, "serial {s} vs parallel {p}");
    }
}

#[test]
fn overlap_reduces_virtual_batch_time() {
    // Same computation, timed world: the OAR/ORS/OAG schedule must give a
    // strictly smaller virtual clock than the blocking schedule.
    let cost = Arc::new(RingCostModel::new(5.0e9, 1.0e9));
    let run = |overlap: OverlapConfig| -> f64 {
        let cost = cost.clone();
        let times = run_spmd_timed(8, cost, move |comm| {
            let grid = GridTopology::new(2, 1, 4, 1, comm.rank());
            let mut net = Network4d::new(comm, grid, &DIMS, Activation::Gelu, SEED, overlap, false);
            let (x, t) = batch();
            for _ in 0..2 {
                net.train_step(&x, &t, 0.01);
            }
            net.comm().now()
        });
        times.into_iter().fold(0.0, f64::max)
    };
    let blocking = run(OverlapConfig::default());
    let overlapped = run(OverlapConfig::all());
    assert!(
        overlapped < blocking,
        "overlap {overlapped} should beat blocking {blocking}"
    );
}

#[test]
fn virtual_time_is_deterministic() {
    let cost = Arc::new(RingCostModel::new(1.0e9, 1.0e8).with_latency(1e-6));
    let run = || -> Vec<f64> {
        let cost = cost.clone();
        run_spmd_timed(4, cost, move |comm| {
            let grid = GridTopology::new(2, 1, 2, 1, comm.rank());
            let mut net = Network4d::new(
                comm,
                grid,
                &DIMS,
                Activation::Relu,
                SEED,
                OverlapConfig::all(),
                false,
            );
            let (x, t) = batch();
            net.train_step(&x, &t, 0.01);
            net.comm().now()
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn kernel_tuner_reports_choices_after_first_batch() {
    let tuned = run_spmd(4, move |comm| {
        let grid = GridTopology::new(2, 1, 2, 1, comm.rank());
        let mut net = Network4d::new(
            comm,
            grid,
            &DIMS,
            Activation::Gelu,
            SEED,
            OverlapConfig::default(),
            true,
        );
        let (x, t) = batch();
        net.train_step(&x, &t, 0.01);
        net.tuned_layers()
    });
    // Every layer's dW kernel gets tuned during the first batch.
    assert!(tuned.iter().all(|&n| n == DIMS.len() - 1));
}

#[test]
fn train_step_loss_bits_do_not_depend_on_kernel_threads() {
    // Whole-step determinism across the serial/split seam in the GEMM
    // tier: with 320 tokens at hidden 256, fc1 and fc2 are 84 M-MAC
    // products (at or above `256·512·512`, so they split across the
    // rank's kernel threads) while qkv (63 M) and proj (21 M) stay
    // serial. The launcher gives a one-rank world every thread of the
    // pool it is called under.
    const SEQ: usize = 32;
    const TOKENS: usize = 10 * SEQ;
    const VOCAB: usize = 64;
    let losses = |kernel_threads: usize| {
        let host = rayon::ThreadPoolBuilder::new()
            .num_threads(kernel_threads)
            .build()
            .unwrap();
        host.install(|| {
            run_spmd(1, move |comm| {
                if std::env::var_os("AXONN_THREADS").is_none() {
                    assert_eq!(rayon::current_num_threads(), kernel_threads);
                }
                let grid = GridTopology::new(1, 1, 1, 1, 0);
                let mut stack =
                    TransformerStack::new(&grid, VOCAB, 256, 4, 1, SEQ, SEED, OverlapConfig::all());
                let tokens: Vec<usize> = (0..TOKENS).map(|i| (i * 5 + 1) % VOCAB).collect();
                let targets: Vec<usize> = (0..TOKENS).map(|i| (i * 3 + 2) % VOCAB).collect();
                (0..2)
                    .map(|_| {
                        stack
                            .train_step(&comm, &grid, &tokens, &targets, 0.01)
                            .to_bits()
                    })
                    .collect::<Vec<u32>>()
            })
        })
    };
    let serial = losses(1);
    assert!(serial[0][1] < serial[0][0], "loss did not fall: {serial:?}");
    assert_eq!(losses(2), serial, "1 vs 2 kernel threads");
    assert_eq!(losses(3), serial, "1 vs 3 kernel threads (ragged bands)");
}

#[test]
fn batched_serving_engine_matches_greedy_continuation_per_request() {
    // Tier-1 sentinel for the serving plane: eight streams decoded
    // together — one GEMM per layer per step, weights packed once —
    // must each read exactly like the model's own greedy continuation.
    use axonn::lm::{Gpt, GptModelConfig};
    use axonn::serve::{ServeConfig, ServeEngine, ServeRequest};
    use axonn::trace::LiveRegistry;

    let cfg = GptModelConfig {
        vocab: 48,
        seq_len: 24,
        dim: 32,
        n_heads: 4,
        n_layers: 2,
        seed: 21,
    };
    let model = Arc::new(Gpt::new(cfg.clone()));
    let mut engine = ServeEngine::new(
        model,
        ServeConfig {
            max_active: 8,
            ..ServeConfig::default()
        },
        &LiveRegistry::new(),
    );
    let requests: Vec<(Vec<usize>, usize)> = (0..8)
        .map(|i| ((0..2 + i).map(|j| (7 * i + 3 * j) % 48).collect(), 6 + i))
        .collect();
    for (prompt, max_new_tokens) in &requests {
        engine
            .submit(ServeRequest {
                prompt: prompt.clone(),
                max_new_tokens: *max_new_tokens,
                deadline_steps: None,
            })
            .unwrap();
    }
    engine.step();
    assert_eq!(engine.in_flight(), 8, "all eight streams decode together");
    engine.run_until_idle(1_000);
    let mut done = engine.drain_completions();
    done.sort_by_key(|c| c.id);
    assert_eq!(done.len(), 8);
    let mut oracle = Gpt::new(cfg);
    for (c, (prompt, max_new_tokens)) in done.iter().zip(&requests) {
        assert_eq!(
            c.tokens,
            oracle.greedy_continuation(prompt, *max_new_tokens),
            "request {}",
            c.id
        );
    }
}
