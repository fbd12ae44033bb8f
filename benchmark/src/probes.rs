//! Layer probes: short fixed-count loops that call one public function
//! of one layer directly, so a layer's cost is known apart from the
//! workload that contains it. Every traced run reports all of them.

use crate::report::Metrics;
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::{serve, sys, train};
use axonn_collectives::{Comm, ProcessGroup};
use axonn_ft::{CheckpointStore, Manifest, ShardEntry, MANIFEST_MAGIC, MANIFEST_VERSION};
use axonn_lm::decode::{self, KvCache};
use axonn_serve::Sampling;
use axonn_tensor::{gemm_into_stats, MatMode, Matrix};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median seconds of `reps` calls after three untimed ones.
fn time_reps(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    percentile(&samples, 0.5)
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// 256×128 · 128×512 in each operand mode (the training FC shape), and
/// the 1×128 · 128×512 product a decode stream issues per layer.
fn tensor(m: &mut Metrics) {
    let (rows, k, n) = (256, 128, 512);
    let flops = 2.0 * (rows * k * n) as f64;
    let mut c = Matrix::zeros(rows, n);
    let cases = [
        (
            "tensor.probe_gemm_nn_gflops",
            MatMode::NN,
            (rows, k),
            (k, n),
        ),
        (
            "tensor.probe_gemm_nt_gflops",
            MatMode::NT,
            (rows, k),
            (n, k),
        ),
        (
            "tensor.probe_gemm_tn_gflops",
            MatMode::TN,
            (k, rows),
            (k, n),
        ),
    ];
    let mut simd = false;
    for (name, mode, a_shape, b_shape) in cases {
        let a = Matrix::random(a_shape.0, a_shape.1, 1.0, 11);
        let b = Matrix::random(b_shape.0, b_shape.1, 1.0, 12);
        let s = time_reps(20, || {
            simd = gemm_into_stats(mode, black_box(&a), black_box(&b), &mut c).simd;
        });
        m.set(name, flops / s / 1e9);
    }
    let a = Matrix::random(1, k, 1.0, 13);
    let b = Matrix::random(k, n, 1.0, 14);
    let mut row = Matrix::zeros(1, n);
    let s = time_reps(200, || {
        gemm_into_stats(MatMode::NN, black_box(&a), black_box(&b), &mut row);
    });
    m.set("tensor.probe_gemm_m1_us", us(s));
    m.set("tensor.simd_active", f64::from(u8::from(simd)));
}

/// Two ranks, each collective alone: 4 KiB for latency, 1 MiB for
/// bandwidth. Rank 0's median; the peer runs the same loop.
fn collectives(m: &mut Metrics) {
    const SMALL: usize = 4 << 10 >> 2; // f32s in 4 KiB
    const LARGE: usize = 1 << 20 >> 2; // f32s in 1 MiB
    let results = axonn_exec::run_spmd(2, |comm: Comm| {
        let world = ProcessGroup::new(vec![0, 1]);
        let mut small = vec![1.0f32; SMALL];
        let mut large = vec![1.0f32; LARGE];
        let half = vec![1.0f32; LARGE / 2];
        [
            time_reps(200, || comm.all_reduce(&world, black_box(&mut small))),
            time_reps(20, || comm.all_reduce(&world, black_box(&mut large))),
            time_reps(20, || {
                black_box(comm.all_gather(&world, black_box(&half)));
            }),
            time_reps(20, || {
                black_box(comm.reduce_scatter(&world, black_box(&large)));
            }),
            time_reps(200, || comm.barrier(&world)),
        ]
    });
    let [ar_small, ar_large, ag, rs, barrier] = results[0];
    m.set("collectives.probe_all_reduce_4k_us", us(ar_small));
    m.set("collectives.probe_all_reduce_1m_us", us(ar_large));
    m.set("collectives.probe_all_gather_1m_us", us(ag));
    m.set("collectives.probe_reduce_scatter_1m_us", us(rs));
    m.set("collectives.probe_barrier_us", us(barrier));
    m.set(
        "collectives.probe_all_reduce_1m_gbps",
        (LARGE * 4) as f64 / ar_large / 1e9,
    );
}

/// One stream on the serving model: a 64-token prefill, then decode
/// steps at contexts 64..96.
fn lm(m: &mut Metrics) {
    let model = serve::model();
    let prompt: Vec<usize> = (0..64).map(|i| (i * 37 + 5) % model.cfg.vocab).collect();
    let mut cache = KvCache::for_model(&model.cfg);
    let s = time_reps(10, || {
        cache.reset();
        black_box(decode::prefill(&model, black_box(&prompt), &mut cache));
    });
    m.set("lm.probe_prefill_us_per_token", us(s) / prompt.len() as f64);
    let mut token = 1;
    let steps: Vec<f64> = (0..32)
        .map(|_| {
            let t0 = Instant::now();
            let row = decode::decode_step(&model, token, &mut cache);
            let dt = t0.elapsed().as_secs_f64();
            token = decode::argmax(&row);
            dt
        })
        .collect();
    m.set("lm.probe_decode_step_us", us(percentile(&steps, 0.5)));
}

/// The sampler on one logits row, and tensor-parallel decode over two
/// ranks (8 prompt + 56 generated tokens, world launch included).
fn serving(m: &mut Metrics) {
    use rand::SeedableRng;
    let model = serve::model();
    let row: Vec<f32> = (0..model.cfg.vocab)
        .map(|i| ((i * 7919) % 1013) as f32)
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let reps = 2000;
    let t0 = Instant::now();
    for _ in 0..reps {
        black_box(axonn_serve::sampler::sample(
            black_box(&row),
            Sampling::Greedy,
            &mut rng,
        ));
    }
    m.set(
        "serve.probe_sample_us",
        us(t0.elapsed().as_secs_f64()) / reps as f64,
    );

    let prompt: Vec<usize> = (0..8).map(|i| (i * 29 + 3) % model.cfg.vocab).collect();
    let registry = axonn_trace::LiveRegistry::new();
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(axonn_serve::tp_greedy_spmd(
                &model, 2, &prompt, 56, &registry,
            ));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    m.set(
        "serve.probe_tp2_decode_us_per_token",
        us(median(&runs)) / 64.0,
    );
}

/// Save and load the training model's weights as one rank's shard, in a
/// directory of the benchmark's own that is removed afterwards.
fn checkpoint(m: &mut Metrics, scratch: &Path) -> Result<(), String> {
    let dir = scratch.join(format!("probe_ckpt_{}", std::process::id()));
    let store = CheckpointStore::new(&dir);
    let weights = train::serial_weights();
    let layers: Vec<&Matrix> = weights.iter().collect();
    let mut save = Vec::new();
    let mut load = Vec::new();
    for step in 0..3u64 {
        let t0 = Instant::now();
        let sums = store
            .save_shard(step, 0, &layers)
            .map_err(|e| e.to_string())?;
        save.push(t0.elapsed().as_secs_f64());
        let manifest = Manifest {
            magic: MANIFEST_MAGIC.to_string(),
            version: MANIFEST_VERSION,
            step,
            seed: 0,
            gx: 1,
            gy: 1,
            gz: 1,
            gd: 1,
            dims: Vec::new(),
            batch_rows: 0,
            shards: vec![ShardEntry {
                rank: 0,
                x: 0,
                y: 0,
                z: 0,
                d: 0,
                layer_checksums: sums.iter().map(|s| format!("{s:016x}")).collect(),
            }],
        };
        let t0 = Instant::now();
        let shard = store.load_shard(&manifest, 0).map_err(|e| e.to_string())?;
        load.push(t0.elapsed().as_secs_f64());
        if shard.layers.len() != layers.len() {
            return Err("checkpoint probe: layer count changed on reload".into());
        }
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {dir:?}: {e}"))?;
    m.set("ft.probe_shard_save_ms", median(&save) * 1e3);
    m.set("ft.probe_shard_load_ms", median(&load) * 1e3);
    Ok(())
}

pub fn run_all(m: &mut Metrics, spans: &mut Spans, scratch: &Path) -> Result<(), String> {
    type Probe = fn(&mut Metrics);
    let probes: [(&'static str, Probe); 5] = [
        ("probe:tensor", tensor),
        ("probe:collectives", collectives),
        ("probe:lm", lm),
        ("probe:serve", serving),
        ("probe:memcpy", |m| {
            m.set("harness.memcpy_gbps", sys::memcpy_gbps())
        }),
    ];
    for (name, probe) in probes {
        let span = spans.begin(name, None);
        probe(m);
        spans.end(span);
    }
    let span = spans.begin("probe:ft", None);
    let r = checkpoint(m, scratch);
    spans.end(span);
    r
}
