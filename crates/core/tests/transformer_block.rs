//! The 4D-parallel transformer block against a serial reference:
//! identical seeds, identical math, every legal grid.

use axonn_core::{
    block_weight, distribute_input, distribute_output, GridTopology, KernelTuner, OverlapConfig,
    ParallelTransformerBlock,
};
use axonn_exec::run_spmd;
use axonn_tensor::{gelu, gemm, MatMode, Matrix};

const HIDDEN: usize = 16;
const HEADS: usize = 4;
const SEQ: usize = 4;
const SEED: u64 = 77;

// ---------- serial reference ----------

struct SerialBlock {
    gain1: Vec<f32>,
    bias1: Vec<f32>,
    gain2: Vec<f32>,
    bias2: Vec<f32>,
    qkv: Matrix,
    proj: Matrix,
    fc1: Matrix,
    fc2: Matrix,
}

fn layernorm(x: &Matrix, gain: &[f32], bias: &[f32]) -> Matrix {
    let (rows, h) = x.shape();
    let mut out = Matrix::zeros(rows, h);
    for r in 0..rows {
        let row = x.row(r);
        let mean: f32 = row.iter().sum::<f32>() / h as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / h as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        let o = out.row_mut(r);
        for c in 0..h {
            o[c] = (row[c] - mean) * inv * gain[c] + bias[c];
        }
    }
    out
}

fn attention(qkv: &Matrix, heads: usize, seq: usize) -> Matrix {
    let (rows, width) = qkv.shape();
    let hd = width / (3 * heads);
    let b = rows / seq;
    let scale = 1.0 / (hd as f32).sqrt();
    let mut out = Matrix::zeros(rows, heads * hd);
    for s in 0..b {
        for head in 0..heads {
            let off = head * 3 * hd;
            let mut q = Matrix::zeros(seq, hd);
            let mut k = Matrix::zeros(seq, hd);
            let mut v = Matrix::zeros(seq, hd);
            for t in 0..seq {
                let row = qkv.row(s * seq + t);
                q.row_mut(t).copy_from_slice(&row[off..off + hd]);
                k.row_mut(t).copy_from_slice(&row[off + hd..off + 2 * hd]);
                v.row_mut(t)
                    .copy_from_slice(&row[off + 2 * hd..off + 3 * hd]);
            }
            let mut scores = gemm(MatMode::NT, &q, &k);
            scores.scale(scale);
            let mut p = Matrix::zeros(seq, seq);
            for i in 0..seq {
                let srow = scores.row(i);
                let maxv = srow[..=i].iter().cloned().fold(f32::MIN, f32::max);
                let denom: f32 = srow[..=i].iter().map(|&x| (x - maxv).exp()).sum();
                for j in 0..=i {
                    p[(i, j)] = (srow[j] - maxv).exp() / denom;
                }
            }
            let o = gemm(MatMode::NN, &p, &v);
            for t in 0..seq {
                out.row_mut(s * seq + t)[head * hd..(head + 1) * hd].copy_from_slice(o.row(t));
            }
        }
    }
    out
}

impl SerialBlock {
    fn new() -> Self {
        SerialBlock {
            gain1: vec![1.0; HIDDEN],
            bias1: vec![0.0; HIDDEN],
            gain2: vec![1.0; HIDDEN],
            bias2: vec![0.0; HIDDEN],
            qkv: block_weight(HIDDEN, 3 * HIDDEN, SEED, 1),
            proj: block_weight(HIDDEN, HIDDEN, SEED, 2),
            fc1: block_weight(HIDDEN, 4 * HIDDEN, SEED, 3),
            fc2: block_weight(4 * HIDDEN, HIDDEN, SEED, 4),
        }
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        let n1 = layernorm(x, &self.gain1, &self.bias1);
        let qkv = gemm(MatMode::NN, &n1, &self.qkv);
        let attn = attention(&qkv, HEADS, SEQ);
        let mut h = gemm(MatMode::NN, &attn, &self.proj);
        h.add_assign(x);
        let n2 = layernorm(&h, &self.gain2, &self.bias2);
        let mut a = gemm(MatMode::NN, &n2, &self.fc1);
        a.map_inplace(gelu);
        let mut out = gemm(MatMode::NN, &a, &self.fc2);
        out.add_assign(&h);
        out
    }
}

// ---------- helpers ----------

/// Global batch: 4 sequences of SEQ tokens.
fn batch() -> Matrix {
    Matrix::random(4 * SEQ, HIDDEN, 0.8, 900)
}

fn parallel_forward(gx: usize, gy: usize, gz: usize, gd: usize) -> Vec<(Matrix, Matrix)> {
    // Returns (local output, expected local slice of serial output).
    let serial_out = SerialBlock::new().forward(&batch());
    run_spmd(gx * gy * gz * gd, move |comm| {
        let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
        let mut block = ParallelTransformerBlock::new(&grid, HIDDEN, HEADS, SEQ, SEED, 0);
        let x_local = distribute_input(&batch(), &grid, false);
        let out = block.forward(&comm, &grid, &x_local);
        // Block output columns split like a *transposed* layer's output
        // (fc2 is transposed): cols over gy, replicated over gx.
        let expect = distribute_output(&serial_out, &grid, true);
        (out, expect)
    })
}

// ---------- tests ----------

#[test]
fn serial_block_is_causal() {
    let b = SerialBlock::new();
    let x1 = batch();
    let mut x2 = x1.clone();
    for c in 0..HIDDEN {
        x2[(SEQ - 1, c)] += 1.0; // last token of the first sequence
    }
    let y1 = b.forward(&x1);
    let y2 = b.forward(&x2);
    for t in 0..SEQ - 1 {
        for c in 0..HIDDEN {
            assert!((y1[(t, c)] - y2[(t, c)]).abs() < 1e-6, "future leak at {t}");
        }
    }
}

#[test]
fn forward_matches_serial_on_trivial_grid() {
    for (out, expect) in parallel_forward(1, 1, 1, 1) {
        assert!(
            out.approx_eq(&expect, 1e-4),
            "max diff {}",
            out.max_abs_diff(&expect)
        );
    }
}

#[test]
fn forward_matches_serial_on_x_split() {
    // Heads split across X (2 heads per rank).
    for (out, expect) in parallel_forward(2, 1, 1, 1) {
        assert!(
            out.approx_eq(&expect, 1e-4),
            "max diff {}",
            out.max_abs_diff(&expect)
        );
    }
}

#[test]
fn forward_matches_serial_on_y_split() {
    for (out, expect) in parallel_forward(1, 2, 1, 1) {
        assert!(
            out.approx_eq(&expect, 1e-4),
            "max diff {}",
            out.max_abs_diff(&expect)
        );
    }
}

#[test]
fn forward_matches_serial_on_z_split() {
    for (out, expect) in parallel_forward(1, 1, 2, 1) {
        assert!(
            out.approx_eq(&expect, 1e-4),
            "max diff {}",
            out.max_abs_diff(&expect)
        );
    }
}

#[test]
fn forward_matches_serial_on_data_split() {
    for (out, expect) in parallel_forward(1, 1, 1, 2) {
        assert!(
            out.approx_eq(&expect, 1e-4),
            "max diff {}",
            out.max_abs_diff(&expect)
        );
    }
}

#[test]
fn forward_matches_serial_on_full_4d_grid() {
    for (out, expect) in parallel_forward(2, 2, 2, 2) {
        assert!(
            out.approx_eq(&expect, 1e-4),
            "max diff {}",
            out.max_abs_diff(&expect)
        );
    }
}

#[test]
fn backward_gradients_match_finite_differences() {
    // End-to-end gradient check of the parallel block on a 2x2x1x1 grid:
    // loss = weighted sum of outputs; compare dŴ for a probe weight
    // against central differences of the serial block.
    let wts: Vec<f32> = (0..4 * SEQ * HIDDEN)
        .map(|i| ((i * 37 % 19) as f32 - 9.0) / 9.0)
        .collect();

    // Serial loss as a function of one perturbed qkv weight element.
    let loss_with_qkv_delta = |delta: f32| -> f32 {
        let mut b = SerialBlock::new();
        b.qkv[(1, 2)] += delta;
        let out = b.forward(&batch());
        out.as_slice().iter().zip(&wts).map(|(a, w)| a * w).sum()
    };

    // Parallel gradient for the same element.
    let wts2 = wts.clone();
    let grads = run_spmd(4, move |comm| {
        let grid = GridTopology::new(2, 2, 1, 1, comm.rank());
        let mut block = ParallelTransformerBlock::new(&grid, HIDDEN, HEADS, SEQ, SEED, 0);
        let mut tuner = KernelTuner::new(false);
        let x_local = distribute_input(&batch(), &grid, false);
        let out = block.forward(&comm, &grid, &x_local);
        // Local slice of the global dL/dout.
        let full_d = Matrix::from_vec(4 * SEQ, HIDDEN, wts2.clone());
        let d_local = distribute_output(&full_d, &grid, true);
        let _ = out;
        let (_, pending) =
            block.backward(&comm, &grid, &d_local, OverlapConfig::default(), &mut tuner);
        assert!(pending.is_empty());
        // Reassemble the full qkv gradient.
        block.qkv.grad_shard().clone()
    });
    // Locate element (1, 2) of the global qkv weight: with gy=2 row
    // blocks of 8 and gx=2 col blocks of 24, (1,2) sits in row-block 0,
    // col-block 0 (head-major layout is only a column *interpretation*).
    // That block belongs to ranks with y=0, x=0 → rank 0 (gz=1).
    let g = &grads[0];
    let analytic = g[(1, 2)];
    let h = 1e-2;
    let fd = (loss_with_qkv_delta(h) - loss_with_qkv_delta(-h)) / (2.0 * h);
    assert!(
        (analytic - fd).abs() < 5e-2 * (1.0 + fd.abs()),
        "analytic {analytic} vs fd {fd}"
    );
}

#[test]
fn training_reduces_loss_on_all_grids() {
    // A few SGD steps on sum-of-squares toward a fixed target must reduce
    // the loss identically across grids.
    let target = Matrix::random(4 * SEQ, HIDDEN, 0.5, 901);
    let mut reference: Option<Vec<f32>> = None;
    for (gx, gy, gz, gd) in [(1, 1, 1, 1), (2, 2, 1, 1), (2, 1, 2, 1), (1, 2, 1, 2)] {
        let t2 = target.clone();
        let losses = run_spmd(gx * gy * gz * gd, move |comm| {
            let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
            let mut block = ParallelTransformerBlock::new(&grid, HIDDEN, HEADS, SEQ, SEED, 0);
            let mut tuner = KernelTuner::new(false);
            let world = axonn_collectives::ProcessGroup::new((0..grid.total_ranks()).collect());
            let mut out_losses = Vec::new();
            for _ in 0..3 {
                let x_local = distribute_input(&batch(), &grid, false);
                let out = block.forward(&comm, &grid, &x_local);
                let t_local = distribute_output(&t2, &grid, true);
                let mut d = out;
                d.sub_assign(&t_local);
                let local: f32 = d.as_slice().iter().map(|v| 0.5 * v * v).sum();
                let mut buf = vec![local];
                comm.all_reduce(&world, &mut buf);
                out_losses.push(buf[0] / grid.row_parts(true) as f32);
                let (_, pending) =
                    block.backward(&comm, &grid, &d, OverlapConfig::all(), &mut tuner);
                for p in pending {
                    let (id, grad) = p.wait();
                    // Map back: qkv=0, proj=1, fc1=2, fc2=3.
                    let layers = block.fc_layers_mut();
                    let idx = layers.iter().position(|l| l.layer_id == id).unwrap();
                    layers[idx].accumulate_grad(grad);
                }
                // Data-parallel sync.
                let dg = grid.data_group().clone();
                let mut grads: Vec<&mut Matrix> = Vec::new();
                let layers = block.fc_layers_mut();
                for l in layers {
                    grads.push(l.grad_shard_mut());
                }
                axonn_core::dataparallel::sync_gradients(&comm, &dg, &mut grads);
                block.sync_norm_grads(&comm, &grid);
                block.apply_sgd(0.005);
            }
            out_losses
        });
        let l0 = &losses[0];
        assert!(
            l0.last().unwrap() < &l0[0],
            "grid {gx}x{gy}x{gz}x{gd}: loss did not decrease: {l0:?}"
        );
        match &reference {
            None => reference = Some(l0.clone()),
            Some(r) => {
                for (a, b) in r.iter().zip(l0) {
                    assert!(
                        ((a - b) / a).abs() < 2e-3,
                        "grid {gx}x{gy}x{gz}x{gd}: losses diverged: {a} vs {b}"
                    );
                }
            }
        }
    }
}
