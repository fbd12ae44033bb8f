//! End-to-end parallel GPT (embedding → blocks → head → vocab-parallel
//! cross-entropy) against a serial reference with identical seeds.

use axonn_collectives::ProcessGroup;
use axonn_core::{
    block_weight, vocab_parallel_cross_entropy, GridTopology, OverlapConfig, TransformerStack,
};
use axonn_exec::run_spmd;
use axonn_tensor::{gelu, gemm, MatMode, Matrix};

const VOCAB: usize = 16;
const HIDDEN: usize = 16;
const HEADS: usize = 4;
const SEQ: usize = 4;
const LAYERS: usize = 2;
const SEED: u64 = 314;

fn global_batch() -> (Vec<usize>, Vec<usize>) {
    // 4 sequences of SEQ tokens; next-token targets.
    let tokens: Vec<usize> = (0..4 * SEQ).map(|i| (i * 7 + 3) % VOCAB).collect();
    let targets: Vec<usize> = (0..4 * SEQ).map(|i| (i * 5 + 1) % VOCAB).collect();
    (tokens, targets)
}

// --- serial reference (mirrors the parallel construction seed-for-seed) ---

mod serial {
    use super::*;

    pub fn layernorm(x: &Matrix) -> Matrix {
        let (rows, h) = x.shape();
        let mut out = Matrix::zeros(rows, h);
        for r in 0..rows {
            let row = x.row(r);
            let mean: f32 = row.iter().sum::<f32>() / h as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / h as f32;
            let inv = 1.0 / (var + 1e-5).sqrt();
            for c in 0..h {
                out[(r, c)] = (row[c] - mean) * inv;
            }
        }
        out
    }

    pub fn attention(qkv: &Matrix) -> Matrix {
        let (rows, width) = qkv.shape();
        let hd = width / (3 * HEADS);
        let b = rows / SEQ;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut out = Matrix::zeros(rows, HEADS * hd);
        for s in 0..b {
            for head in 0..HEADS {
                let off = head * 3 * hd;
                let mut q = Matrix::zeros(SEQ, hd);
                let mut k = Matrix::zeros(SEQ, hd);
                let mut v = Matrix::zeros(SEQ, hd);
                for t in 0..SEQ {
                    let row = qkv.row(s * SEQ + t);
                    q.row_mut(t).copy_from_slice(&row[off..off + hd]);
                    k.row_mut(t).copy_from_slice(&row[off + hd..off + 2 * hd]);
                    v.row_mut(t)
                        .copy_from_slice(&row[off + 2 * hd..off + 3 * hd]);
                }
                let mut scores = gemm(MatMode::NT, &q, &k);
                scores.scale(scale);
                let mut p = Matrix::zeros(SEQ, SEQ);
                for i in 0..SEQ {
                    let srow = scores.row(i);
                    let maxv = srow[..=i].iter().cloned().fold(f32::MIN, f32::max);
                    let denom: f32 = srow[..=i].iter().map(|&x| (x - maxv).exp()).sum();
                    for j in 0..=i {
                        p[(i, j)] = (srow[j] - maxv).exp() / denom;
                    }
                }
                let o = gemm(MatMode::NN, &p, &v);
                for t in 0..SEQ {
                    out.row_mut(s * SEQ + t)[head * hd..(head + 1) * hd].copy_from_slice(o.row(t));
                }
            }
        }
        out
    }

    /// Serial forward pass producing the logits and the mean CE loss.
    pub fn forward_loss(tokens: &[usize], targets: &[usize]) -> f32 {
        let emb_table = block_weight(VOCAB, HIDDEN, SEED, 90);
        let mut x = Matrix::zeros(tokens.len(), HIDDEN);
        for (i, &t) in tokens.iter().enumerate() {
            x.row_mut(i).copy_from_slice(emb_table.row(t));
        }
        for layer in 0..LAYERS {
            let s = SEED.wrapping_add(1 + layer as u64);
            let qkv_w = block_weight(HIDDEN, 3 * HIDDEN, s, 1);
            let proj_w = block_weight(HIDDEN, HIDDEN, s, 2);
            let fc1_w = block_weight(HIDDEN, 4 * HIDDEN, s, 3);
            let fc2_w = block_weight(4 * HIDDEN, HIDDEN, s, 4);
            let n1 = layernorm(&x);
            let qkv = gemm(MatMode::NN, &n1, &qkv_w);
            let attn = attention(&qkv);
            let mut h = gemm(MatMode::NN, &attn, &proj_w);
            h.add_assign(&x);
            let n2 = layernorm(&h);
            let mut a = gemm(MatMode::NN, &n2, &fc1_w);
            a.map_inplace(gelu);
            let mut out = gemm(MatMode::NN, &a, &fc2_w);
            out.add_assign(&h);
            x = out;
        }
        let x = layernorm(&x);
        let head_w = block_weight(HIDDEN, VOCAB, SEED, 91);
        let logits = gemm(MatMode::NN, &x, &head_w);
        // Mean cross-entropy.
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            let row = logits.row(r);
            let m = row.iter().cloned().fold(f32::MIN, f32::max);
            let denom: f32 = row.iter().map(|&v| (v - m).exp()).sum();
            loss += -(row[t] - m - denom.ln()) / targets.len() as f32;
        }
        loss
    }
}

fn parallel_losses(gx: usize, gy: usize, gz: usize, gd: usize, steps: usize) -> Vec<f32> {
    let out = run_spmd(gx * gy * gz * gd, move |comm| {
        let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
        let mut stack = TransformerStack::new(
            &grid,
            VOCAB,
            HIDDEN,
            HEADS,
            LAYERS,
            SEQ,
            SEED,
            OverlapConfig::all(),
        );
        let (tokens, targets) = global_batch();
        (0..steps)
            .map(|_| stack.train_step(&comm, &grid, &tokens, &targets, 0.01))
            .collect::<Vec<f32>>()
    });
    // Every rank must report the same losses.
    for r in &out[1..] {
        for (a, b) in out[0].iter().zip(r) {
            assert!((a - b).abs() < 1e-4, "ranks disagree: {a} vs {b}");
        }
    }
    out.into_iter().next().unwrap()
}

#[test]
fn first_loss_matches_serial_reference_on_all_grids() {
    let (tokens, targets) = global_batch();
    let serial = serial::forward_loss(&tokens, &targets);
    for (gx, gy, gz, gd) in [
        (1, 1, 1, 1),
        (2, 1, 1, 1),
        (1, 2, 1, 1),
        (1, 1, 2, 1),
        (1, 1, 1, 2),
        (2, 2, 1, 1),
        (2, 2, 2, 1),
        (2, 1, 2, 2),
    ] {
        let p = parallel_losses(gx, gy, gz, gd, 1)[0];
        let rel = ((p - serial) / serial).abs();
        assert!(
            rel < 2e-3,
            "grid {gx}x{gy}x{gz}x{gd}: serial {serial} vs parallel {p}"
        );
    }
}

#[test]
fn training_trajectories_agree_across_grids() {
    let reference = parallel_losses(1, 1, 1, 1, 4);
    assert!(
        reference.last().unwrap() < &reference[0],
        "loss should decrease: {reference:?}"
    );
    for (gx, gy, gz, gd) in [(2, 1, 1, 1), (1, 1, 2, 1), (2, 2, 1, 1), (1, 2, 1, 2)] {
        let losses = parallel_losses(gx, gy, gz, gd, 4);
        for (a, b) in reference.iter().zip(&losses) {
            let rel = ((a - b) / a).abs();
            assert!(rel < 5e-3, "grid {gx}x{gy}x{gz}x{gd} diverged: {a} vs {b}");
        }
    }
}

#[test]
fn vocab_parallel_ce_matches_direct_computation() {
    // 2-way vocab split: reconstructed loss/gradient equals a direct
    // full-vocab computation.
    let rows = 3;
    let full = Matrix::random(rows, VOCAB, 2.0, 9);
    let targets = [1usize, 9, 14];
    // Direct.
    let mut direct_loss = 0.0;
    for (r, &t) in targets.iter().enumerate() {
        let row = full.row(r);
        let m = row.iter().cloned().fold(f32::MIN, f32::max);
        let denom: f32 = row.iter().map(|&v| (v - m).exp()).sum();
        direct_loss += -(row[t] - m - denom.ln()) / rows as f32;
    }
    // Parallel over 2 ranks.
    let full2 = full.clone();
    let out = run_spmd(2, move |comm| {
        let g = ProcessGroup::new(vec![0, 1]);
        let half = VOCAB / 2;
        let me = comm.rank();
        let local = Matrix::from_fn(rows, half, |r, c| full2[(r, me * half + c)]);
        let ce = vocab_parallel_cross_entropy(&comm, &g, me, &local, &targets, rows);
        (ce.loss, ce.d_logits_local)
    });
    for (loss, _) in &out {
        assert!((loss - direct_loss).abs() < 1e-4, "{loss} vs {direct_loss}");
    }
    // Gradient slices reassemble to softmax - onehot, scaled by 1/rows.
    for (r, &t) in targets.iter().enumerate() {
        let row = full.row(r);
        let m = row.iter().cloned().fold(f32::MIN, f32::max);
        let denom: f32 = row.iter().map(|&v| (v - m).exp()).sum();
        for (c, &logit) in row.iter().enumerate().take(VOCAB) {
            let p = (logit - m).exp() / denom;
            let expect = (p - if c == t { 1.0 } else { 0.0 }) / rows as f32;
            let half = VOCAB / 2;
            let got = if c < half {
                out[0].1[(r, c)]
            } else {
                out[1].1[(r, c - half)]
            };
            assert!((got - expect).abs() < 1e-5, "({r},{c}): {got} vs {expect}");
        }
    }
}
