//! A 4D-parallel transformer block, built from Algorithm-1 FC layers.
//!
//! The paper parallelizes GPT training by running every fully-connected
//! layer (QKV, attention projection, the two MLP matrices) under
//! Algorithm 1, with the attention *core* (scores, softmax, weighted
//! values) computed locally: heads are divided by the QKV layer's column
//! split and token rows are divided at sequence boundaries by the Z/data
//! split, so softmax(QKᵀ)·V touches only rank-local data — exactly why
//! Section V-A can "focus on parallelizing FC layers".
//!
//! Layout invariants (see `layer.rs` for the FC block distributions):
//!
//! * activations enter a block as `(m/G_z) × (h/g)` column slices,
//!   replicated across the complementary tensor group;
//! * the QKV weight is stored *head-major* — per head `[Q | K | V]`
//!   columns — so an X-column block is a set of whole heads;
//! * LayerNorm statistics are formed with a row-group all-reduce of
//!   per-row partial sums (sequence-parallel layernorm);
//! * the four FC layers alternate normal/transposed (QKV, proj, fc1,
//!   fc2), which makes every residual connection line up without data
//!   movement.

use crate::grid::GridTopology;
use crate::layer::{OverlapConfig, ParallelLinear, PendingGrad, Precision};
use crate::network::Activation;
use crate::tuner::KernelTuner;
use axonn_collectives::Comm;
use axonn_tensor::{gemm, MatMode, Matrix};

/// Sequence-parallel LayerNorm: features are column-split across the
/// `row group`, rows are local; statistics are all-reduced across the
/// row group.
pub struct ParallelLayerNorm {
    /// This rank's slice of the per-feature gain (initialised to 1).
    pub gain: Matrix,
    /// This rank's slice of the per-feature bias (initialised to 0).
    pub bias: Matrix,
    pub gain_grad: Matrix,
    pub bias_grad: Matrix,
    /// Global feature width.
    pub width: usize,
    /// Whether the *following* FC layer is transposed — determines which
    /// group the features are split over.
    pub transposed: bool,
    eps: f32,
    cache: Option<(Matrix, Vec<f32>, Vec<f32>)>, // x_local, mean, inv_std
}

impl ParallelLayerNorm {
    pub fn new(grid: &GridTopology, width: usize, transposed: bool) -> Self {
        let parts = grid.row_parts(transposed);
        assert_eq!(width % parts, 0, "layernorm width must divide row parts");
        let local = width / parts;
        ParallelLayerNorm {
            gain: Matrix::full(1, local, 1.0),
            bias: Matrix::zeros(1, local),
            gain_grad: Matrix::zeros(1, local),
            bias_grad: Matrix::zeros(1, local),
            width,
            transposed,
            eps: 1e-5,
            cache: None,
        }
    }

    pub fn forward(&mut self, comm: &Comm, grid: &GridTopology, x: &Matrix) -> Matrix {
        let (rows, local) = x.shape();
        assert_eq!(local, self.gain.cols(), "layernorm slice width mismatch");
        // Partial sums and sums of squares per row, reduced across the
        // row group (one fused buffer: [sums..., sumsqs...]).
        let mut stats = vec![0.0f32; 2 * rows];
        for r in 0..rows {
            let row = x.row(r);
            stats[r] = row.iter().sum();
            stats[rows + r] = row.iter().map(|v| v * v).sum();
        }
        comm.all_reduce(grid.row_group(self.transposed), &mut stats);
        let h = self.width as f32;
        let mut out = Matrix::zeros(rows, local);
        let mut means = Vec::with_capacity(rows);
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let mean = stats[r] / h;
            let var = stats[rows + r] / h - mean * mean;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            let xr = x.row(r);
            let or = out.row_mut(r);
            for c in 0..local {
                or[c] =
                    (xr[c] - mean) * inv_std * self.gain.as_slice()[c] + self.bias.as_slice()[c];
            }
            means.push(mean);
            inv_stds.push(inv_std);
        }
        self.cache = Some((x.clone(), means, inv_stds));
        out
    }

    pub fn backward(&mut self, comm: &Comm, grid: &GridTopology, dy: &Matrix) -> Matrix {
        let (x, means, inv_stds) = self
            .cache
            .take()
            .expect("layernorm backward before forward");
        let (rows, local) = x.shape();
        let h = self.width as f32;
        // Cross-feature reductions: Σ dnorm and Σ dnorm·norm per row,
        // partial locally then all-reduced across the row group.
        let mut red = vec![0.0f32; 2 * rows];
        let gains = self.gain.as_slice().to_vec();
        for r in 0..rows {
            let xr = x.row(r);
            let dyr = dy.row(r);
            let (mean, inv_std) = (means[r], inv_stds[r]);
            for c in 0..local {
                let norm = (xr[c] - mean) * inv_std;
                let dnorm = dyr[c] * gains[c];
                red[r] += dnorm;
                red[rows + r] += dnorm * norm;
                self.gain_grad.as_mut_slice()[c] += dyr[c] * norm;
                self.bias_grad.as_mut_slice()[c] += dyr[c];
            }
        }
        comm.all_reduce(grid.row_group(self.transposed), &mut red);
        let mut dx = Matrix::zeros(rows, local);
        for r in 0..rows {
            let xr = x.row(r);
            let dyr = dy.row(r);
            let (mean, inv_std) = (means[r], inv_stds[r]);
            let dr = dx.row_mut(r);
            for c in 0..local {
                let norm = (xr[c] - mean) * inv_std;
                let dnorm = dyr[c] * gains[c];
                dr[c] = inv_std * (dnorm - red[r] / h - norm * red[rows + r] / h);
            }
        }
        dx
    }

    /// Gain/bias gradients are summed over local rows; rows are split
    /// over Z (and data), so finish the reduction across those groups.
    ///
    /// The data stage uses the canonical-order all-reduce so the result
    /// is bitwise comparable with the bucketed gradient pipeline, which
    /// reduces these tensors inside mixed buckets.
    pub fn sync_param_grads(&mut self, comm: &Comm, grid: &GridTopology) {
        if grid.gz == 1 && grid.gd == 1 {
            return;
        }
        let mut buf = self.fused_grads();
        comm.all_reduce(grid.z_group(), &mut buf);
        comm.all_reduce_linear(grid.data_group(), &mut buf);
        self.split_grads(&buf);
    }

    /// Z-group-only gradient reduction: used by the bucketed pipeline,
    /// which takes over the data-parallel stage (and the update) itself.
    pub fn sync_param_grads_z(&mut self, comm: &Comm, grid: &GridTopology) {
        if grid.gz == 1 {
            return;
        }
        let mut buf = self.fused_grads();
        comm.all_reduce(grid.z_group(), &mut buf);
        self.split_grads(&buf);
    }

    fn fused_grads(&self) -> Vec<f32> {
        let mut buf = self.gain_grad.as_slice().to_vec();
        buf.extend_from_slice(self.bias_grad.as_slice());
        buf
    }

    fn split_grads(&mut self, buf: &[f32]) {
        let local = self.gain.cols();
        self.gain_grad = Matrix::from_vec(1, local, buf[..local].to_vec());
        self.bias_grad = Matrix::from_vec(1, local, buf[local..].to_vec());
    }

    pub fn apply_sgd(&mut self, lr: f32) {
        self.gain.axpy(-lr, &self.gain_grad);
        self.bias.axpy(-lr, &self.bias_grad);
        self.gain_grad.scale(0.0);
        self.bias_grad.scale(0.0);
    }
}

/// The local attention core: causal softmax attention over this rank's
/// sequences and heads. No communication — the layout guarantees
/// locality.
struct AttentionCore {
    seq_len: usize,
    head_dim: usize,
    cache: Option<Vec<(Matrix, Matrix, Matrix, Matrix)>>, // per (seq, head): Q, K, V, P
}

impl AttentionCore {
    fn new(seq_len: usize, head_dim: usize) -> Self {
        AttentionCore {
            seq_len,
            head_dim,
            cache: None,
        }
    }

    /// `qkv` is `(B_local·T) × (heads_local·3·hd)`, head-major. Returns
    /// `(B_local·T) × (heads_local·hd)`.
    fn forward(&mut self, qkv: &Matrix) -> Matrix {
        let (rows, width) = qkv.shape();
        let t = self.seq_len;
        let hd = self.head_dim;
        assert_eq!(rows % t, 0, "rows must be whole sequences");
        assert_eq!(width % (3 * hd), 0, "width must be whole heads");
        let b = rows / t;
        let heads = width / (3 * hd);
        let scale = 1.0 / (hd as f32).sqrt();
        let mut out = Matrix::zeros(rows, heads * hd);
        let mut cache = Vec::with_capacity(b * heads);
        for s in 0..b {
            for head in 0..heads {
                let off = head * 3 * hd;
                let mut q = Matrix::zeros(t, hd);
                let mut k = Matrix::zeros(t, hd);
                let mut v = Matrix::zeros(t, hd);
                for ti in 0..t {
                    let row = qkv.row(s * t + ti);
                    q.row_mut(ti).copy_from_slice(&row[off..off + hd]);
                    k.row_mut(ti).copy_from_slice(&row[off + hd..off + 2 * hd]);
                    v.row_mut(ti)
                        .copy_from_slice(&row[off + 2 * hd..off + 3 * hd]);
                }
                let mut scores = gemm(MatMode::NT, &q, &k);
                scores.scale(scale);
                let mut p = Matrix::zeros(t, t);
                for i in 0..t {
                    let srow = scores.row(i);
                    let maxv = srow[..=i].iter().cloned().fold(f32::MIN, f32::max);
                    let denom: f32 = srow[..=i].iter().map(|&x| (x - maxv).exp()).sum();
                    let prow = p.row_mut(i);
                    for j in 0..=i {
                        prow[j] = (srow[j] - maxv).exp() / denom;
                    }
                }
                let o = gemm(MatMode::NN, &p, &v);
                for ti in 0..t {
                    out.row_mut(s * t + ti)[head * hd..(head + 1) * hd].copy_from_slice(o.row(ti));
                }
                cache.push((q, k, v, p));
            }
        }
        self.cache = Some(cache);
        out
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        let cache = self
            .cache
            .take()
            .expect("attention backward before forward");
        let (rows, width) = d_out.shape();
        let t = self.seq_len;
        let hd = self.head_dim;
        let b = rows / t;
        let heads = width / hd;
        let scale = 1.0 / (hd as f32).sqrt();
        let mut d_qkv = Matrix::zeros(rows, heads * 3 * hd);
        for s in 0..b {
            for head in 0..heads {
                let (q, k, v, p) = &cache[s * heads + head];
                let mut d_o = Matrix::zeros(t, hd);
                for ti in 0..t {
                    d_o.row_mut(ti)
                        .copy_from_slice(&d_out.row(s * t + ti)[head * hd..(head + 1) * hd]);
                }
                let d_v = gemm(MatMode::TN, p, &d_o);
                let d_p = gemm(MatMode::NT, &d_o, v);
                let mut d_s = Matrix::zeros(t, t);
                for i in 0..t {
                    let prow = p.row(i);
                    let dprow = d_p.row(i);
                    let dot: f32 = (0..=i).map(|j| prow[j] * dprow[j]).sum();
                    let dsrow = d_s.row_mut(i);
                    for j in 0..=i {
                        dsrow[j] = prow[j] * (dprow[j] - dot) * scale;
                    }
                }
                let d_q = gemm(MatMode::NN, &d_s, k);
                let d_k = gemm(MatMode::TN, &d_s, q);
                let off = head * 3 * hd;
                for ti in 0..t {
                    let dst = d_qkv.row_mut(s * t + ti);
                    dst[off..off + hd].copy_from_slice(d_q.row(ti));
                    dst[off + hd..off + 2 * hd].copy_from_slice(d_k.row(ti));
                    dst[off + 2 * hd..off + 3 * hd].copy_from_slice(d_v.row(ti));
                }
            }
        }
        d_qkv
    }
}

/// A full pre-LN transformer block under the 4D algorithm:
/// `x + proj(attn(qkv(ln1(x))))`, then `h + fc2(gelu(fc1(ln2(h))))`.
pub struct ParallelTransformerBlock {
    pub ln1: ParallelLayerNorm,
    pub qkv: ParallelLinear,
    core: AttentionCore,
    pub proj: ParallelLinear,
    pub ln2: ParallelLayerNorm,
    pub fc1: ParallelLinear,
    pub fc2: ParallelLinear,
    pub n_heads: usize,
    pub seq_len: usize,
    /// Pre-GELU activations cached for the backward pass (the FC layers
    /// cache their own operands per Algorithm 1).
    cached_fc1_pre: Option<Matrix>,
}

/// Deterministic seeded weight shared with the serial reference.
pub fn block_weight(rows: usize, cols: usize, seed: u64, which: u64) -> Matrix {
    let scale = 1.0 / (rows as f32).sqrt();
    Matrix::random(
        rows,
        cols,
        scale,
        seed.wrapping_add(which.wrapping_mul(6151)),
    )
}

impl ParallelTransformerBlock {
    /// Build the block for this rank. Requires:
    /// * `hidden % (max(gx,gy) · gz) == 0` (FC divisibility),
    /// * `n_heads % gx == 0` (whole heads per QKV column block),
    /// * batch rows split at sequence boundaries (checked in `forward`).
    pub fn new(
        grid: &GridTopology,
        hidden: usize,
        n_heads: usize,
        seq_len: usize,
        seed: u64,
        layer_base: usize,
    ) -> Self {
        assert_eq!(hidden % n_heads, 0, "hidden must divide into heads");
        assert_eq!(
            n_heads % grid.col_parts(false),
            0,
            "heads ({n_heads}) must divide by the QKV column split ({})",
            grid.col_parts(false)
        );
        let qkv_w = block_weight(hidden, 3 * hidden, seed, 1);
        let proj_w = block_weight(hidden, hidden, seed, 2);
        let fc1_w = block_weight(hidden, 4 * hidden, seed, 3);
        let fc2_w = block_weight(4 * hidden, hidden, seed, 4);
        ParallelTransformerBlock {
            ln1: ParallelLayerNorm::new(grid, hidden, false),
            qkv: ParallelLinear::from_full_weight(grid, layer_base, &qkv_w, false),
            core: AttentionCore::new(seq_len, hidden / n_heads),
            proj: ParallelLinear::from_full_weight(grid, layer_base + 1, &proj_w, true),
            ln2: ParallelLayerNorm::new(grid, hidden, false),
            fc1: ParallelLinear::from_full_weight(grid, layer_base + 2, &fc1_w, false),
            fc2: ParallelLinear::from_full_weight(grid, layer_base + 3, &fc2_w, true),
            n_heads,
            seq_len,
            cached_fc1_pre: None,
        }
    }

    /// Forward: `x_local` is `(m/G_z) × (hidden/gy)`, sequence-aligned.
    pub fn forward(&mut self, comm: &Comm, grid: &GridTopology, x_local: &Matrix) -> Matrix {
        assert_eq!(
            x_local.rows() % self.seq_len,
            0,
            "local rows must be whole sequences (split batch by gd*gz at sequence boundaries)"
        );
        let n1 = self.ln1.forward(comm, grid, x_local);
        let qkv_out = self.qkv.forward(comm, grid, n1, Precision::F32);
        let attn = self.core.forward(&qkv_out);
        let proj_out = self.proj.forward(comm, grid, attn, Precision::F32);
        let mut h = proj_out;
        h.add_assign(x_local);

        let n2 = self.ln2.forward(comm, grid, &h);
        let fc1_pre = self.fc1.forward(comm, grid, n2, Precision::F32);
        let mut act = fc1_pre.clone();
        Activation::Gelu.apply(&mut act);
        let fc2_out = self.fc2.forward(comm, grid, act, Precision::F32);
        let mut out = fc2_out;
        out.add_assign(&h);

        self.cached_fc1_pre = Some(fc1_pre);
        out
    }

    /// Backward; returns `dx` and any deferred reduce-scatters (ORS).
    pub fn backward(
        &mut self,
        comm: &Comm,
        grid: &GridTopology,
        d_out: &Matrix,
        overlap: OverlapConfig,
        tuner: &mut KernelTuner,
    ) -> (Matrix, Vec<PendingGrad>) {
        let fc1_pre = self
            .cached_fc1_pre
            .take()
            .expect("block backward before forward");
        let mut pending = Vec::new();
        let mut push = |p: Option<PendingGrad>| {
            if let Some(p) = p {
                pending.push(p);
            }
        };

        // MLP half: out = h + fc2(gelu(fc1(ln2(h)))).
        let (mut d_act, p) = self
            .fc2
            .backward(comm, grid, d_out, overlap, tuner, Precision::F32);
        push(p);
        Activation::Gelu.backprop(&fc1_pre, &mut d_act);
        let (d_n2, p) = self
            .fc1
            .backward(comm, grid, &d_act, overlap, tuner, Precision::F32);
        push(p);
        let mut d_h = self.ln2.backward(comm, grid, &d_n2);
        d_h.add_assign(d_out); // residual

        // Attention half: h = x + proj(core(qkv(ln1(x)))).
        let (d_attn, p) = self
            .proj
            .backward(comm, grid, &d_h, overlap, tuner, Precision::F32);
        push(p);
        let d_qkv = self.core.backward(&d_attn);
        let (d_n1, p) = self
            .qkv
            .backward(comm, grid, &d_qkv, overlap, tuner, Precision::F32);
        push(p);
        let mut dx = self.ln1.backward(comm, grid, &d_n1);
        dx.add_assign(&d_h); // residual
        (dx, pending)
    }

    /// FC layers of the block, for gradient sync and updates.
    pub fn fc_layers_mut(&mut self) -> [&mut ParallelLinear; 4] {
        [&mut self.qkv, &mut self.proj, &mut self.fc1, &mut self.fc2]
    }

    /// One FC layer by block-local index (0 = qkv, 1 = proj, 2 = fc1,
    /// 3 = fc2).
    pub fn fc_mut(&mut self, which: usize) -> &mut ParallelLinear {
        match which {
            0 => &mut self.qkv,
            1 => &mut self.proj,
            2 => &mut self.fc1,
            3 => &mut self.fc2,
            other => panic!("no FC layer {other} in a block"),
        }
    }

    /// Finish LayerNorm parameter-gradient reductions (call once per
    /// batch, before the optimizer step).
    pub fn sync_norm_grads(&mut self, comm: &Comm, grid: &GridTopology) {
        self.ln1.sync_param_grads(comm, grid);
        self.ln2.sync_param_grads(comm, grid);
    }

    pub fn apply_sgd(&mut self, lr: f32) {
        self.ln1.apply_sgd(lr);
        self.ln2.apply_sgd(lr);
        for l in self.fc_layers_mut() {
            l.apply_sgd(lr);
        }
    }
}
