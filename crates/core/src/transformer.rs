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
use crate::layer::{copy_into, reshape, OverlapConfig, ParallelLinear, PendingGrad, Precision};
use crate::network::Activation;
use crate::tuner::KernelTuner;
use axonn_collectives::Comm;
use axonn_tensor::{gemm_into, MatMode, Matrix};

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
    /// The input `x`, kept for the rank's lifetime: written through
    /// [`Self::input_mut`], normalised by forward, read by backward.
    input: Matrix,
    /// Per-row mean and inverse standard deviation of `input`.
    means: Vec<f32>,
    inv_stds: Vec<f32>,
    /// Whether `input` holds this step's forward, not yet consumed by a
    /// backward.
    forward_pending: bool,
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
            input: Matrix::zeros(0, 0),
            means: Vec::new(),
            inv_stds: Vec::new(),
            forward_pending: false,
        }
    }

    /// The kept input, shaped `rows × (width/parts)`, for the caller to
    /// overwrite before [`Self::forward`]. Its old contents are stale.
    pub fn input_mut(&mut self, rows: usize) -> &mut Matrix {
        let local = self.gain.cols();
        reshape(&mut self.input, rows, local)
    }

    /// The input the last forward normalised.
    pub(crate) fn input(&self) -> &Matrix {
        &self.input
    }

    /// Normalise the kept input into `out`, which has the input's shape
    /// and is overwritten.
    pub fn forward(&mut self, comm: &Comm, grid: &GridTopology, out: &mut Matrix) {
        let x = &self.input;
        let (rows, local) = x.shape();
        assert_eq!(local, self.gain.cols(), "layernorm slice width mismatch");
        assert_eq!(
            out.shape(),
            (rows, local),
            "layernorm output shape mismatch"
        );
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
        self.means.clear();
        self.inv_stds.clear();
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
            self.means.push(mean);
            self.inv_stds.push(inv_std);
        }
        self.forward_pending = true;
    }

    /// # Panics
    /// Unless a forward ran since the last backward.
    pub fn backward(&mut self, comm: &Comm, grid: &GridTopology, dy: &Matrix) -> Matrix {
        assert!(
            std::mem::take(&mut self.forward_pending),
            "layernorm backward before forward"
        );
        let (x, means, inv_stds) = (&self.input, &self.means, &self.inv_stds);
        let (rows, local) = x.shape();
        let h = self.width as f32;
        // Cross-feature reductions: Σ dnorm and Σ dnorm·norm per row,
        // partial locally then all-reduced across the row group.
        let mut red = vec![0.0f32; 2 * rows];
        let gains = self.gain.as_slice();
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

/// What backward needs of one (sequence, head): `Q`, `K`, `V` (`t × hd`)
/// and the causal softmax `P` (`t × t`, zero above the diagonal).
struct HeadSaved {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    p: Matrix,
}

/// The local attention core: causal softmax attention over this rank's
/// sequences and heads. No communication — the layout guarantees
/// locality.
struct AttentionCore {
    seq_len: usize,
    head_dim: usize,
    /// One [`HeadSaved`] per (sequence, head) of the largest step so far,
    /// kept for the rank's lifetime; a step overwrites the first
    /// `used` of them.
    saved: Vec<HeadSaved>,
    used: usize,
    /// Whether `saved` holds this step's forward, not yet consumed by a
    /// backward.
    forward_pending: bool,
}

impl AttentionCore {
    fn new(seq_len: usize, head_dim: usize) -> Self {
        AttentionCore {
            seq_len,
            head_dim,
            saved: Vec::new(),
            used: 0,
            forward_pending: false,
        }
    }

    /// `qkv` is `(B_local·T) × (heads_local·3·hd)`, head-major; `out`,
    /// `(B_local·T) × (heads_local·hd)`, is overwritten.
    fn forward(&mut self, qkv: &Matrix, out: &mut Matrix) {
        let (rows, width) = qkv.shape();
        let t = self.seq_len;
        let hd = self.head_dim;
        assert_eq!(rows % t, 0, "rows must be whole sequences");
        assert_eq!(width % (3 * hd), 0, "width must be whole heads");
        let b = rows / t;
        let heads = width / (3 * hd);
        assert_eq!(out.shape(), (rows, heads * hd), "attention output shape");
        let scale = 1.0 / (hd as f32).sqrt();
        self.used = b * heads;
        while self.saved.len() < self.used {
            self.saved.push(HeadSaved {
                q: Matrix::zeros(t, hd),
                k: Matrix::zeros(t, hd),
                v: Matrix::zeros(t, hd),
                p: Matrix::zeros(t, t),
            });
        }
        let mut o = Matrix::zeros(t, hd);
        for s in 0..b {
            for head in 0..heads {
                let HeadSaved { q, k, v, p } = &mut self.saved[s * heads + head];
                let off = head * 3 * hd;
                for ti in 0..t {
                    let row = qkv.row(s * t + ti);
                    q.row_mut(ti).copy_from_slice(&row[off..off + hd]);
                    k.row_mut(ti).copy_from_slice(&row[off + hd..off + 2 * hd]);
                    v.row_mut(ti)
                        .copy_from_slice(&row[off + 2 * hd..off + 3 * hd]);
                }
                // Scores, then the causal softmax row by row in place.
                gemm_into(MatMode::NT, q, &*k, p);
                for i in 0..t {
                    let row = p.row_mut(i);
                    let (seen, masked) = row.split_at_mut(i + 1);
                    seen.iter_mut().for_each(|x| *x *= scale);
                    let maxv = seen.iter().cloned().fold(f32::MIN, f32::max);
                    let denom: f32 = seen.iter().map(|&x| (x - maxv).exp()).sum();
                    for x in seen {
                        *x = (*x - maxv).exp() / denom;
                    }
                    masked.fill(0.0);
                }
                gemm_into(MatMode::NN, p, &*v, &mut o);
                for ti in 0..t {
                    out.row_mut(s * t + ti)[head * hd..(head + 1) * hd].copy_from_slice(o.row(ti));
                }
            }
        }
        self.forward_pending = true;
    }

    fn backward(&mut self, d_out: &Matrix) -> Matrix {
        assert!(
            std::mem::take(&mut self.forward_pending),
            "attention backward before forward"
        );
        let (rows, width) = d_out.shape();
        let t = self.seq_len;
        let hd = self.head_dim;
        let b = rows / t;
        let heads = width / hd;
        assert_eq!(b * heads, self.used, "attention backward shape");
        let scale = 1.0 / (hd as f32).sqrt();
        let mut d_qkv = Matrix::zeros(rows, heads * 3 * hd);
        let mut d_o = Matrix::zeros(t, hd);
        let (mut d_q, mut d_k, mut d_v) = (d_o.clone(), d_o.clone(), d_o.clone());
        let mut d_p = Matrix::zeros(t, t);
        let mut d_s = Matrix::zeros(t, t);
        for s in 0..b {
            for head in 0..heads {
                let HeadSaved { q, k, v, p } = &self.saved[s * heads + head];
                for ti in 0..t {
                    d_o.row_mut(ti)
                        .copy_from_slice(&d_out.row(s * t + ti)[head * hd..(head + 1) * hd]);
                }
                gemm_into(MatMode::TN, p, &d_o, &mut d_v);
                gemm_into(MatMode::NT, &d_o, v, &mut d_p);
                for i in 0..t {
                    let prow = p.row(i);
                    let dprow = d_p.row(i);
                    let dot: f32 = (0..=i).map(|j| prow[j] * dprow[j]).sum();
                    let (dsrow, masked) = d_s.row_mut(i).split_at_mut(i + 1);
                    for (j, ds) in dsrow.iter_mut().enumerate() {
                        *ds = prow[j] * (dprow[j] - dot) * scale;
                    }
                    masked.fill(0.0);
                }
                gemm_into(MatMode::NN, &d_s, k, &mut d_q);
                gemm_into(MatMode::TN, &d_s, q, &mut d_k);
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
    /// fc1's output before GELU, kept for the rank's lifetime like the
    /// operands every FC layer keeps per Algorithm 1; GELU of it is
    /// fc2's kept input.
    fc1_pre: Matrix,
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
            fc1_pre: Matrix::zeros(0, 0),
        }
    }

    /// Forward: `x_local` is `(m/G_z) × (hidden/gy)`, sequence-aligned.
    /// Each stage writes straight into the buffer the next one keeps.
    pub fn forward(&mut self, comm: &Comm, grid: &GridTopology, x_local: &Matrix) -> Matrix {
        let rows = x_local.rows();
        assert_eq!(
            rows % self.seq_len,
            0,
            "local rows must be whole sequences (split batch by gd*gz at sequence boundaries)"
        );
        copy_into(self.ln1.input_mut(rows), x_local);
        self.ln1.forward(comm, grid, self.qkv.input_mut(grid, rows));
        let qkv_out = self.qkv.forward(comm, grid, Precision::F32);
        self.core.forward(&qkv_out, self.proj.input_mut(grid, rows));
        drop(qkv_out);
        // h = x + proj(attn), held as ln2's input.
        let h = self.ln2.input_mut(rows);
        self.proj.forward_into(comm, grid, Precision::F32, h);
        h.add_assign(x_local);

        self.ln2.forward(comm, grid, self.fc1.input_mut(grid, rows));
        self.fc1
            .forward_into(comm, grid, Precision::F32, &mut self.fc1_pre);
        let act = self.fc2.input_mut(grid, rows);
        copy_into(act, &self.fc1_pre);
        Activation::Gelu.apply(act);
        let mut out = self.fc2.forward(comm, grid, Precision::F32);
        out.add_assign(self.ln2.input());
        out
    }

    /// Backward; returns `dx` and any deferred reduce-scatters (ORS).
    /// Each gradient temporary is dropped as soon as its consumer
    /// returns.
    ///
    /// # Panics
    /// Unless a forward ran since the last backward (fc2, the first
    /// layer backward reaches, holds the check for the whole block).
    pub fn backward(
        &mut self,
        comm: &Comm,
        grid: &GridTopology,
        d_out: &Matrix,
        overlap: OverlapConfig,
        tuner: &mut KernelTuner,
    ) -> (Matrix, Vec<PendingGrad>) {
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
        Activation::Gelu.backprop(&self.fc1_pre, &mut d_act);
        let (d_n2, p) = self
            .fc1
            .backward(comm, grid, &d_act, overlap, tuner, Precision::F32);
        push(p);
        drop(d_act);
        let mut d_h = self.ln2.backward(comm, grid, &d_n2);
        drop(d_n2);
        d_h.add_assign(d_out); // residual

        // Attention half: h = x + proj(core(qkv(ln1(x)))).
        let (d_attn, p) = self
            .proj
            .backward(comm, grid, &d_h, overlap, tuner, Precision::F32);
        push(p);
        let d_qkv = self.core.backward(&d_attn);
        drop(d_attn);
        let (d_n1, p) = self
            .qkv
            .backward(comm, grid, &d_qkv, overlap, tuner, Precision::F32);
        push(p);
        drop(d_qkv);
        let mut dx = self.ln1.backward(comm, grid, &d_n1);
        drop(d_n1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_collectives::CommWorld;

    const SEQ: usize = 4;

    /// A one-rank block (hidden 8, 2 heads) and the gradient of its
    /// output for one sequence.
    fn block() -> (Comm, GridTopology, ParallelTransformerBlock, Matrix) {
        let comm = CommWorld::builder(1).build().pop().expect("one rank");
        let grid = GridTopology::new(1, 1, 1, 1, 0);
        let block = ParallelTransformerBlock::new(&grid, 8, 2, SEQ, 5, 0);
        (comm, grid, block, Matrix::random(SEQ, 8, 1.0, 6))
    }

    fn backward(b: &mut ParallelTransformerBlock, comm: &Comm, grid: &GridTopology, d: &Matrix) {
        let mut tuner = KernelTuner::new(false);
        let _ = b.backward(comm, grid, d, OverlapConfig::default(), &mut tuner);
    }

    #[test]
    #[should_panic(expected = "backward without a forward in this step")]
    fn block_backward_before_any_forward_panics() {
        let (comm, grid, mut b, d) = block();
        backward(&mut b, &comm, &grid, &d);
    }

    #[test]
    #[should_panic(expected = "backward without a forward in this step")]
    fn second_block_backward_of_one_forward_panics() {
        let (comm, grid, mut b, d) = block();
        let _ = b.forward(&comm, &grid, &Matrix::random(SEQ, 8, 1.0, 7));
        backward(&mut b, &comm, &grid, &d);
        backward(&mut b, &comm, &grid, &d);
    }
}
