//! A complete GPT under the 4D algorithm: parallel embedding →
//! [`ParallelTransformerBlock`]s → parallel LayerNorm → vocab-parallel
//! head and cross-entropy.
//!
//! This is the "parallelizing an entire network" story of Section V-A
//! carried to a full language model on the functional plane: token rows
//! are sharded over (data, Z) at sequence boundaries, hidden features
//! over the alternating X/Y groups, and the vocabulary over the head
//! layer's column group — with the softmax computed *vocab-parallel*
//! (max and sum-exp all-reduced across the column group, the Megatron-LM
//! technique) so no rank ever materialises the full logit matrix.

use crate::gradsync::{GradSyncMode, GradSyncPipeline, ParamStore, DEFAULT_BUCKET_ELEMS};
use crate::grid::GridTopology;
use crate::layer::{copy_into, OverlapConfig, ParallelLinear, PendingGrad, Precision};
use crate::transformer::{block_weight, ParallelLayerNorm, ParallelTransformerBlock};
use crate::tuner::KernelTuner;
use axonn_collectives::{Comm, ProcessGroup};
use axonn_tensor::{block_of, BlockSpec, Matrix};

/// Token embedding with the table column-sharded over the first block's
/// row group (Y): each rank holds `V × (h/gy)` and produces exactly the
/// activation slice the first block expects.
pub struct ParallelEmbedding {
    pub table: Matrix,
    pub grad: Matrix,
    pub vocab: usize,
    pub hidden: usize,
    /// This step's token ids, kept (with their allocation) for backward.
    tokens: Vec<usize>,
    /// Whether `tokens` holds this step's forward, not yet consumed by a
    /// backward.
    forward_pending: bool,
}

impl ParallelEmbedding {
    pub fn new(grid: &GridTopology, vocab: usize, hidden: usize, seed: u64) -> Self {
        let parts = grid.row_parts(false);
        assert_eq!(hidden % parts, 0, "hidden must divide the embedding split");
        let full = block_weight(vocab, hidden, seed, 90);
        let table = block_of(&full, BlockSpec::new(1, parts, 0, grid.row_index(false)));
        let grad = Matrix::zeros(table.rows(), table.cols());
        ParallelEmbedding {
            table,
            grad,
            vocab,
            hidden,
            tokens: Vec::new(),
            forward_pending: false,
        }
    }

    /// Look up this rank's local token rows; output is
    /// `(tokens.len()) × (h/gy)`.
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        let local_h = self.table.cols();
        let mut out = Matrix::zeros(tokens.len(), local_h);
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.vocab, "token id {t} outside vocab {}", self.vocab);
            out.row_mut(i).copy_from_slice(self.table.row(t));
        }
        self.tokens.clear();
        self.tokens.extend_from_slice(tokens);
        self.forward_pending = true;
        out
    }

    pub fn backward(&mut self, d_out: &Matrix) {
        assert!(
            std::mem::take(&mut self.forward_pending),
            "embedding backward before forward"
        );
        for (i, &t) in self.tokens.iter().enumerate() {
            let g = self.grad.row_mut(t);
            for (gv, dv) in g.iter_mut().zip(d_out.row(i)) {
                *gv += dv;
            }
        }
    }

    /// Token rows are sharded over Z and data: finish the gradient
    /// reduction across those groups. The data stage folds in canonical
    /// group order so the result is bitwise comparable with the bucketed
    /// gradient pipeline.
    pub fn sync_grads(&mut self, comm: &Comm, grid: &GridTopology) {
        if grid.gz == 1 && grid.gd == 1 {
            return;
        }
        comm.all_reduce(grid.z_group(), self.grad.as_mut_slice());
        comm.all_reduce_linear(grid.data_group(), self.grad.as_mut_slice());
    }

    /// Z-group-only gradient reduction: the bucketed pipeline performs
    /// the data-parallel stage (and the update) itself.
    pub fn sync_grads_z(&mut self, comm: &Comm, grid: &GridTopology) {
        if grid.gz == 1 {
            return;
        }
        comm.all_reduce(grid.z_group(), self.grad.as_mut_slice());
    }

    pub fn apply_sgd(&mut self, lr: f32) {
        self.table.axpy(-lr, &self.grad);
        self.grad.scale(0.0);
    }
}

/// Result of the vocab-parallel cross-entropy: global mean loss plus the
/// local gradient slice.
pub struct VocabCeResult {
    pub loss: f32,
    pub d_logits_local: Matrix,
}

/// Vocab-parallel mean cross-entropy over `total_rows` global rows.
///
/// `logits_local` is `(m_local × V/g)` where the vocabulary is split over
/// the head layer's column group; `targets_local` are *global* token ids
/// for this rank's rows. Row maxima and exp-sums are all-reduced across
/// the column group (Megatron-style), so the full softmax never exists on
/// one rank.
pub fn vocab_parallel_cross_entropy(
    comm: &Comm,
    group: &ProcessGroup,
    slice_index: usize,
    logits_local: &Matrix,
    targets_local: &[usize],
    total_rows: usize,
) -> VocabCeResult {
    let (rows, local_v) = logits_local.shape();
    assert_eq!(targets_local.len(), rows, "one target per local row");
    let lo = slice_index * local_v;
    let hi = lo + local_v;

    // 1. Row maxima (max all-reduce).
    let mut maxes: Vec<f32> = (0..rows)
        .map(|r| logits_local.row(r).iter().cloned().fold(f32::MIN, f32::max))
        .collect();
    comm.all_reduce_max(group, &mut maxes);

    // 2. Row exp-sums and the target logit contribution (sum all-reduce,
    // fused into one buffer).
    let mut buf = vec![0.0f32; 2 * rows];
    for r in 0..rows {
        let m = maxes[r];
        buf[r] = logits_local.row(r).iter().map(|&x| (x - m).exp()).sum();
        let t = targets_local[r];
        if t >= lo && t < hi {
            buf[rows + r] = logits_local[(r, t - lo)];
        }
    }
    comm.all_reduce(group, &mut buf);

    // 3. Loss and local gradient slice.
    let inv_n = 1.0 / total_rows as f32;
    let mut loss = 0.0f32;
    let mut d = Matrix::zeros(rows, local_v);
    for r in 0..rows {
        let m = maxes[r];
        let denom = buf[r];
        let target_logit = buf[rows + r];
        loss += -(target_logit - m - denom.ln()) * inv_n;
        let t = targets_local[r];
        let dr = d.row_mut(r);
        for (c, dv) in dr.iter_mut().enumerate() {
            let p = (logits_local[(r, c)] - m).exp() / denom;
            let onehot = if lo + c == t { 1.0 } else { 0.0 };
            *dv = (p - onehot) * inv_n;
        }
    }
    VocabCeResult {
        loss,
        d_logits_local: d,
    }
}

/// The full 4D-parallel GPT.
pub struct TransformerStack {
    pub emb: ParallelEmbedding,
    pub blocks: Vec<ParallelTransformerBlock>,
    pub final_ln: ParallelLayerNorm,
    pub head: ParallelLinear,
    pub vocab: usize,
    pub hidden: usize,
    pub seq_len: usize,
    tuner: KernelTuner,
    overlap: OverlapConfig,
    world: ProcessGroup,
    grad_sync: GradSyncMode,
    grad_bucket_elems: usize,
}

/// [`ParamStore`] over every parameter tensor of the stack. Tensor ids,
/// with `B = blocks.len()` and `base = 4B + 1`:
///
/// - `0 .. 4B`          FC weight shards (block-major: qkv, proj, fc1, fc2),
/// - `4B`               the head weight shard,
/// - `base + 2k [+ 1]`  gain [bias] of norm `k` (`k = 2b` → `ln1` of
///   block `b`, `k = 2b + 1` → `ln2`, `k = 2B` → the final LayerNorm),
/// - `base + 4B + 2`    the embedding table shard.
struct StackParams<'a> {
    blocks: &'a mut [ParallelTransformerBlock],
    final_ln: &'a mut ParallelLayerNorm,
    head: &'a mut ParallelLinear,
    emb: &'a mut ParallelEmbedding,
}

impl ParamStore for StackParams<'_> {
    fn param_and_grad(&mut self, tensor: usize) -> (&mut [f32], &[f32]) {
        let nb = self.blocks.len();
        let base = 4 * nb + 1;
        let (param, grad) = if tensor < 4 * nb {
            self.blocks[tensor / 4]
                .fc_mut(tensor % 4)
                .weight_and_grad_mut()
        } else if tensor == 4 * nb {
            self.head.weight_and_grad_mut()
        } else if tensor < base + 2 * (2 * nb + 1) {
            let k = (tensor - base) / 2;
            let ln = if k == 2 * nb {
                &mut *self.final_ln
            } else if k.is_multiple_of(2) {
                &mut self.blocks[k / 2].ln1
            } else {
                &mut self.blocks[k / 2].ln2
            };
            if (tensor - base).is_multiple_of(2) {
                (&mut ln.gain, &ln.gain_grad)
            } else {
                (&mut ln.bias, &ln.bias_grad)
            }
        } else {
            debug_assert_eq!(tensor, base + 4 * nb + 2, "unknown tensor id");
            (&mut self.emb.table, &self.emb.grad)
        };
        (param.as_mut_slice(), grad.as_slice())
    }
}

impl TransformerStack {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        grid: &GridTopology,
        vocab: usize,
        hidden: usize,
        n_heads: usize,
        n_layers: usize,
        seq_len: usize,
        seed: u64,
        overlap: OverlapConfig,
    ) -> Self {
        assert_eq!(
            vocab % grid.col_parts(false),
            0,
            "vocab must divide the head column split"
        );
        let blocks = (0..n_layers)
            .map(|i| {
                ParallelTransformerBlock::new(
                    grid,
                    hidden,
                    n_heads,
                    seq_len,
                    seed.wrapping_add(1 + i as u64),
                    4 * i,
                )
            })
            .collect();
        let head_w = block_weight(hidden, vocab, seed, 91);
        TransformerStack {
            emb: ParallelEmbedding::new(grid, vocab, hidden, seed),
            blocks,
            final_ln: ParallelLayerNorm::new(grid, hidden, false),
            head: ParallelLinear::from_full_weight(grid, 4 * n_layers, &head_w, false),
            vocab,
            hidden,
            seq_len,
            tuner: KernelTuner::new(false),
            overlap,
            world: ProcessGroup::new((0..grid.total_ranks()).collect()),
            grad_sync: GradSyncMode::default(),
            grad_bucket_elems: DEFAULT_BUCKET_ELEMS,
        }
    }

    /// Select the data-parallel gradient phase (bucketed pipeline vs the
    /// per-tensor oracle). Both are bit-identical for every grid.
    pub fn set_grad_sync(&mut self, mode: GradSyncMode) {
        self.grad_sync = mode;
    }

    /// Override the bucket capacity (elements) of the bucketed pipeline.
    pub fn set_grad_bucket_elems(&mut self, elems: usize) {
        self.grad_bucket_elems = elems;
    }

    /// This rank's slice of the global token list (rows split over data
    /// then Z at sequence boundaries).
    pub fn local_tokens(grid: &GridTopology, tokens: &[usize]) -> Vec<usize> {
        let per_d = tokens.len() / grid.gd;
        let per_z = per_d / grid.gz;
        let (_, _, z, d) = grid.coords;
        let start = d * per_d + z * per_z;
        tokens[start..start + per_z].to_vec()
    }

    /// One training step on the global `(tokens, targets)` batch
    /// (`B·seq_len` ids each, `B` divisible by `gd·gz`). Returns the
    /// global mean cross-entropy.
    pub fn train_step(
        &mut self,
        comm: &Comm,
        grid: &GridTopology,
        tokens: &[usize],
        targets: &[usize],
        lr: f32,
    ) -> f32 {
        assert_eq!(tokens.len(), targets.len());
        assert_eq!(tokens.len() % self.seq_len, 0, "whole sequences only");
        let seqs = tokens.len() / self.seq_len;
        assert_eq!(
            seqs % (grid.gd * grid.gz),
            0,
            "sequences must divide over gd*gz"
        );
        let my_tokens = Self::local_tokens(grid, tokens);
        let my_targets = Self::local_tokens(grid, targets);

        // Forward.
        let rows = my_tokens.len();
        let mut x = self.emb.forward(&my_tokens);
        for b in &mut self.blocks {
            x = b.forward(comm, grid, &x);
        }
        copy_into(self.final_ln.input_mut(rows), &x);
        drop(x);
        self.final_ln
            .forward(comm, grid, self.head.input_mut(grid, rows));
        let logits = self.head.forward(comm, grid, Precision::F32);

        // Vocab-parallel loss over the head's column group.
        let col_group = grid.col_group(false).clone();
        let VocabCeResult {
            loss,
            d_logits_local,
        } = vocab_parallel_cross_entropy(
            comm,
            &col_group,
            grid.col_index(false),
            &logits,
            &my_targets,
            tokens.len(),
        );
        drop(logits);

        // Backward. Each gradient temporary is dropped as soon as its
        // consumer returns.
        let mut pending: Vec<PendingGrad> = Vec::new();
        let (d_ln_in, p) = self.head.backward(
            comm,
            grid,
            &d_logits_local,
            self.overlap,
            &mut self.tuner,
            Precision::F32,
        );
        drop(d_logits_local);
        if let Some(p) = p {
            pending.push(p);
        }
        let mut d = self.final_ln.backward(comm, grid, &d_ln_in);
        drop(d_ln_in);
        for b in self.blocks.iter_mut().rev() {
            let (dx, ps) = b.backward(comm, grid, &d, self.overlap, &mut self.tuner);
            pending.extend(ps);
            d = dx;
        }
        self.emb.backward(&d);
        drop(d);

        // Deferred reduce-scatters (ORS), then gradient synchronisation.
        let dg = grid.data_group().clone();
        match self.grad_sync {
            GradSyncMode::Bucketed => {
                // Reverse-backward feed: as each tensor's Z reduction
                // resolves it goes straight into a bucket, so full
                // buckets' data-parallel reduce-scatters stream while
                // later ORS waits (and the norm/embedding Z stages) are
                // still draining. Tensor ids per [`StackParams`].
                let nb = self.blocks.len();
                let base = 4 * nb + 1;
                let mut pipe = GradSyncPipeline::new(comm.clone(), dg, self.grad_bucket_elems);
                let mut it = pending.into_iter();
                if let Some(p) = it.next() {
                    let (id, grad) = p.wait();
                    self.fc_by_id(id).accumulate_grad(grad);
                }
                pipe.push(4 * nb, &mut self.params(), lr);
                self.final_ln.sync_param_grads_z(comm, grid);
                for id in [base + 2 * (2 * nb), base + 2 * (2 * nb) + 1] {
                    pipe.push(id, &mut self.params(), lr);
                }
                for bi in (0..nb).rev() {
                    // The block's four deferred reduce-scatters resolve
                    // in backward order: fc2, fc1, proj, qkv.
                    for local in [3usize, 2, 1, 0] {
                        let id = 4 * bi + local;
                        if let Some(p) = it.next() {
                            let (pid, grad) = p.wait();
                            debug_assert_eq!(pid, id, "pending order mismatch");
                            self.fc_by_id(pid).accumulate_grad(grad);
                        }
                        pipe.push(id, &mut self.params(), lr);
                    }
                    let b = &mut self.blocks[bi];
                    b.ln2.sync_param_grads_z(comm, grid);
                    b.ln1.sync_param_grads_z(comm, grid);
                    // ln2 (norm 2b + 1), then ln1 (norm 2b): gain, bias.
                    for k in [2 * bi + 1, 2 * bi] {
                        for id in [base + 2 * k, base + 2 * k + 1] {
                            pipe.push(id, &mut self.params(), lr);
                        }
                    }
                }
                self.emb.sync_grads_z(comm, grid);
                pipe.push(base + 4 * nb + 2, &mut self.params(), lr);
                pipe.step(lr, &mut self.params());
                // Zero the accumulators `apply_sgd` used to clear.
                for b in &mut self.blocks {
                    b.ln1.gain_grad.scale(0.0);
                    b.ln1.bias_grad.scale(0.0);
                    b.ln2.gain_grad.scale(0.0);
                    b.ln2.bias_grad.scale(0.0);
                    for l in b.fc_layers_mut() {
                        l.zero_grad();
                    }
                }
                self.final_ln.gain_grad.scale(0.0);
                self.final_ln.bias_grad.scale(0.0);
                self.head.zero_grad();
                self.emb.grad.scale(0.0);
            }
            GradSyncMode::PerTensor => {
                for p in pending {
                    let (id, grad) = p.wait();
                    self.fc_by_id(id).accumulate_grad(grad);
                }
                {
                    let mut grads: Vec<&mut Matrix> = Vec::new();
                    for b in &mut self.blocks {
                        for l in b.fc_layers_mut() {
                            grads.push(l.grad_shard_mut());
                        }
                    }
                    grads.push(self.head.grad_shard_mut());
                    crate::dataparallel::sync_gradients(comm, &dg, &mut grads);
                }
                for b in &mut self.blocks {
                    b.sync_norm_grads(comm, grid);
                }
                self.final_ln.sync_param_grads(comm, grid);
                self.emb.sync_grads(comm, grid);

                // Update.
                for b in &mut self.blocks {
                    b.apply_sgd(lr);
                }
                self.final_ln.apply_sgd(lr);
                self.head.apply_sgd(lr);
                self.emb.apply_sgd(lr);
            }
        }

        // Each rank's CE covered only its (Z, data) row slice (already
        // scaled by 1/total_rows); sum the distinct slices across the
        // world. Every slice is replicated gx·gy times.
        let mut total = vec![loss];
        comm.all_reduce(&self.world, &mut total);
        total[0] / (grid.gx * grid.gy) as f32
    }

    /// Every parameter tensor and its gradient, by [`StackParams`] id.
    fn params(&mut self) -> StackParams<'_> {
        StackParams {
            blocks: &mut self.blocks,
            final_ln: &mut self.final_ln,
            head: &mut self.head,
            emb: &mut self.emb,
        }
    }

    fn fc_by_id(&mut self, layer_id: usize) -> &mut ParallelLinear {
        if layer_id == 4 * self.blocks.len() {
            return &mut self.head;
        }
        self.blocks[layer_id / 4].fc_mut(layer_id % 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_exec::run_spmd;

    const VOCAB: usize = 32;
    const SEQ: usize = 8;

    type Batch = (Vec<usize>, Vec<usize>);

    /// `seqs` sequences of token ids and targets, varied by `salt` so
    /// that two batches differ.
    fn batch(seqs: usize, salt: usize) -> Batch {
        let tokens = (0..seqs * SEQ)
            .map(|i| (i * 7 + salt * 13 + 1) % VOCAB)
            .collect();
        let targets = (0..seqs * SEQ)
            .map(|i| (i * 5 + salt * 3 + 2) % VOCAB)
            .collect();
        (tokens, targets)
    }

    /// Loss bits of one stack stepped on each `(batch, lr)` in turn, on
    /// grid 1x1x1x2 (rank 0's view; ranks agree).
    fn losses(steps: &[(&Batch, f32)]) -> Vec<u32> {
        let steps: Vec<(Batch, f32)> = steps.iter().map(|&(b, lr)| (b.clone(), lr)).collect();
        run_spmd(2, move |comm| {
            let grid = GridTopology::new(1, 1, 1, 2, comm.rank());
            let mut stack =
                TransformerStack::new(&grid, VOCAB, 16, 2, 2, SEQ, 3, OverlapConfig::all());
            steps
                .iter()
                .map(|((t, y), lr)| stack.train_step(&comm, &grid, t, y, *lr).to_bits())
                .collect::<Vec<u32>>()
        })
        .swap_remove(0)
    }

    #[test]
    fn kept_buffers_carry_no_values_across_steps_or_shapes() {
        // With lr = 0 the weights never move, so each loss is a function
        // of its batch alone: a value left in a kept buffer by an earlier
        // step (a larger one, or the same shape) would change it.
        let (big, small) = (batch(8, 0), batch(4, 1));
        let kept = losses(&[
            (&big, 0.0),
            (&small, 0.0),
            (&big, 0.0),
            (&small, 0.5),
            (&big, 0.0),
        ]);
        let fresh_big = losses(&[(&big, 0.0)]);
        let fresh_small = losses(&[(&small, 0.5), (&big, 0.0)]);
        assert_eq!(
            kept[0], fresh_big[0],
            "first step differs from a fresh stack"
        );
        assert_eq!(kept[1], fresh_small[0], "smaller step read a stale buffer");
        assert_eq!(kept[2], kept[0], "regrown step read a stale buffer");
        // Backward reads the kept buffers too: an update from gradients
        // that saw a stale value would show in the loss after it.
        assert_eq!(kept[4], fresh_small[1], "backward read a stale buffer");
    }
}
