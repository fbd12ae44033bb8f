//! KV-cached autoregressive decoding over an immutable [`Gpt`].
//!
//! The training modules (`modules`, `attention`) take `&mut self`
//! because they cache activations for backward; inference needs neither
//! the mutation nor the caches, so this module re-implements the forward
//! math as free functions over a [`Shard`] plus a per-request
//! [`KvCache`]. A whole [`Gpt`] is a shard; so is one tensor-parallel
//! rank's slice of it (`axonn_serve::tp`), which is the same blocks on
//! fewer heads and a narrower MLP, plus an all-reduce where the shard's
//! two row-sharded products are folded. This is the only inference
//! forward in the tree.
//!
//! Prefill runs the prompt in one batched pass (storing every layer's
//! K/V rows); each subsequent token then costs O(seq) attention against
//! the cached keys/values instead of the full-sequence recompute the
//! seed's `greedy_continuation` performed.
//!
//! Decoding is batched across streams: [`decode_batch`] stacks one fed
//! token per stream into a `B × d` activation and runs each of the
//! `4·L + 1` linear layers as **one** GEMM, optionally against weights
//! packed once ([`PackedWeights`]). What stays per row is everything
//! that reads a stream's own state or position: the positional
//! embedding, layer norms, and attention against that stream's
//! [`KvCache`]. [`decode_step`] is the batch of one.
//!
//! **Bit-identity contract.** Every loop below mirrors the corresponding
//! training-module loop exactly — same `gemm` kernels, same softmax
//! accumulation order, same bias/residual element order — so the logits
//! produced here are *bitwise* equal to a full forward pass over the
//! same context (proptested in `tests/decode_oracle.rs`). Three
//! ingredients carry it:
//!
//! * every kernel tier computes `C[i][j]` as the reference's chain of
//!   fused multiply-adds over `p`, which reads row `i` of `A` alone — so
//!   a row's result does not depend on how many other rows share the
//!   multiply, the tile it landed in, nor on whether `B` was packed per
//!   call or once;
//! * NN products skip exact-zero A entries, so the causal-masked zeros in
//!   the training path's T×T probability matrix contribute nothing (not
//!   even `+0.0` additions) to P·V, which makes a 1×(p+1) probability
//!   row reproduce row p of the batched product bit-for-bit;
//! * cached attention (`attend`) runs those same chains through
//!   `axonn_tensor::fused` — `q·Kᵀ` as one chain per key row, `p·V` as
//!   one chain per output lane with the same zero-skip — on the slab,
//!   without copying K or V out.

use crate::gpt::{Block, Gpt, GptModelConfig};
use crate::modules::{LayerNorm, Linear};
use axonn_tensor::{fused, gelu_in_place, gemm, MatMode, Matrix, PackedB, Rhs};

/// Per-request key/value cache: one K and one V matrix per (layer, head),
/// preallocated at `seq_len × head_dim`, filled up to [`KvCache::len`].
pub struct KvCache {
    /// `layers[l].0[h]` = K rows, `layers[l].1[h]` = V rows.
    layers: Vec<(Vec<Matrix>, Vec<Matrix>)>,
    len: usize,
    seq_len: usize,
    n_heads: usize,
    head_dim: usize,
}

impl KvCache {
    /// An empty cache sized for one generation window of `cfg`.
    pub fn for_model(cfg: &GptModelConfig) -> KvCache {
        Self::with_heads(
            cfg.n_layers,
            cfg.n_heads,
            cfg.seq_len,
            cfg.dim / cfg.n_heads,
        )
    }

    /// An empty cache holding `n_heads` heads per layer — the
    /// tensor-parallel decode path caches only the heads its rank owns.
    pub fn with_heads(n_layers: usize, n_heads: usize, seq_len: usize, head_dim: usize) -> KvCache {
        let layers = (0..n_layers)
            .map(|_| {
                let ks = (0..n_heads)
                    .map(|_| Matrix::zeros(seq_len, head_dim))
                    .collect();
                let vs = (0..n_heads)
                    .map(|_| Matrix::zeros(seq_len, head_dim))
                    .collect();
                (ks, vs)
            })
            .collect();
        KvCache {
            layers,
            len: 0,
            seq_len,
            n_heads,
            head_dim,
        }
    }

    /// Number of positions currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Positions the cache can still absorb before the window is full.
    pub fn remaining(&self) -> usize {
        self.seq_len - self.len
    }

    /// Resident size of the cached K/V planes plus preallocated slack —
    /// the quantity a serving scheduler budgets as a "cache slab".
    pub fn approx_bytes(&self) -> usize {
        self.layers.len() * self.n_heads * 2 * self.seq_len * self.head_dim * 4
    }

    /// Drop all cached positions (the slab stays allocated).
    pub fn reset(&mut self) {
        self.len = 0;
    }

    /// Whether every block of `model` reads this cache's shape: as many
    /// layers, and per layer the block's head count and head width.
    fn fits(&self, model: &Gpt) -> bool {
        self.layers.len() == model.blocks.len()
            && model
                .blocks
                .iter()
                .all(|b| block_heads(b) == (self.n_heads, self.head_dim))
    }

    /// The first `len` cached K rows of `(layer, head)`, borrowed from
    /// the slab: row-major `len × head_dim`.
    fn k_rows(&self, layer: usize, head: usize, len: usize) -> &[f32] {
        &self.layers[layer].0[head].as_slice()[..len * self.head_dim]
    }

    /// See [`KvCache::k_rows`].
    fn v_rows(&self, layer: usize, head: usize, len: usize) -> &[f32] {
        &self.layers[layer].1[head].as_slice()[..len * self.head_dim]
    }

    /// Store position `pos`'s K/V rows for `(layer, head)`.
    fn push_row(&mut self, layer: usize, head: usize, pos: usize, k_row: &[f32], v_row: &[f32]) {
        self.layers[layer].0[head]
            .row_mut(pos)
            .copy_from_slice(k_row);
        self.layers[layer].1[head]
            .row_mut(pos)
            .copy_from_slice(v_row);
    }
}

/// The weights one decode forward reads, and the fold that completes its
/// two row-sharded products — the attention output projection and the
/// MLP's fc2 — before their bias is added.
///
/// A whole [`Gpt`] is its own shard and folds nothing. A tensor-parallel
/// rank is a `Gpt` whose blocks hold the rank's heads and MLP columns,
/// and folds by all-reducing the partial products over its group. The
/// block code reads head counts and section widths from the blocks
/// themselves, so both run the same forward.
pub trait Shard {
    /// The (possibly sliced) model whose weights the forward reads.
    fn gpt(&self) -> &Gpt;
    /// Complete a row-sharded product in place, before its bias.
    fn fold(&self, partial: &mut Matrix);
}

impl Shard for Gpt {
    fn gpt(&self) -> &Gpt {
        self
    }

    fn fold(&self, _partial: &mut Matrix) {}
}

/// `(heads, head_dim)` of a block, read from its own weights: its head
/// count and the width of each of its Q|K|V sections over that count.
fn block_heads(block: &Block) -> (usize, usize) {
    let heads = block.attn.n_heads;
    (heads, block.attn.qkv.w.value.cols() / 3 / heads)
}

/// The four linear weights of one block, packed for `x·W`.
struct PackedBlock {
    qkv: PackedB,
    proj: PackedB,
    fc1: PackedB,
    fc2: PackedB,
}

/// Every [`Linear`] weight of a model (`4·L + 1` operands) packed once
/// into GEMM panels, so prefill and decode skip the per-call pack. Holds
/// a second copy of those weights; only valid for the model it was
/// packed from, unchanged since.
pub struct PackedWeights {
    blocks: Vec<PackedBlock>,
    head: PackedB,
}

impl PackedWeights {
    pub fn pack(model: &Gpt) -> PackedWeights {
        let pack = |l: &Linear| PackedB::pack(MatMode::NN, &l.w.value);
        PackedWeights {
            blocks: model
                .blocks
                .iter()
                .map(|b| PackedBlock {
                    qkv: pack(&b.attn.qkv),
                    proj: pack(&b.attn.proj),
                    fc1: pack(&b.mlp.fc1),
                    fc2: pack(&b.mlp.fc2),
                })
                .collect(),
            head: pack(&model.head),
        }
    }
}

/// Why [`decode_batch`] refused a batch. Nothing was decoded and no
/// cache was touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Row `row`'s cache holds no positions: prefill first.
    EmptyCache { row: usize },
    /// Row `row`'s cache already holds its whole window.
    WindowFull { row: usize },
    /// `tokens` and `caches` differ in length.
    BatchMismatch { tokens: usize, caches: usize },
    /// Row `row`'s cache was built for another shape than the model's
    /// blocks: it holds `layers` layers of `heads` heads, `head_dim` wide.
    CacheShape {
        row: usize,
        layers: usize,
        heads: usize,
        head_dim: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::EmptyCache { row } => {
                write!(f, "decode_step before prefill (batch row {row})")
            }
            DecodeError::WindowFull { row } => {
                write!(f, "generation window exceeds seq_len (batch row {row})")
            }
            DecodeError::BatchMismatch { tokens, caches } => {
                write!(f, "{tokens} fed tokens for {caches} caches")
            }
            DecodeError::CacheShape {
                row,
                layers,
                heads,
                head_dim,
            } => write!(
                f,
                "cache of {layers} layers x {heads} heads x {head_dim} head dim \
                 does not fit the model (batch row {row})"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

/// `y = x·W + b` exactly as [`Linear::forward`], without caching; `W`
/// read from `packed` when given.
fn linear(l: &Linear, packed: Option<&PackedB>, x: &Matrix) -> Matrix {
    folded_linear(l, packed, x, |_| {})
}

/// [`linear`] with `fold` applied to `x·W` before the bias is added, so
/// a row-sharded product gets its bias once, on the folded sum. A fold
/// that does nothing leaves [`linear`]'s bits.
fn folded_linear(
    l: &Linear,
    packed: Option<&PackedB>,
    x: &Matrix,
    fold: impl FnOnce(&mut Matrix),
) -> Matrix {
    let w = packed.map_or(Rhs::Matrix(&l.w.value), Rhs::Packed);
    let mut y = gemm(MatMode::NN, x, w);
    fold(&mut y);
    for r in 0..y.rows() {
        let row = y.row_mut(r);
        for (v, b) in row.iter_mut().zip(l.b.value.as_slice()) {
            *v += b;
        }
    }
    y
}

/// Row-wise layer normalization exactly as [`LayerNorm::forward`].
///
/// Each row's mean and variance stay one sequential sum in column order
/// from `-0.0` (where `f32`'s `Sum` starts), so the bits are
/// `forward`'s; rows run eight at a time so that eight such chains are
/// in flight instead of one waiting on each add (an 80×128 input: 14.4
/// → 6.5 µs, 2-core Sapphire Rapids VM).
fn layernorm_infer(ln: &LayerNorm, x: &Matrix) -> Matrix {
    const CHAINS: usize = 8;
    let (rows, d) = x.shape();
    let eps = ln.eps();
    let (gain, bias) = (ln.gain.value.as_slice(), ln.bias.value.as_slice());
    let mut out = Matrix::zeros(rows, d);
    if d == 0 {
        return out;
    }
    let normalize = |row: &[f32], orow: &mut [f32], mean: f32, var_sum: f32| {
        let inv_std = 1.0 / (var_sum / d as f32 + eps).sqrt();
        for (c, (&xv, ov)) in row.iter().zip(orow).enumerate() {
            let norm = (xv - mean) * inv_std;
            *ov = norm * gain[c] + bias[c];
        }
    };
    let mut groups = x.as_slice().chunks_exact(CHAINS * d);
    let mut outs = out.as_mut_slice().chunks_exact_mut(CHAINS * d);
    for (xs, os) in (&mut groups).zip(&mut outs) {
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|r| &xs[r * d..(r + 1) * d]);
        let mut mean = [-0.0f32; CHAINS];
        for c in 0..d {
            for (m, row) in mean.iter_mut().zip(rows) {
                *m += row[c];
            }
        }
        for m in &mut mean {
            *m /= d as f32;
        }
        let mut var_sum = [-0.0f32; CHAINS];
        for c in 0..d {
            for ((v, row), &m) in var_sum.iter_mut().zip(rows).zip(&mean) {
                *v += (row[c] - m) * (row[c] - m);
            }
        }
        for (r, orow) in os.chunks_exact_mut(d).enumerate() {
            normalize(rows[r], orow, mean[r], var_sum[r]);
        }
    }
    let tail = groups.remainder().chunks_exact(d);
    for (row, orow) in tail.zip(outs.into_remainder().chunks_exact_mut(d)) {
        let mean = row.iter().sum::<f32>() / d as f32;
        let var_sum = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>();
        normalize(row, orow, mean, var_sum);
    }
    out
}

/// Token + positional embedding of `token` at absolute position `pos`,
/// exactly as `Embedding::forward` computes it.
fn embed_row(model: &Gpt, token: usize, pos: usize, out: &mut [f32]) {
    let trow = model.emb.tok.value.row(token);
    let prow = model.emb.pos.value.row(pos);
    for (o, (t, p)) in out.iter_mut().zip(trow.iter().zip(prow)) {
        *o = t + p;
    }
}

/// Causal softmax over `row[..=i]` in place — the exact per-row loop
/// from `CausalSelfAttention::forward`; entries past `i` become `+0.0`,
/// which `gemm_nn` then skips.
fn causal_softmax_row(row: &mut [f32], i: usize) {
    let maxv = row[..=i].iter().cloned().fold(f32::MIN, f32::max);
    // One exp per entry: the training loop evaluates the same expression
    // twice (once for the sum, once for the quotient), which yields the
    // same bits both times.
    for v in &mut row[..=i] {
        *v = (*v - maxv).exp();
    }
    let denom: f32 = row[..=i].iter().sum();
    for v in &mut row[..=i] {
        *v /= denom;
    }
    row[i + 1..].fill(0.0);
}

/// One query row against cached keys and values of one head, in place
/// on the slab: `out = softmax(q·Kᵀ·scale)·V` over all the rows given
/// (`k_rows`, `v_rows`: row-major `len × q.len()`, see
/// [`KvCache::k_rows`]). `probs` is scratch.
///
/// Bitwise what `gemm(NT, q, K)`, the causal softmax and
/// `gemm(NN, p, V)` produce for a single row: each score is the chain of
/// fused multiply-adds over the head dimension from `+0.0`, each output
/// lane the chain over positions, skipping exact-zero probabilities as
/// every NN product does.
fn attend(
    q: &[f32],
    k_rows: &[f32],
    v_rows: &[f32],
    scale: f32,
    probs: &mut Vec<f32>,
    out: &mut [f32],
) {
    let hd = q.len();
    assert!(!k_rows.is_empty(), "attention over an empty cache");
    probs.clear();
    probs.resize(k_rows.len() / hd, 0.0);
    fused::dot_rows(q, k_rows, probs);
    for s in probs.iter_mut() {
        *s *= scale;
    }
    let last = probs.len() - 1;
    causal_softmax_row(probs, last);
    out.fill(0.0);
    for (&p, v_row) in probs.iter().zip(v_rows.chunks_exact(hd)) {
        if p != 0.0 {
            fused::axpy(p, v_row, out);
        }
    }
}

/// Everything in a block after attention: output projection, residual,
/// second norm, MLP, residual. `x` is the block input, `heads_out` the
/// concatenated attention heads. The output projection and fc2 products
/// are folded by `shard` before their bias.
fn block_tail(
    shard: &impl Shard,
    block: &Block,
    packed: Option<&PackedBlock>,
    x: &Matrix,
    heads_out: &Matrix,
) -> Matrix {
    let fold = |y: &mut Matrix| shard.fold(y);
    let mut hres = folded_linear(&block.attn.proj, packed.map(|p| &p.proj), heads_out, fold);
    hres.add_assign(x);
    let normed2 = layernorm_infer(&block.ln2, &hres);
    let mut act = linear(&block.mlp.fc1, packed.map(|p| &p.fc1), &normed2);
    gelu_in_place(act.as_mut_slice());
    let mut out = folded_linear(&block.mlp.fc2, packed.map(|p| &p.fc2), &act, fold);
    out.add_assign(&hres);
    out
}

/// Run the prompt through the model in one batched pass, filling `cache`
/// with every layer's K/V rows. Returns the full `prompt.len() × vocab`
/// logits matrix (row `prompt.len()-1` feeds the first sampled token).
///
/// # Panics
/// If the cache is non-empty or not shaped for the model, the prompt is
/// empty, or it exceeds the model window.
pub fn prefill(model: &Gpt, prompt: &[usize], cache: &mut KvCache) -> Matrix {
    let x = prefill_blocks(model, None, prompt, cache);
    let x = layernorm_infer(&model.ln_f, &x);
    linear(&model.head, None, &x)
}

/// What a caller that samples the next token needs of [`prefill`]: the
/// same cache, and bitwise row `prompt.len()-1` of its logits, with the
/// linear weights read from `packed` when given. The final norm and the
/// head product run on that one row only — each row of a product is the
/// same chain however many rows share it.
///
/// # Panics
/// As [`prefill`].
pub fn prefill_last(
    shard: &impl Shard,
    packed: Option<&PackedWeights>,
    prompt: &[usize],
    cache: &mut KvCache,
) -> Vec<f32> {
    let x = prefill_blocks(shard, packed, prompt, cache);
    let model = shard.gpt();
    let last = Matrix::from_vec(1, x.cols(), x.row(x.rows() - 1).to_vec());
    let last = layernorm_infer(&model.ln_f, &last);
    linear(&model.head, packed.map(|p| &p.head), &last).into_vec()
}

/// The blocks of a prefill: fills `cache` and returns the last block's
/// output, one row per prompt position.
fn prefill_blocks(
    shard: &impl Shard,
    packed: Option<&PackedWeights>,
    prompt: &[usize],
    cache: &mut KvCache,
) -> Matrix {
    let model = shard.gpt();
    assert!(cache.is_empty(), "prefill into a non-empty cache");
    assert!(cache.fits(model), "prefill into a cache of another shape");
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(
        prompt.len() <= cache.seq_len,
        "prompt length {} exceeds seq_len {}",
        prompt.len(),
        cache.seq_len
    );
    let t = prompt.len();
    let mut x = Matrix::zeros(t, model.cfg.dim);
    for (pos, &token) in prompt.iter().enumerate() {
        embed_row(model, token, pos, x.row_mut(pos));
    }
    for (li, block) in model.blocks.iter().enumerate() {
        let (n_heads, hd) = block_heads(block);
        let sec = n_heads * hd;
        let scale = 1.0 / (hd as f32).sqrt();
        let pb = packed.map(|p| &p.blocks[li]);
        let normed = layernorm_infer(&block.ln1, &x);
        let qkv = linear(&block.attn.qkv, pb.map(|p| &p.qkv), &normed);
        let mut heads_out = Matrix::zeros(t, sec);
        for h in 0..n_heads {
            // Slice out Q, K, V for this head — same row copies as the
            // training module's (b=1) path.
            let mut q = Matrix::zeros(t, hd);
            let mut k = Matrix::zeros(t, hd);
            let mut v = Matrix::zeros(t, hd);
            for ti in 0..t {
                let row = qkv.row(ti);
                let off = h * hd;
                q.row_mut(ti).copy_from_slice(&row[off..off + hd]);
                k.row_mut(ti)
                    .copy_from_slice(&row[sec + off..sec + off + hd]);
                v.row_mut(ti)
                    .copy_from_slice(&row[2 * sec + off..2 * sec + off + hd]);
            }
            let mut p = gemm(MatMode::NT, &q, &k);
            p.scale(scale);
            for i in 0..t {
                causal_softmax_row(p.row_mut(i), i);
            }
            let o = gemm(MatMode::NN, &p, &v);
            for ti in 0..t {
                heads_out.row_mut(ti)[h * hd..(h + 1) * hd].copy_from_slice(o.row(ti));
            }
            for ti in 0..t {
                cache.push_row(li, h, ti, k.row(ti), v.row(ti));
            }
        }
        x = block_tail(shard, block, pb, &x, &heads_out);
    }
    cache.len = t;
    x
}

/// Feed one token per stream — `tokens[r]` at the current position of
/// `caches[r]` — and return the `B × vocab` logits, row `r` for stream
/// `r`. The streams may sit at different depths; each linear layer runs
/// as one `B`-row GEMM (against `packed` when given), attention runs per
/// row against that row's cache only — O(cache.len) per layer instead of
/// a full-window recompute. Row `r` is bitwise what a batch of that one
/// stream would produce, in any batch order.
///
/// An empty batch returns a `0 × vocab` matrix. On `Err` no cache was
/// modified.
pub fn decode_batch(
    shard: &impl Shard,
    packed: Option<&PackedWeights>,
    tokens: &[usize],
    caches: &mut [&mut KvCache],
) -> Result<Matrix, DecodeError> {
    let model = shard.gpt();
    if tokens.len() != caches.len() {
        return Err(DecodeError::BatchMismatch {
            tokens: tokens.len(),
            caches: caches.len(),
        });
    }
    for (row, cache) in caches.iter().enumerate() {
        if cache.is_empty() {
            return Err(DecodeError::EmptyCache { row });
        }
        if cache.remaining() == 0 {
            return Err(DecodeError::WindowFull { row });
        }
        if !cache.fits(model) {
            return Err(DecodeError::CacheShape {
                row,
                layers: cache.layers.len(),
                heads: cache.n_heads,
                head_dim: cache.head_dim,
            });
        }
    }
    let rows = tokens.len();
    if rows == 0 {
        return Ok(Matrix::zeros(0, model.cfg.vocab));
    }
    let mut x = Matrix::zeros(rows, model.cfg.dim);
    for (r, (&token, cache)) in tokens.iter().zip(caches.iter()).enumerate() {
        embed_row(model, token, cache.len, x.row_mut(r));
    }
    let mut probs = Vec::new();
    for (li, block) in model.blocks.iter().enumerate() {
        let (n_heads, hd) = block_heads(block);
        let sec = n_heads * hd;
        let scale = 1.0 / (hd as f32).sqrt();
        let pb = packed.map(|p| &p.blocks[li]);
        let normed = layernorm_infer(&block.ln1, &x);
        let qkv = linear(&block.attn.qkv, pb.map(|p| &p.qkv), &normed);
        let mut heads_out = Matrix::zeros(rows, sec);
        for (r, cache) in caches.iter_mut().enumerate() {
            let pos = cache.len;
            let row = qkv.row(r);
            for h in 0..n_heads {
                let off = h * hd;
                cache.push_row(
                    li,
                    h,
                    pos,
                    &row[sec + off..sec + off + hd],
                    &row[2 * sec + off..2 * sec + off + hd],
                );
                // Attend over the cached rows *including* the one just pushed.
                attend(
                    &row[off..off + hd],
                    cache.k_rows(li, h, pos + 1),
                    cache.v_rows(li, h, pos + 1),
                    scale,
                    &mut probs,
                    &mut heads_out.row_mut(r)[off..off + hd],
                );
            }
        }
        x = block_tail(shard, block, pb, &x, &heads_out);
    }
    for cache in caches.iter_mut() {
        cache.len += 1;
    }
    let x = layernorm_infer(&model.ln_f, &x);
    Ok(linear(&model.head, packed.map(|p| &p.head), &x))
}

/// Feed one token at the cache's current position and return its logits
/// row (`vocab` floats): [`decode_batch`] over a batch of one, packing
/// the weights per call.
///
/// # Panics
/// If the cache is empty (prefill first), the window is full, or the
/// cache is not shaped for the model.
pub fn decode_step(model: &Gpt, token: usize, cache: &mut KvCache) -> Vec<f32> {
    decode_batch(model, None, &[token], &mut [cache])
        .unwrap_or_else(|e| panic!("{e}"))
        .into_vec()
}

/// Greedy token choice — the exact `max_by(total_cmp)` expression the
/// seed's continuation used, so ties break identically.
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("nonempty vocab")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamW;

    fn toy() -> Gpt {
        Gpt::new(GptModelConfig {
            vocab: 12,
            seq_len: 10,
            dim: 16,
            n_heads: 2,
            n_layers: 2,
            seed: 3,
        })
    }

    #[test]
    fn prefill_logits_match_full_forward_bitwise() {
        let mut g = toy();
        let prompt = [3usize, 1, 4, 1, 5];
        let mut cache = KvCache::for_model(&g.cfg);
        let kv = prefill(&g, &prompt, &mut cache);
        let full = g.forward(&prompt);
        assert_eq!(kv.shape(), full.shape());
        for (a, b) in kv.as_slice().iter().zip(full.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(cache.len(), prompt.len());
    }

    #[test]
    fn interleaved_layernorm_matches_training_bitwise() {
        // Two full groups of eight rows and a tail of three, with an
        // all-(-0.0) row in a group and in the tail: their sums keep the
        // sign only from a `-0.0` start, which a `-0.0` bias then shows.
        let mut x = Matrix::random(19, 13, 3.0, 7);
        x.row_mut(4).fill(-0.0);
        x.row_mut(17).fill(-0.0);
        x.row_mut(11)[2] = 1e30;
        let mut ln = LayerNorm::new(13);
        ln.gain.value = Matrix::random(1, 13, 1.0, 8);
        ln.bias.value = Matrix::random(1, 13, 1.0, 9);
        ln.bias.value[(0, 5)] = -0.0;
        assert_eq!(layernorm_infer(&ln, &x).to_bits(), ln.forward(&x).to_bits());
    }

    #[test]
    fn decode_step_matches_full_forward_bitwise() {
        let mut g = toy();
        let prompt = [3usize, 1, 4];
        let mut cache = KvCache::for_model(&g.cfg);
        let _ = prefill(&g, &prompt, &mut cache);
        let mut ctx = prompt.to_vec();
        for &tok in &[7usize, 2, 9, 0] {
            let row = decode_step(&g, tok, &mut cache);
            ctx.push(tok);
            let full = g.forward(&ctx);
            let want = full.row(ctx.len() - 1);
            assert_eq!(row.len(), want.len());
            for (a, b) in row.iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits(), "ctx {ctx:?}");
            }
        }
    }

    #[test]
    fn greedy_continuation_matches_recompute_oracle() {
        let mut g = toy();
        let mut opt = AdamW::new(3e-3);
        let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        for _ in 0..60 {
            g.train_step(&seq[..9], &seq[1..10], None, &mut opt);
        }
        let kv = g.greedy_continuation(&seq[..4], 5);
        let oracle = g.greedy_continuation_recompute(&seq[..4], 5);
        assert_eq!(kv, oracle);
    }

    #[test]
    fn cache_reset_allows_reuse() {
        let g = toy();
        let mut cache = KvCache::for_model(&g.cfg);
        let a = prefill(&g, &[1, 2, 3], &mut cache);
        cache.reset();
        let b = prefill(&g, &[1, 2, 3], &mut cache);
        assert_eq!(a, b);
    }

    #[test]
    fn approx_bytes_counts_kv_planes() {
        let g = toy();
        let cache = KvCache::for_model(&g.cfg);
        // 2 layers × 2 heads × 2 planes × 10 positions × 8 head-dim × 4B.
        assert_eq!(cache.approx_bytes(), 2 * 2 * 2 * 10 * 8 * 4);
    }

    #[test]
    fn batch_errors_are_typed_and_leave_caches_untouched() {
        let g = toy();
        let mut ready = KvCache::for_model(&g.cfg);
        let _ = prefill(&g, &[1, 2], &mut ready);
        let mut empty = KvCache::for_model(&g.cfg);
        let mut full = KvCache::for_model(&g.cfg);
        let _ = prefill(&g, &[0; 10], &mut full);

        let err = decode_batch(&g, None, &[3, 4], &mut [&mut ready, &mut empty]);
        assert_eq!(err.unwrap_err(), DecodeError::EmptyCache { row: 1 });
        let err = decode_batch(&g, None, &[3, 4], &mut [&mut ready, &mut full]);
        assert_eq!(err.unwrap_err(), DecodeError::WindowFull { row: 1 });
        let err = decode_batch(&g, None, &[3, 4], &mut [&mut ready]);
        assert_eq!(
            err.unwrap_err(),
            DecodeError::BatchMismatch {
                tokens: 2,
                caches: 1
            }
        );
        // Row 0 was valid every time and must not have advanced.
        assert_eq!((ready.len(), empty.len(), full.len()), (2, 0, 10));

        // An empty batch is not an error and runs no GEMM.
        let _ = axonn_tensor::take_gemm_phase();
        let none = decode_batch(&g, None, &[], &mut []).unwrap();
        assert_eq!(none.shape(), (0, 12));
        assert_eq!(axonn_tensor::take_gemm_phase().calls, 0);
    }

    #[test]
    fn mis_shaped_cache_is_a_typed_error_and_leaves_every_cache_untouched() {
        // A 2-way tensor-parallel rank's cache (one of the two heads per
        // layer) fed to the full model, behind a valid row: refused up
        // front, before row 0's K/V rows are written.
        let g = toy();
        let mut ready = KvCache::for_model(&g.cfg);
        let _ = prefill(&g, &[1, 2], &mut ready);
        let mut rank = KvCache::with_heads(2, 1, 10, 8);
        rank.len = 2;
        let before = ready.layers[1].0[1].clone();
        let err = decode_batch(&g, None, &[3, 4], &mut [&mut ready, &mut rank]);
        assert_eq!(
            err.unwrap_err(),
            DecodeError::CacheShape {
                row: 1,
                layers: 2,
                heads: 1,
                head_dim: 8
            }
        );
        assert_eq!((ready.len(), rank.len()), (2, 2));
        assert_eq!(ready.layers[1].0[1].to_bits(), before.to_bits());
    }

    #[test]
    #[should_panic(expected = "cache of another shape")]
    fn prefill_into_a_mis_shaped_cache_panics() {
        let g = toy();
        let mut cache = KvCache::with_heads(1, 2, 10, 8);
        let _ = prefill(&g, &[1, 2], &mut cache);
    }

    #[test]
    fn batched_step_is_one_gemm_per_linear_layer_and_packs_nothing_when_prepacked() {
        let g = toy();
        let packed = PackedWeights::pack(&g);
        let mut a = KvCache::for_model(&g.cfg);
        let mut b = KvCache::for_model(&g.cfg);
        let _ = prefill(&g, &[1, 2, 3], &mut a);
        let _ = prefill(&g, &[4], &mut b);
        let _ = axonn_tensor::take_gemm_phase();
        let logits = decode_batch(&g, Some(&packed), &[5, 6], &mut [&mut a, &mut b]).unwrap();
        assert_eq!(logits.shape(), (2, 12));
        let phase = axonn_tensor::take_gemm_phase();
        // 4 per block × 2 blocks + the head; attention runs on the slab.
        assert_eq!((phase.calls, phase.packed_bytes), (9, 0));
        assert_eq!((a.len(), b.len()), (4, 2));
    }

    #[test]
    fn attend_matches_the_gemm_formulation_bitwise() {
        // Scores far enough apart that some probabilities underflow to
        // exactly 0.0 and take the zero-skip.
        let (len, hd) = (9, 8);
        let q = Matrix::random(1, hd, 4.0, 1);
        let mut k = Matrix::random(len, hd, 4.0, 2);
        for c in 0..hd {
            k[(3, c)] = -40.0 * q[(0, c)].signum();
        }
        let v = Matrix::random(len, hd, 1.0, 3);
        let scale = 1.0 / (hd as f32).sqrt();

        let mut p = gemm(MatMode::NT, &q, &k);
        p.scale(scale);
        causal_softmax_row(p.row_mut(0), len - 1);
        assert!(p.as_slice().contains(&0.0), "no underflowed probability");
        let want = gemm(MatMode::NN, &p, &v);

        let mut out = vec![f32::NAN; hd];
        let mut probs = Vec::new();
        attend(
            q.row(0),
            k.as_slice(),
            v.as_slice(),
            scale,
            &mut probs,
            &mut out,
        );
        for (a, b) in out.iter().zip(want.row(0)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "decode_step before prefill")]
    fn decode_before_prefill_panics() {
        let g = toy();
        let mut cache = KvCache::for_model(&g.cfg);
        let _ = decode_step(&g, 0, &mut cache);
    }

    #[test]
    #[should_panic(expected = "generation window exceeds seq_len")]
    fn decode_past_window_panics() {
        let g = toy();
        let mut cache = KvCache::for_model(&g.cfg);
        let _ = prefill(&g, &[0; 10], &mut cache);
        let _ = decode_step(&g, 0, &mut cache);
    }
}
