//! Tensor-parallel decode: Megatron-style sharding of the attention and
//! MLP blocks across the 4D grid's X dimension, run as real SPMD ranks
//! over the pooled collectives runtime.
//!
//! Each rank holds a [`TpShard`]: the QKV projection column-sharded by
//! head (rank `r` owns heads `r·H/T .. (r+1)·H/T`), the output
//! projection row-sharded to match (partial products folded with one
//! all-reduce), and the MLP fc1 column- / fc2 row-sharded the same way —
//! two all-reduces per layer per token, exactly the communication
//! pattern of Megatron-style tensor parallelism. LayerNorms, embeddings
//! and the LM head are replicated. Biases of the row-sharded projections
//! are added *after* the reduce, once per rank, so every rank computes
//! the identical post-reduce activation and the decoded token streams
//! agree across the group.
//!
//! The per-rank KV cache holds only the rank's own heads
//! ([`KvCache::with_heads`]), so cache memory also scales down by `1/T`.

use axonn_collectives::{Comm, CommWorld};
use axonn_core::GridTopology;
use axonn_lm::decode::{attend, KvCache};
use axonn_lm::gpt::gelu_in_place;
use axonn_lm::{Gpt, GptModelConfig};
use axonn_tensor::{gemm, MatMode, Matrix};
use axonn_trace::LiveRegistry;
use std::sync::Arc;

struct TpBlock {
    ln1_gain: Matrix,
    ln1_bias: Matrix,
    ln2_gain: Matrix,
    ln2_bias: Matrix,
    /// `(dim, 3·lh·hd)` — this rank's head columns of Q|K|V, re-packed
    /// so the local layout is again three contiguous sections.
    qkv_w: Matrix,
    qkv_b: Matrix,
    /// `(lh·hd, dim)` — this rank's rows of the output projection.
    proj_rows: Matrix,
    proj_b: Matrix,
    /// `(dim, hidden/T)` and `(hidden/T, dim)`.
    fc1_w: Matrix,
    fc1_b: Matrix,
    fc2_rows: Matrix,
    fc2_b: Matrix,
}

/// One rank's slice of the model plus the replicated pieces.
pub struct TpShard {
    pub rank: usize,
    pub tp: usize,
    cfg: GptModelConfig,
    local_heads: usize,
    head_dim: usize,
    eps: f32,
    emb_tok: Matrix,
    emb_pos: Matrix,
    blocks: Vec<TpBlock>,
    lnf_gain: Matrix,
    lnf_bias: Matrix,
    head_w: Matrix,
    head_b: Matrix,
}

/// Columns `[lo, hi)` of `m`.
fn col_slice(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    Matrix::from_fn(m.rows(), hi - lo, |r, c| m.row(r)[lo + c])
}

/// Rows `[lo, hi)` of `m`.
fn row_slice(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    Matrix::from_fn(hi - lo, m.cols(), |r, c| m.row(lo + r)[c])
}

/// `y = x·W + b` for a single-row activation.
fn matmul_bias(x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
    let mut y = gemm(MatMode::NN, x, w);
    for (v, bv) in y.row_mut(0).iter_mut().zip(b.as_slice()) {
        *v += bv;
    }
    y
}

/// Row-wise layer norm of a single-row activation.
fn ln_row(x: &Matrix, gain: &Matrix, bias: &Matrix, eps: f32) -> Matrix {
    let d = x.cols();
    let row = x.row(0);
    let mean = row.iter().sum::<f32>() / d as f32;
    let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
    let inv_std = 1.0 / (var + eps).sqrt();
    Matrix::from_fn(1, d, |_, c| {
        (row[c] - mean) * inv_std * gain.as_slice()[c] + bias.as_slice()[c]
    })
}

impl TpShard {
    /// Slice rank `rank` of a `tp`-way shard out of a full model.
    ///
    /// # Panics
    /// If `n_heads` or the MLP hidden width is not divisible by `tp`.
    pub fn new(model: &Gpt, tp: usize, rank: usize) -> TpShard {
        let cfg = model.cfg.clone();
        assert!(tp > 0 && rank < tp, "rank {rank} outside tp {tp}");
        assert!(
            cfg.n_heads.is_multiple_of(tp),
            "{} heads not divisible by tp {tp}",
            cfg.n_heads
        );
        let hidden = 4 * cfg.dim;
        assert!(
            hidden.is_multiple_of(tp),
            "hidden width {hidden} not divisible by tp {tp}"
        );
        let lh = cfg.n_heads / tp;
        let hd = cfg.dim / cfg.n_heads;
        let lsec = lh * hd; // this rank's columns within each of Q, K, V
        let hl = hidden / tp;
        let blocks = model
            .blocks
            .iter()
            .map(|b| {
                let qkv = &b.attn.qkv;
                // Re-pack Q|K|V head columns: local col j in section s maps
                // to global col s·dim + rank·lsec + (j - s·lsec).
                let pick = |m: &Matrix, is_bias: bool| {
                    let rows = if is_bias { 1 } else { m.rows() };
                    Matrix::from_fn(rows, 3 * lsec, |r, j| {
                        let sec = j / lsec;
                        let within = j % lsec;
                        m.row(r)[sec * cfg.dim + rank * lsec + within]
                    })
                };
                TpBlock {
                    ln1_gain: b.ln1.gain.value.clone(),
                    ln1_bias: b.ln1.bias.value.clone(),
                    ln2_gain: b.ln2.gain.value.clone(),
                    ln2_bias: b.ln2.bias.value.clone(),
                    qkv_w: pick(&qkv.w.value, false),
                    qkv_b: pick(&qkv.b.value, true),
                    proj_rows: row_slice(&b.attn.proj.w.value, rank * lsec, (rank + 1) * lsec),
                    proj_b: b.attn.proj.b.value.clone(),
                    fc1_w: col_slice(&b.mlp.fc1.w.value, rank * hl, (rank + 1) * hl),
                    fc1_b: col_slice(&b.mlp.fc1.b.value, rank * hl, (rank + 1) * hl),
                    fc2_rows: row_slice(&b.mlp.fc2.w.value, rank * hl, (rank + 1) * hl),
                    fc2_b: b.mlp.fc2.b.value.clone(),
                }
            })
            .collect();
        TpShard {
            rank,
            tp,
            local_heads: lh,
            head_dim: hd,
            eps: model.ln_f.eps(),
            emb_tok: model.emb.tok.value.clone(),
            emb_pos: model.emb.pos.value.clone(),
            blocks,
            lnf_gain: model.ln_f.gain.value.clone(),
            lnf_bias: model.ln_f.bias.value.clone(),
            head_w: model.head.w.value.clone(),
            head_b: model.head.b.value.clone(),
            cfg,
        }
    }

    /// An empty per-rank cache: only this rank's heads.
    pub fn new_cache(&self) -> KvCache {
        KvCache::with_heads(
            self.cfg.n_layers,
            self.local_heads,
            self.cfg.seq_len,
            self.head_dim,
        )
    }

    /// Feed one token at the cache's position; two all-reduces per layer
    /// fold the partial attention/MLP products across the group. Every
    /// rank returns the full (replicated) logits row.
    pub fn decode_token(
        &self,
        comm: &Comm,
        group: &axonn_collectives::ProcessGroup,
        token: usize,
        cache: &mut KvCache,
    ) -> Vec<f32> {
        assert!(cache.remaining() > 0, "generation window exceeds seq_len");
        let pos = cache.len();
        let dim = self.cfg.dim;
        let lh = self.local_heads;
        let hd = self.head_dim;
        let lsec = lh * hd;
        let scale = 1.0 / (hd as f32).sqrt();

        let tok_row = self.emb_tok.row(token);
        let pos_row = self.emb_pos.row(pos);
        let mut x = Matrix::from_fn(1, dim, |_, c| tok_row[c] + pos_row[c]);
        let mut probs = Vec::new();
        for (li, b) in self.blocks.iter().enumerate() {
            let normed = ln_row(&x, &b.ln1_gain, &b.ln1_bias, self.eps);
            let qkv = matmul_bias(&normed, &b.qkv_w, &b.qkv_b);
            let mut heads_out = Matrix::zeros(1, lsec);
            for h in 0..lh {
                let row = qkv.row(0);
                let off = h * hd;
                cache.push_row(
                    li,
                    h,
                    pos,
                    &row[lsec + off..lsec + off + hd],
                    &row[2 * lsec + off..2 * lsec + off + hd],
                );
                attend(
                    &row[off..off + hd],
                    cache.k_rows(li, h, pos + 1),
                    cache.v_rows(li, h, pos + 1),
                    scale,
                    &mut probs,
                    &mut heads_out.row_mut(0)[off..off + hd],
                );
            }
            // Row-sharded output projection: partial product, one
            // all-reduce, bias added post-reduce on every rank.
            let mut attn_out = gemm(MatMode::NN, &heads_out, &b.proj_rows);
            comm.all_reduce(group, attn_out.as_mut_slice());
            for (v, bv) in attn_out.row_mut(0).iter_mut().zip(b.proj_b.as_slice()) {
                *v += bv;
            }
            attn_out.add_assign(&x);
            let h1 = attn_out;

            let normed2 = ln_row(&h1, &b.ln2_gain, &b.ln2_bias, self.eps);
            let mut act = matmul_bias(&normed2, &b.fc1_w, &b.fc1_b);
            gelu_in_place(act.as_mut_slice());
            let mut mlp_out = gemm(MatMode::NN, &act, &b.fc2_rows);
            comm.all_reduce(group, mlp_out.as_mut_slice());
            for (v, bv) in mlp_out.row_mut(0).iter_mut().zip(b.fc2_b.as_slice()) {
                *v += bv;
            }
            mlp_out.add_assign(&h1);
            x = mlp_out;
        }
        cache.advance(1);
        let xf = ln_row(&x, &self.lnf_gain, &self.lnf_bias, self.eps);
        matmul_bias(&xf, &self.head_w, &self.head_b).row(0).to_vec()
    }
}

/// Symbolic collective schedule of a TP greedy decode, per rank: the
/// serving-plane twin of `axonn_core`'s training-step extractors.
/// Replays `tokens` single-token [`TpShard::decode_token`] steps per
/// rank on a dry world — two blocking all-reduces per layer per token —
/// against a synthetic checkpoint shape with `layers` transformer
/// blocks, sized so any `tp` divides the head count and MLP width.
///
/// The streams feed `axonn_verify::check_schedules`, which is what
/// `axonnctl verify --serve <tp> [<layers> <tokens>]` runs to certify a
/// TP decode config race- and deadlock-free before a single request is
/// admitted. The schedule depends only on `(tp, layers, tokens)` — the
/// decoded token ids steer no communication — so the certificate covers
/// every prompt of the same shape.
pub fn extract_tp_decode_schedule(
    tp: usize,
    layers: usize,
    tokens: usize,
) -> Vec<Vec<axonn_collectives::SchedEvent>> {
    assert!(tp >= 1, "tp must be at least 1");
    assert!(
        layers >= 1 && tokens >= 1,
        "need at least 1 layer and token"
    );
    // heads = tp and hidden = 32·tp make every tp legal; head_dim stays 8.
    let model = Gpt::new(GptModelConfig {
        vocab: 16,
        seq_len: tokens,
        dim: 8 * tp,
        n_heads: tp,
        n_layers: layers,
        seed: 17,
    });
    let comms = CommWorld::dry(tp);
    let probe = comms[0].clone();
    for comm in comms {
        let rank = comm.rank();
        let shard = TpShard::new(&model, tp, rank);
        let grid = GridTopology::new(tp, 1, 1, 1, rank);
        let group = grid.x_group().clone();
        let mut cache = shard.new_cache();
        let mut next = 0usize;
        for _ in 0..tokens {
            let logits = shard.decode_token(&comm, &group, next, &mut cache);
            next = axonn_lm::decode::argmax(&logits);
        }
    }
    probe
        .schedule_streams()
        .expect("dry worlds always record schedules")
}

/// Greedy continuation decoded by `tp` SPMD ranks over the pooled
/// collectives runtime, with `serve.tp.*` metrics in `registry`.
/// Returns each rank's `(tokens, final_logits)` — the token streams must
/// agree (asserted), since every rank sees identical post-reduce
/// activations.
pub fn tp_greedy_spmd(
    model: &Gpt,
    tp: usize,
    prompt: &[usize],
    n_new: usize,
    registry: &LiveRegistry,
) -> Vec<(Vec<usize>, Vec<f32>)> {
    assert!(!prompt.is_empty(), "empty prompt");
    assert!(
        prompt.len() + n_new <= model.cfg.seq_len,
        "generation window exceeds seq_len"
    );
    let shards: Arc<Vec<TpShard>> = Arc::new((0..tp).map(|r| TpShard::new(model, tp, r)).collect());
    let comms = CommWorld::builder(tp).metrics(registry.clone()).build();
    let prompt = prompt.to_vec();
    let results = axonn_exec::run_spmd_on(comms, move |comm| {
        let rank = comm.rank();
        let shard = &shards[rank];
        let grid = GridTopology::new(tp, 1, 1, 1, rank);
        let group = grid.x_group().clone();
        let tokens_counter = comm
            .live_registry()
            .map(|reg| reg.counter("serve.tp.tokens"));
        let mut cache = shard.new_cache();
        // Prefill token-at-a-time: same math, one position per step.
        let mut logits = Vec::new();
        for &t in &prompt {
            logits = shard.decode_token(&comm, &group, t, &mut cache);
        }
        let mut tokens = Vec::with_capacity(n_new);
        for _ in 0..n_new {
            let next = axonn_lm::decode::argmax(&logits);
            tokens.push(next);
            if rank == 0 {
                if let Some(c) = &tokens_counter {
                    c.inc();
                }
            }
            if tokens.len() == n_new {
                break;
            }
            logits = shard.decode_token(&comm, &group, next, &mut cache);
        }
        (tokens, logits)
    });
    for r in 1..results.len() {
        assert_eq!(
            results[0].0, results[r].0,
            "rank {r} decoded a different stream than rank 0"
        );
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_lm::optim::AdamW;
    use axonn_lm::GptModelConfig;

    fn trained_model() -> Gpt {
        let mut g = Gpt::new(GptModelConfig {
            vocab: 12,
            seq_len: 12,
            dim: 16,
            n_heads: 4,
            n_layers: 2,
            seed: 9,
        });
        let mut opt = AdamW::new(3e-3);
        let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8];
        for _ in 0..80 {
            g.train_step(&seq[..11], &seq[1..12], None, &mut opt);
        }
        g
    }

    #[test]
    fn single_rank_tp_matches_kv_decode_bitwise() {
        // With tp = 1 there is no reduction reordering at all: the shard
        // holds the full model and must reproduce the KV path's bits.
        let mut g = trained_model();
        let prompt = [3usize, 1, 4, 1];
        let reg = LiveRegistry::new_enabled(true);
        let out = tp_greedy_spmd(&g, 1, &prompt, 5, &reg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, g.greedy_continuation(&prompt, 5));
    }

    #[test]
    fn tp_ranks_agree_and_match_the_model() {
        let mut g = trained_model();
        let prompt = [3usize, 1, 4, 1];
        let reg = LiveRegistry::new_enabled(true);
        for tp in [2usize, 4] {
            let out = tp_greedy_spmd(&g, tp, &prompt, 5, &reg);
            assert_eq!(out.len(), tp);
            for r in 1..tp {
                assert_eq!(out[0].0, out[r].0, "tp {tp} rank {r} diverged");
            }
            // Confident (trained) model: the reduction reorder must not
            // flip any argmax.
            assert_eq!(out[0].0, g.greedy_continuation(&prompt, 5), "tp {tp}");
        }
    }

    #[test]
    fn tp_logits_approximate_the_full_forward() {
        let mut g = trained_model();
        let prompt = [3usize, 1, 4, 1];
        let reg = LiveRegistry::new_enabled(true);
        let out = tp_greedy_spmd(&g, 2, &prompt, 3, &reg);
        // Final logits row = logits of the context prompt + first 2 tokens.
        let mut ctx = prompt.to_vec();
        ctx.extend_from_slice(&out[0].0[..2]);
        let full = g.forward(&ctx);
        let want = full.row(ctx.len() - 1);
        for (a, b) in out[0].1.iter().zip(want) {
            assert!(
                (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                "tp logits diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn tp_decode_stamps_collective_and_serve_metrics() {
        let g = trained_model();
        let reg = LiveRegistry::new_enabled(true);
        let _ = tp_greedy_spmd(&g, 2, &[3, 1], 4, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("serve.tp.tokens"), Some(&4));
        // The pooled collectives stamped their own counters too: two
        // all-reduces per layer per token.
        assert!(
            snap.counters.keys().any(|k| k.contains("all_reduce")),
            "no collective counters in {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn extracted_decode_schedules_certify_clean() {
        // The serving-plane certificate behind `axonnctl verify --serve`:
        // every supported tp degree's decode schedule is matched, lint-,
        // deadlock-, race-, and slab-clean.
        for tp in [1usize, 2, 4] {
            let streams = extract_tp_decode_schedule(tp, 2, 3);
            assert_eq!(streams.len(), tp);
            let report = axonn_verify::check_schedules(&streams);
            assert!(report.is_ok(), "tp={tp}: {report}");
            for (rank, stream) in streams.iter().enumerate() {
                let issues = stream
                    .iter()
                    .filter(|e| matches!(e, axonn_collectives::SchedEvent::Issue(_)))
                    .count();
                // Two all-reduces per layer per token; size-1 groups
                // record nothing at all.
                let expect = if tp == 1 { 0 } else { 2 * 2 * 3 };
                assert_eq!(issues, expect, "tp={tp} rank={rank}");
            }
        }
    }

    #[test]
    fn corrupted_decode_schedule_is_rejected() {
        let mut streams = extract_tp_decode_schedule(2, 1, 2);
        assert!(axonn_verify::inject(
            &mut streams,
            1,
            axonn_verify::InjectKind::CountMismatch
        ));
        let report = axonn_verify::check_schedules(&streams);
        assert!(!report.is_ok());
        assert!(
            report.to_string().contains("collective mismatch"),
            "unexpected report: {report}"
        );
    }

    #[test]
    fn tp2_decode_smoke_world() {
        // Deliberately tiny (untrained model, one layer, two tokens) so
        // the CI miri job can execute the full threaded tp=2 decode
        // world — pooled collectives, KV cache, teardown certification —
        // under the interpreter.
        let g = Gpt::new(GptModelConfig {
            vocab: 8,
            seq_len: 4,
            dim: 8,
            n_heads: 2,
            n_layers: 1,
            seed: 5,
        });
        let reg = LiveRegistry::new_enabled(false);
        let out = tp_greedy_spmd(&g, 2, &[1], 2, &reg);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[0].0.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_heads_are_rejected() {
        let g = Gpt::new(GptModelConfig {
            vocab: 8,
            seq_len: 8,
            dim: 12,
            n_heads: 3,
            n_layers: 1,
            seed: 1,
        });
        let _ = TpShard::new(&g, 2, 0);
    }
}
