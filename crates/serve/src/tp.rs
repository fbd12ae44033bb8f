//! Tensor-parallel decode: Megatron-style sharding of the attention and
//! MLP blocks across the 4D grid's X dimension, run as real SPMD ranks
//! over the pooled collectives runtime.
//!
//! This module shards and drives; the forward is `lm::decode`'s. Each
//! rank slices the model into a [`Gpt`] of its own: the QKV projection
//! column-sharded by head (rank `r` owns heads `r·H/T .. (r+1)·H/T`), the
//! output projection row-sharded to match, and the MLP fc1 column- / fc2
//! row-sharded the same way. LayerNorms, embeddings and the LM head are
//! replicated. The rank runs [`decode::prefill_last`] and
//! [`decode::decode_batch`] on that model, and both call its fold — one
//! all-reduce over the X group — after each of the two row-sharded
//! products: two all-reduces per layer per forward call, with the whole
//! prompt prefilled in one call. Biases of the row-sharded projections
//! are added *after* the reduce, once per rank, so every rank computes
//! the identical post-reduce activation and the decoded token streams
//! agree across the group.
//!
//! The per-rank KV cache holds only the rank's own heads
//! ([`KvCache::with_heads`]), so cache memory also scales down by `1/T`.

use axonn_collectives::{Comm, CommWorld, ProcessGroup};
use axonn_core::GridTopology;
use axonn_lm::decode::{self, KvCache, PackedWeights, Shard};
use axonn_lm::{Gpt, Param};
use axonn_tensor::Matrix;
use axonn_trace::LiveRegistry;
use std::sync::Arc;

/// One rank's slice of the model, in the types `lm::decode` reads: a
/// [`Gpt`] whose blocks hold the rank's heads (`attn.n_heads = H/T`) and
/// MLP columns, with its linear weights packed once.
struct TpShard {
    model: Gpt,
    packed: PackedWeights,
}

/// Columns `[lo, hi)` of `m`.
fn col_slice(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    Matrix::from_fn(m.rows(), hi - lo, |r, c| m.row(r)[lo + c])
}

/// Rows `[lo, hi)` of `m`.
fn row_slice(m: &Matrix, lo: usize, hi: usize) -> Matrix {
    Matrix::from_fn(hi - lo, m.cols(), |r, c| m.row(lo + r)[c])
}

impl TpShard {
    /// Slice rank `rank` of a `tp`-way shard out of a full model.
    ///
    /// # Panics
    /// If `n_heads` or the MLP hidden width is not divisible by `tp`.
    fn new(model: &Gpt, tp: usize, rank: usize) -> TpShard {
        let cfg = &model.cfg;
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
        // This rank's columns within each of Q, K and V, and its MLP
        // hidden columns.
        let lsec = cfg.dim / tp;
        let (q_lo, q_hi) = (rank * lsec, (rank + 1) * lsec);
        let (h_lo, h_hi) = (rank * hidden / tp, (rank + 1) * hidden / tp);
        let mut local = model.clone();
        for b in &mut local.blocks {
            let (attn, mlp) = (&mut b.attn, &mut b.mlp);
            // Re-pack Q|K|V head columns: local col j in section s maps
            // to global col s·dim + q_lo + (j - s·lsec).
            let pick = |m: &Matrix| {
                Matrix::from_fn(m.rows(), 3 * lsec, |r, j| {
                    m.row(r)[(j / lsec) * cfg.dim + q_lo + j % lsec]
                })
            };
            attn.n_heads /= tp;
            attn.qkv.w = Param::new(pick(&attn.qkv.w.value));
            attn.qkv.b = Param::new(pick(&attn.qkv.b.value));
            attn.proj.w = Param::new(row_slice(&attn.proj.w.value, q_lo, q_hi));
            mlp.fc1.w = Param::new(col_slice(&mlp.fc1.w.value, h_lo, h_hi));
            mlp.fc1.b = Param::new(col_slice(&mlp.fc1.b.value, h_lo, h_hi));
            mlp.fc2.w = Param::new(row_slice(&mlp.fc2.w.value, h_lo, h_hi));
        }
        let packed = PackedWeights::pack(&local);
        TpShard {
            model: local,
            packed,
        }
    }

    /// An empty per-rank cache: only this rank's heads.
    fn new_cache(&self) -> KvCache {
        let cfg = &self.model.cfg;
        let heads = self.model.blocks.first().map_or(0, |b| b.attn.n_heads);
        KvCache::with_heads(cfg.n_layers, heads, cfg.seq_len, cfg.dim / cfg.n_heads)
    }
}

/// A shard at its place in a world: folds the row-sharded products by
/// all-reducing them over the rank's X group.
struct Rank<'a> {
    shard: &'a TpShard,
    comm: &'a Comm,
    group: ProcessGroup,
}

impl Shard for Rank<'_> {
    fn gpt(&self) -> &Gpt {
        &self.shard.model
    }

    fn fold(&self, partial: &mut Matrix) {
        self.comm.all_reduce(&self.group, partial.as_mut_slice());
    }
}

impl<'a> Rank<'a> {
    fn new(shard: &'a TpShard, comm: &'a Comm, tp: usize) -> Rank<'a> {
        let grid = GridTopology::new(tp, 1, 1, 1, comm.rank());
        Rank {
            shard,
            comm,
            group: grid.x_group().clone(),
        }
    }

    /// Greedy decode of `n_new` tokens: `prompt` prefilled in one batched
    /// call, then one single-row [`decode::decode_batch`] per further
    /// token. Returns the tokens and the logits row the last was picked
    /// from.
    fn greedy(&self, prompt: &[usize], n_new: usize) -> (Vec<usize>, Vec<f32>) {
        let packed = Some(&self.shard.packed);
        let mut cache = self.shard.new_cache();
        let mut logits = decode::prefill_last(self, packed, prompt, &mut cache);
        let mut tokens = Vec::with_capacity(n_new);
        for i in 0..n_new {
            if i > 0 {
                logits = decode::decode_batch(self, packed, &tokens[i - 1..], &mut [&mut cache])
                    .unwrap_or_else(|e| panic!("{e}"))
                    .into_vec();
            }
            tokens.push(decode::argmax(&logits));
        }
        (tokens, logits)
    }
}

/// Symbolic collective schedule of a TP greedy decode, per rank: the
/// serving-plane twin of `axonn_core`'s training-step extractors.
/// Replays, per rank on a dry world, a one-token prefill and `tokens - 1`
/// single-token decode steps — two blocking all-reduces per layer per
/// token — against a synthetic checkpoint shape with `layers`
/// transformer blocks, sized so any `tp` divides the head count and MLP
/// width.
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
    let model = Gpt::new(axonn_lm::GptModelConfig {
        vocab: 16,
        seq_len: tokens,
        dim: 8 * tp,
        n_heads: tp,
        n_layers: layers,
        seed: 17,
    });
    let comms = CommWorld::dry(tp);
    let probe = comms[0].clone();
    for comm in &comms {
        let shard = TpShard::new(&model, tp, comm.rank());
        Rank::new(&shard, comm, tp).greedy(&[0], tokens);
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
        Rank::new(&shards[comm.rank()], &comm, tp).greedy(&prompt, n_new)
    });
    registry
        .counter("serve.tp.tokens")
        .add(results[0].0.len() as u64);
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
        let reg = LiveRegistry::new();
        let out = tp_greedy_spmd(&g, 1, &prompt, 5, &reg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, g.greedy_continuation(&prompt, 5));
    }

    #[test]
    fn tp_ranks_agree_and_match_the_model() {
        let mut g = trained_model();
        let prompt = [3usize, 1, 4, 1];
        let reg = LiveRegistry::new();
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
        // Batched TP prefill of a multi-token prompt, then two decode
        // steps, held to the full forward at every sharding degree.
        let mut g = trained_model();
        let prompt = [3usize, 1, 4, 1];
        let reg = LiveRegistry::new();
        for tp in [2usize, 4] {
            let out = tp_greedy_spmd(&g, tp, &prompt, 3, &reg);
            // Final logits row = logits of the context prompt + first 2 tokens.
            let mut ctx = prompt.to_vec();
            ctx.extend_from_slice(&out[0].0[..2]);
            let full = g.forward(&ctx);
            let want = full.row(ctx.len() - 1);
            for (a, b) in out[0].1.iter().zip(want) {
                assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                    "tp {tp} logits diverged: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn tp_decode_stamps_collective_and_serve_metrics() {
        let g = trained_model();
        let reg = LiveRegistry::new();
        let (layers, n_new) = (g.cfg.n_layers as u64, 4);
        let _ = tp_greedy_spmd(&g, 2, &[3, 1], n_new, &reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("serve.tp.tokens"), Some(&4));
        // The pooled collectives stamped their own counters too: two
        // all-reduces per layer per forward call, on each of the 2 ranks.
        // The prompt is one batched prefill call, then `n_new - 1` decode
        // calls follow.
        let all_reduces: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.contains("all_reduce") && k.ends_with(".calls"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            all_reduces,
            2 * (2 * layers * n_new as u64),
            "{:?}",
            snap.counters
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
        // world under the interpreter: the engine's own batched prefill,
        // `decode_batch` and cached attention on each rank's slice, the
        // pooled all-reduces that fold them, and teardown certification.
        let g = Gpt::new(GptModelConfig {
            vocab: 8,
            seq_len: 4,
            dim: 8,
            n_heads: 2,
            n_layers: 1,
            seed: 5,
        });
        let reg = LiveRegistry::new();
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
