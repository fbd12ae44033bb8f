//! The KV-cached decode path must be **bitwise** identical to the
//! full-forward recompute — for every model shape (heads, head width,
//! depth, window), every prompt length, and every decode depth. This
//! holds because each decode step replays the exact per-row loops of the
//! training modules (same gemm kernels, same softmax accumulation order)
//! and `gemm_nn`'s zero-skip makes causally-masked entries contribute
//! nothing to the batched P·V product; the property test here is the
//! contract that keeps the serving plane's logits trustworthy.
//!
//! The batched step adds a second contract: a stream's logits row does
//! not depend on which other streams share the batch, on the batch
//! order, or on whether the weights were packed per call or once.

use axonn_lm::decode::{self, KvCache, PackedWeights};
use axonn_lm::{AdamW, Gpt, GptModelConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Case {
    cfg: GptModelConfig,
    prompt: Vec<usize>,
    n_new: usize,
    train_steps: usize,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        0usize..3,       // head-count choice: 1, 2, 4
        0usize..2,       // head-dim choice: 4, 8
        1usize..=2,      // n_layers
        6usize..=12,     // seq_len
        5usize..=16,     // vocab
        0u64..=u64::MAX, // master seed (weights, prompt, train depth)
    )
        .prop_map(|(hc, hdc, n_layers, seq_len, vocab, seed)| {
            let n_heads = [1usize, 2, 4][hc];
            let head_dim = [4usize, 8][hdc];
            let cfg = GptModelConfig {
                vocab,
                seq_len,
                dim: n_heads * head_dim,
                n_heads,
                n_layers,
                seed,
            };
            let mut s = seed;
            let prompt_len = 1 + (splitmix(&mut s) as usize) % (seq_len - 1);
            let prompt: Vec<usize> = (0..prompt_len)
                .map(|_| (splitmix(&mut s) as usize) % vocab)
                .collect();
            let train_steps = (splitmix(&mut s) as usize) % 13;
            Case {
                n_new: seq_len - prompt_len,
                cfg,
                prompt,
                train_steps,
            }
        })
}

fn build_model(case: &Case) -> Gpt {
    let mut g = Gpt::new(case.cfg.clone());
    if case.train_steps > 0 {
        // A few optimizer steps move the weights off their init manifold
        // so the property is not an artifact of fresh-init symmetry.
        let mut opt = AdamW::new(2e-3);
        let seq: Vec<usize> = (0..case.cfg.seq_len + 1)
            .map(|i| (i * 3 + 1) % case.cfg.vocab)
            .collect();
        let n = case.cfg.seq_len;
        for _ in 0..case.train_steps {
            g.train_step(&seq[..n], &seq[1..n + 1], None, &mut opt);
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Prefill logits and every decode-step logits row are bitwise equal
    /// to a full forward pass over the same (unpadded) context.
    #[test]
    fn kv_decode_is_bitwise_identical_to_full_forward(case in case_strategy()) {
        let mut g = build_model(&case);
        let mut cache = KvCache::for_model(&g.cfg);
        let kv_logits = decode::prefill(&g, &case.prompt, &mut cache);
        let full = g.forward(&case.prompt);
        prop_assert_eq!(kv_logits.shape(), full.shape());
        for (i, (a, b)) in kv_logits.as_slice().iter().zip(full.as_slice()).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "prefill logit {} differs", i);
        }

        // Greedy-extend through the cache; check each step's row against
        // the oracle forward over the grown context.
        let mut ctx = case.prompt.clone();
        let mut next = decode::argmax(kv_logits.row(ctx.len() - 1));
        for step in 0..case.n_new.saturating_sub(1) {
            let row = decode::decode_step(&g, next, &mut cache);
            ctx.push(next);
            let oracle = g.forward(&ctx);
            let want = oracle.row(ctx.len() - 1);
            for (j, (a, b)) in row.iter().zip(want).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "step {} logit {} differs (ctx len {})",
                    step,
                    j,
                    ctx.len()
                );
            }
            next = decode::argmax(&row);
        }
    }

    /// A batch of 1–8 streams at different prompt lengths and cache
    /// depths, in shuffled order, yields per row exactly the bits a
    /// per-stream `decode_step` yields — with pre-packed and with
    /// per-call-packed weights, and again one step later (so the K/V
    /// rows the batched step appended are the per-stream ones too).
    #[test]
    fn batched_decode_rows_equal_per_stream_decode_bitwise(
        case in case_strategy(), streams in 1usize..=8, batch_seed in 0u64..=u64::MAX
    ) {
        let g = build_model(&case);
        let (vocab, seq_len) = (case.cfg.vocab, case.cfg.seq_len);
        let mut s = batch_seed;
        // Per stream: a prompt, a number of greedy steps already taken,
        // room for two more.
        let shapes: Vec<(Vec<usize>, usize)> = (0..streams)
            .map(|_| {
                let filled = 1 + (splitmix(&mut s) as usize) % (seq_len - 2);
                let prompt_len = 1 + (splitmix(&mut s) as usize) % filled;
                let prompt = (0..prompt_len).map(|_| (splitmix(&mut s) as usize) % vocab).collect();
                (prompt, filled - prompt_len)
            })
            .collect();
        let warm = |shapes: &[(Vec<usize>, usize)]| -> Vec<(KvCache, usize)> {
            shapes
                .iter()
                .map(|(prompt, depth)| {
                    let mut cache = KvCache::for_model(&g.cfg);
                    let logits = decode::prefill(&g, prompt, &mut cache);
                    let mut next = decode::argmax(logits.row(prompt.len() - 1));
                    for _ in 0..*depth {
                        next = decode::argmax(&decode::decode_step(&g, next, &mut cache));
                    }
                    (cache, next)
                })
                .collect()
        };
        // Fisher–Yates: the batch order is not the stream order.
        let mut order: Vec<usize> = (0..streams).collect();
        for i in (1..streams).rev() {
            order.swap(i, (splitmix(&mut s) as usize) % (i + 1));
        }

        // Oracle: two per-stream steps, each stream on its own.
        let mut oracle = warm(&shapes);
        let mut fed: Vec<Vec<usize>> = vec![oracle.iter().map(|(_, next)| *next).collect()];
        let mut want: Vec<Vec<Vec<f32>>> = Vec::new();
        for step in 0..2 {
            let rows: Vec<Vec<f32>> = oracle
                .iter_mut()
                .zip(&fed[step])
                .map(|((cache, _), &t)| decode::decode_step(&g, t, cache))
                .collect();
            fed.push(rows.iter().map(|r| decode::argmax(r)).collect());
            want.push(rows);
        }

        let packed = PackedWeights::pack(&g);
        for weights in [None, Some(&packed)] {
            let mut batch = warm(&shapes);
            for step in 0..2 {
                let tokens: Vec<usize> = order.iter().map(|&i| fed[step][i]).collect();
                let mut slots: Vec<Option<&mut KvCache>> =
                    batch.iter_mut().map(|(cache, _)| Some(cache)).collect();
                let mut caches: Vec<&mut KvCache> = order
                    .iter()
                    .map(|&i| slots[i].take().expect("order is a permutation"))
                    .collect();
                let got = decode::decode_batch(&g, weights, &tokens, &mut caches).unwrap();
                prop_assert_eq!(got.shape(), (streams, vocab));
                for (row, &i) in order.iter().enumerate() {
                    for (j, (a, b)) in got.row(row).iter().zip(&want[step][i]).enumerate() {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "step {} stream {} (batch row {}) logit {}, packed {}",
                            step,
                            i,
                            row,
                            j,
                            weights.is_some()
                        );
                    }
                }
            }
        }
    }

    /// The engine's prefill — pre-packed weights, the head on the last
    /// row only — gives bit for bit the last row of `prefill`'s logits.
    #[test]
    fn prefill_with_packed_weights_is_bitwise_identical(case in case_strategy()) {
        let g = build_model(&case);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut a = KvCache::for_model(&g.cfg);
        let full = decode::prefill(&g, &case.prompt, &mut a);
        let want = bits(full.row(case.prompt.len() - 1));
        for packed in [None, Some(PackedWeights::pack(&g))] {
            let mut b = KvCache::for_model(&g.cfg);
            let last = decode::prefill_last(&g, packed.as_ref(), &case.prompt, &mut b);
            prop_assert_eq!(bits(&last), want.clone());
        }
    }

    /// The public greedy continuation (KV-cached) emits exactly the same
    /// tokens as the seed's full-recompute continuation.
    #[test]
    fn greedy_continuation_matches_recompute_oracle(case in case_strategy()) {
        let mut g = build_model(&case);
        let kv = g.greedy_continuation(&case.prompt, case.n_new);
        let oracle = g.greedy_continuation_recompute(&case.prompt, case.n_new);
        prop_assert_eq!(kv, oracle);
    }
}
