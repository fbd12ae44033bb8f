//! The decoder-only transformer: pre-LN blocks, GELU MLPs, LM head,
//! training step and greedy decoding.

use crate::attention::CausalSelfAttention;
use crate::loss::cross_entropy;
use crate::modules::{Embedding, LayerNorm, Linear, Param};
use crate::optim::AdamW;
use axonn_tensor::{gelu_backprop, gelu_in_place, Matrix};

/// The transformer MLP: `fc2(gelu(fc1(x)))`.
#[derive(Clone)]
pub struct Mlp {
    pub fc1: Linear,
    pub fc2: Linear,
    cached_pre: Option<Matrix>,
}

impl Mlp {
    pub fn new(dim: usize, seed: u64) -> Self {
        Mlp {
            fc1: Linear::new(dim, 4 * dim, seed),
            fc2: Linear::new(4 * dim, dim, seed.wrapping_add(1)),
            cached_pre: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let pre = self.fc1.forward(x);
        let mut act = pre.clone();
        gelu_in_place(act.as_mut_slice());
        self.cached_pre = Some(pre);
        self.fc2.forward(&act)
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let mut d_act = self.fc2.backward(dy);
        let pre = self.cached_pre.take().expect("Mlp backward before forward");
        gelu_backprop(pre.as_slice(), d_act.as_mut_slice());
        self.fc1.backward(&d_act)
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.fc1.params_mut();
        p.extend(self.fc2.params_mut());
        p
    }
}

/// One pre-LN transformer block with residual connections.
#[derive(Clone)]
pub struct Block {
    pub ln1: LayerNorm,
    pub attn: CausalSelfAttention,
    pub ln2: LayerNorm,
    pub mlp: Mlp,
}

impl Block {
    pub fn new(dim: usize, n_heads: usize, seq_len: usize, seed: u64) -> Self {
        Block {
            ln1: LayerNorm::new(dim),
            attn: CausalSelfAttention::new(dim, n_heads, seq_len, seed),
            ln2: LayerNorm::new(dim),
            mlp: Mlp::new(dim, seed.wrapping_add(100)),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let normed = self.ln1.forward(x);
        let mut h = self.attn.forward(&normed);
        h.add_assign(x);
        let normed2 = self.ln2.forward(&h);
        let mut out = self.mlp.forward(&normed2);
        out.add_assign(&h);
        out
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        // out = h + mlp(ln2(h)); h = x + attn(ln1(x)).
        let d_mlp_in = self.mlp.backward(dy);
        let mut dh = self.ln2.backward(&d_mlp_in);
        dh.add_assign(dy);
        let d_attn_in = self.attn.backward(&dh);
        let mut dx = self.ln1.backward(&d_attn_in);
        dx.add_assign(&dh);
        dx
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.ln1.params_mut();
        p.extend(self.attn.params_mut());
        p.extend(self.ln2.params_mut());
        p.extend(self.mlp.params_mut());
        p
    }
}

/// Architecture of a [`Gpt`].
#[derive(Debug, Clone)]
pub struct GptModelConfig {
    pub vocab: usize,
    pub seq_len: usize,
    pub dim: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub seed: u64,
}

impl GptModelConfig {
    pub fn tiny(vocab: usize, seq_len: usize) -> Self {
        GptModelConfig {
            vocab,
            seq_len,
            dim: 32,
            n_heads: 2,
            n_layers: 2,
            seed: 7,
        }
    }
}

/// The full model.
#[derive(Clone)]
pub struct Gpt {
    pub cfg: GptModelConfig,
    pub emb: Embedding,
    pub blocks: Vec<Block>,
    pub ln_f: LayerNorm,
    pub head: Linear,
}

impl Gpt {
    pub fn new(cfg: GptModelConfig) -> Self {
        let emb = Embedding::new(cfg.vocab, cfg.seq_len, cfg.dim, cfg.seed);
        let blocks = (0..cfg.n_layers)
            .map(|i| {
                Block::new(
                    cfg.dim,
                    cfg.n_heads,
                    cfg.seq_len,
                    cfg.seed + 1000 * (i as u64 + 1),
                )
            })
            .collect();
        let ln_f = LayerNorm::new(cfg.dim);
        let head = Linear::new(cfg.dim, cfg.vocab, cfg.seed.wrapping_add(99));
        Gpt {
            cfg,
            emb,
            blocks,
            ln_f,
            head,
        }
    }

    pub fn num_parameters(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.emb.params_mut();
        for b in &mut self.blocks {
            p.extend(b.params_mut());
        }
        p.extend(self.ln_f.params_mut());
        p.extend(self.head.params_mut());
        p
    }

    /// Logits for a batch of token sequences (`tokens.len()` a multiple
    /// of `seq_len`); shape `(B·T) × V`.
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        let mut x = self.emb.forward(tokens);
        for b in &mut self.blocks {
            x = b.forward(&x);
        }
        let x = self.ln_f.forward(&x);
        self.head.forward(&x)
    }

    /// Backpropagate from logit gradients through the whole model.
    pub fn backward(&mut self, d_logits: &Matrix) {
        let d = self.head.backward(d_logits);
        let mut d = self.ln_f.backward(&d);
        for b in self.blocks.iter_mut().rev() {
            d = b.backward(&d);
        }
        self.emb.backward(&d);
    }

    /// One training step: next-token prediction of `targets` from
    /// `inputs` (same length, caller shifts), with an optional loss mask
    /// (the Goldfish hook). Returns the mean loss over counted tokens.
    pub fn train_step(
        &mut self,
        inputs: &[usize],
        targets: &[usize],
        mask: Option<&[bool]>,
        opt: &mut AdamW,
    ) -> f32 {
        assert_eq!(inputs.len(), targets.len());
        let logits = self.forward(inputs);
        let res = cross_entropy(&logits, targets, mask);
        self.backward(&res.d_logits);
        opt.next_step();
        let opt_snapshot = *opt;
        for p in self.params_mut() {
            opt_snapshot.update(p);
        }
        res.loss
    }

    /// Greedy autoregressive continuation: given `prompt`, generate
    /// `n_new` tokens. Requires `prompt.len() + n_new <= seq_len` (the
    /// memorization protocol always evaluates within one training
    /// window).
    ///
    /// Runs through the KV-cached decode path (`crate::decode`): the
    /// prompt is prefetched once, then each new token costs O(seq)
    /// attention instead of a full-sequence recompute. Bitwise identical
    /// to [`Gpt::greedy_continuation_recompute`] (proptested).
    pub fn greedy_continuation(&mut self, prompt: &[usize], n_new: usize) -> Vec<usize> {
        assert!(
            prompt.len() + n_new <= self.cfg.seq_len,
            "generation window exceeds seq_len"
        );
        assert!(!prompt.is_empty(), "empty prompt");
        if n_new == 0 {
            return Vec::new();
        }
        let mut cache = crate::decode::KvCache::for_model(&self.cfg);
        let logits = crate::decode::prefill(self, prompt, &mut cache);
        let mut next = crate::decode::argmax(logits.row(prompt.len() - 1));
        let mut out = Vec::with_capacity(n_new);
        out.push(next);
        for _ in 1..n_new {
            let row = crate::decode::decode_step(self, next, &mut cache);
            next = crate::decode::argmax(&row);
            out.push(next);
        }
        out
    }

    /// The seed's full-recompute continuation: re-runs the whole forward
    /// pass (padded to `seq_len`) for every generated token. O(seq²) per
    /// token — kept as the bit-identity oracle for the KV-cached path.
    pub fn greedy_continuation_recompute(&mut self, prompt: &[usize], n_new: usize) -> Vec<usize> {
        assert!(
            prompt.len() + n_new <= self.cfg.seq_len,
            "generation window exceeds seq_len"
        );
        let mut ctx = prompt.to_vec();
        let mut out = Vec::with_capacity(n_new);
        for _ in 0..n_new {
            let mut padded = ctx.clone();
            padded.resize(self.cfg.seq_len, 0);
            let logits = self.forward(&padded);
            let row = logits.row(ctx.len() - 1);
            let next = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("nonempty vocab");
            ctx.push(next);
            out.push(next);
        }
        out
    }

    /// Mean next-token loss on a batch without updating weights.
    pub fn eval_loss(&mut self, inputs: &[usize], targets: &[usize]) -> f32 {
        let logits = self.forward(inputs);
        cross_entropy(&logits, targets, None).loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_cfg() -> GptModelConfig {
        GptModelConfig {
            vocab: 12,
            seq_len: 8,
            dim: 16,
            n_heads: 2,
            n_layers: 2,
            seed: 3,
        }
    }

    #[test]
    fn forward_shapes() {
        let mut g = Gpt::new(toy_cfg());
        let tokens: Vec<usize> = (0..16).map(|i| i % 12).collect(); // B=2
        let logits = g.forward(&tokens);
        assert_eq!(logits.shape(), (16, 12));
    }

    #[test]
    fn parameter_count_is_plausible() {
        let cfg = toy_cfg();
        let mut g = Gpt::new(cfg.clone());
        let n = g.num_parameters();
        // 12·L·d² core plus embeddings and head.
        let core = 12 * cfg.n_layers * cfg.dim * cfg.dim;
        let emb = (cfg.vocab + cfg.seq_len) * cfg.dim;
        let head = cfg.dim * cfg.vocab + cfg.vocab;
        assert!(n > core + emb, "n={n} core={core}");
        assert!(n < 2 * (core + 2 * emb + head) + 10_000);
    }

    #[test]
    fn memorizes_a_single_sequence() {
        // The fundamental capability behind the Section VIII study:
        // trained repeatedly on one sequence, the model reproduces it.
        let cfg = toy_cfg();
        let mut g = Gpt::new(cfg.clone());
        let mut opt = AdamW::new(3e-3);
        let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5];
        let inputs = &seq[..8];
        let targets = &seq[1..9];
        let mut loss = f32::MAX;
        for _ in 0..150 {
            loss = g.train_step(inputs, targets, None, &mut opt);
        }
        assert!(loss < 0.1, "did not memorize: loss {loss}");
        let continuation = g.greedy_continuation(&seq[..4], 4);
        assert_eq!(continuation, seq[4..8].to_vec(), "exact-match failed");
    }

    #[test]
    fn training_reduces_loss_on_structured_data() {
        let cfg = toy_cfg();
        let mut g = Gpt::new(cfg.clone());
        let mut opt = AdamW::new(1e-3);
        // Deterministic pattern: t_{i+1} = (t_i + 3) mod 12, two phases.
        let make = |start: usize| -> Vec<usize> { (0..9).map(|i| (start + 3 * i) % 12).collect() };
        let first;
        let mut last = 0.0;
        {
            let s = make(0);
            first = g.train_step(&s[..8], &s[1..9], None, &mut opt);
        }
        for step in 0..120 {
            let s = make(step % 12);
            last = g.train_step(&s[..8], &s[1..9], None, &mut opt);
        }
        assert!(last < 0.5 * first, "loss {first} -> {last}");
    }

    #[test]
    fn goldfish_mask_blocks_memorization_of_masked_tokens() {
        // Mask every other target: the model should stay uncertain there.
        let cfg = toy_cfg();
        let mut g = Gpt::new(cfg.clone());
        let mut opt = AdamW::new(3e-3);
        let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5];
        let mask: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        for _ in 0..150 {
            g.train_step(&seq[..8], &seq[1..9], Some(&mask), &mut opt);
        }
        // Loss restricted to masked-out positions stays high.
        let logits = g.forward(&seq[..8]);
        let inv_mask: Vec<bool> = mask.iter().map(|b| !b).collect();
        let hidden = cross_entropy(&logits, &seq[1..9], Some(&inv_mask));
        let seen = cross_entropy(&logits, &seq[1..9], Some(&mask));
        assert!(seen.loss < 0.1, "seen-token loss {}", seen.loss);
        assert!(
            hidden.loss > 5.0 * seen.loss.max(0.01),
            "masked tokens were memorized anyway: {} vs {}",
            hidden.loss,
            seen.loss
        );
    }

    #[test]
    fn fresh_model_holds_no_gradients_or_optimizer_state() {
        let mut g = Gpt::new(toy_cfg());
        assert!(g
            .params_mut()
            .iter()
            .all(|p| p.grad.is_empty() && p.m.is_empty() && p.v.is_empty()));
        // Inference allocates none either; the first training step does.
        let _ = g.greedy_continuation(&[1, 2], 3);
        assert!(g
            .params_mut()
            .iter()
            .all(|p| p.grad.is_empty() && p.m.is_empty()));
        let mut opt = AdamW::new(1e-3);
        g.train_step(&[1, 2, 3], &[2, 3, 4], None, &mut opt);
        assert!(g.params_mut().iter().all(|p| {
            let shape = p.value.shape();
            p.grad.shape() == shape && p.m.shape() == shape && p.v.shape() == shape
        }));
    }

    #[test]
    fn lazy_moments_train_bitwise_like_eager_zero_moments() {
        // Gradients and moments allocated on first use must behave
        // exactly as zero matrices held from construction.
        let mut lazy = Gpt::new(toy_cfg());
        let mut eager = Gpt::new(toy_cfg());
        for p in eager.params_mut() {
            let (r, c) = p.value.shape();
            p.grad = Matrix::zeros(r, c);
            p.m = Matrix::zeros(r, c);
            p.v = Matrix::zeros(r, c);
        }
        let (mut opt_l, mut opt_e) = (AdamW::new(3e-3), AdamW::new(3e-3));
        let seq: Vec<usize> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5];
        for _ in 0..5 {
            let a = lazy.train_step(&seq[..8], &seq[1..9], None, &mut opt_l);
            let b = eager.train_step(&seq[..8], &seq[1..9], None, &mut opt_e);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in lazy.params_mut().iter().zip(eager.params_mut()) {
            assert_eq!(a.value.fnv1a64(), b.value.fnv1a64());
            assert_eq!(a.m.fnv1a64(), b.m.fnv1a64());
            assert_eq!(a.v.fnv1a64(), b.v.fnv1a64());
        }
    }

    #[test]
    #[should_panic(expected = "generation window")]
    fn generation_respects_window() {
        let mut g = Gpt::new(toy_cfg());
        let _ = g.greedy_continuation(&[1; 6], 4);
    }

    #[test]
    fn eval_loss_does_not_change_weights() {
        let mut g = Gpt::new(toy_cfg());
        let tokens: Vec<usize> = (0..8).collect();
        let before = g.forward(&tokens).as_slice().to_vec();
        let _ = g.eval_loss(&tokens, &tokens);
        let after = g.forward(&tokens).as_slice().to_vec();
        assert_eq!(before, after);
    }
}
