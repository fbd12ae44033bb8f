//! Parameters and the basic trainable modules: Linear, LayerNorm,
//! Embedding. Every module caches what its backward pass needs and
//! accumulates gradients into its [`Param`]s.

use axonn_tensor::{gemm, MatMode, Matrix};

/// A trainable tensor with its gradient and AdamW state.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Matrix,
    /// Gradient accumulator. Empty (`0 × 0`) until the first backward
    /// pass or optimizer update reaches it through [`Param::grad_mut`],
    /// so a model that is only served holds its weights once, not twice.
    pub grad: Matrix,
    /// First moment (AdamW). Empty (`0 × 0`) until the first
    /// [`crate::AdamW::update`], so a model that is only served never
    /// holds optimizer state.
    pub m: Matrix,
    /// Second moment (AdamW); allocated together with `m`.
    pub v: Matrix,
}

impl Param {
    pub fn new(value: Matrix) -> Self {
        Param {
            value,
            grad: Matrix::zeros(0, 0),
            m: Matrix::zeros(0, 0),
            v: Matrix::zeros(0, 0),
        }
    }

    /// The gradient accumulator, allocated (as zeros) on first use.
    pub fn grad_mut(&mut self) -> &mut Matrix {
        if self.grad.len() != self.value.len() {
            let (r, c) = self.value.shape();
            self.grad = Matrix::zeros(r, c);
        }
        &mut self.grad
    }

    pub fn numel(&self) -> usize {
        self.value.len()
    }
}

/// Fully-connected layer `y = x·W + b`.
#[derive(Clone)]
pub struct Linear {
    pub w: Param,
    pub b: Param,
    cached_x: Option<Matrix>,
}

impl Linear {
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let scale = 1.0 / (in_dim as f32).sqrt();
        Linear {
            w: Param::new(Matrix::random(in_dim, out_dim, scale, seed)),
            b: Param::new(Matrix::zeros(1, out_dim)),
            cached_x: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = gemm(MatMode::NN, x, &self.w.value);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (v, b) in row.iter_mut().zip(self.b.value.as_slice()) {
                *v += b;
            }
        }
        self.cached_x = Some(x.clone());
        y
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self
            .cached_x
            .take()
            .expect("Linear backward before forward");
        let dw = gemm(MatMode::TN, &x, dy);
        self.w.grad_mut().add_assign(&dw);
        let b_grad = self.b.grad_mut().as_mut_slice();
        for r in 0..dy.rows() {
            for (g, d) in b_grad.iter_mut().zip(dy.row(r)) {
                *g += d;
            }
        }
        gemm(MatMode::NT, dy, &self.w.value)
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Layer normalization with learned gain and bias, over the feature axis.
#[derive(Clone)]
pub struct LayerNorm {
    pub gain: Param,
    pub bias: Param,
    eps: f32,
    cached: Option<(Matrix, Vec<f32>, Vec<f32>)>, // x, mean, inv_std per row
}

impl LayerNorm {
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gain: Param::new(Matrix::full(1, dim, 1.0)),
            bias: Param::new(Matrix::zeros(1, dim)),
            eps: 1e-5,
            cached: None,
        }
    }

    /// The normalization epsilon — exposed so the stateless inference
    /// path (KV-cached decode) reproduces `forward` bit-for-bit.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let (rows, d) = x.shape();
        let mut out = Matrix::zeros(rows, d);
        let mut means = Vec::with_capacity(rows);
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            let orow = out.row_mut(r);
            for (c, (&xv, ov)) in row.iter().zip(orow.iter_mut()).enumerate() {
                let norm = (xv - mean) * inv_std;
                *ov = norm * self.gain.value.as_slice()[c] + self.bias.value.as_slice()[c];
            }
            means.push(mean);
            inv_stds.push(inv_std);
        }
        self.cached = Some((x.clone(), means, inv_stds));
        out
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (x, means, inv_stds) = self
            .cached
            .take()
            .expect("LayerNorm backward before forward");
        let (rows, d) = x.shape();
        let mut dx = Matrix::zeros(rows, d);
        let gains = self.gain.value.as_slice().to_vec();
        let gain_grad = self.gain.grad_mut().as_mut_slice();
        let bias_grad = self.bias.grad_mut().as_mut_slice();
        for r in 0..rows {
            let xr = x.row(r);
            let dyr = dy.row(r);
            let mean = means[r];
            let inv_std = inv_stds[r];
            // dnorm = dy * gain; accumulate gain/bias grads.
            let mut dnorm = vec![0.0f32; d];
            for c in 0..d {
                let norm = (xr[c] - mean) * inv_std;
                dnorm[c] = dyr[c] * gains[c];
                gain_grad[c] += dyr[c] * norm;
                bias_grad[c] += dyr[c];
            }
            let sum_dnorm: f32 = dnorm.iter().sum();
            let sum_dnorm_norm: f32 = (0..d).map(|c| dnorm[c] * (xr[c] - mean) * inv_std).sum();
            let dr = dx.row_mut(r);
            for c in 0..d {
                let norm = (xr[c] - mean) * inv_std;
                dr[c] =
                    inv_std / d as f32 * (d as f32 * dnorm[c] - sum_dnorm - norm * sum_dnorm_norm);
            }
        }
        dx
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gain, &mut self.bias]
    }
}

/// Token + learned positional embedding. Input is `B` sequences of `T`
/// token ids; output is a `(B·T) × d` activation matrix.
#[derive(Clone)]
pub struct Embedding {
    pub tok: Param,
    pub pos: Param,
    pub seq_len: usize,
    cached_tokens: Option<Vec<usize>>,
}

impl Embedding {
    pub fn new(vocab: usize, seq_len: usize, dim: usize, seed: u64) -> Self {
        Embedding {
            tok: Param::new(Matrix::random(vocab, dim, 0.02, seed)),
            pos: Param::new(Matrix::random(seq_len, dim, 0.02, seed.wrapping_add(1))),
            seq_len,
            cached_tokens: None,
        }
    }

    /// `tokens.len()` must be a multiple of `seq_len` (a batch of full
    /// windows) or at most `seq_len` (a single, possibly partial,
    /// sequence — used by training on shifted pairs and by generation).
    pub fn forward(&mut self, tokens: &[usize]) -> Matrix {
        assert!(
            tokens.len().is_multiple_of(self.seq_len) || tokens.len() <= self.seq_len,
            "ragged token batch: {} tokens with seq_len {}",
            tokens.len(),
            self.seq_len
        );
        let d = self.tok.value.cols();
        let mut out = Matrix::zeros(tokens.len(), d);
        for (i, &t) in tokens.iter().enumerate() {
            let p = i % self.seq_len;
            let orow = out.row_mut(i);
            let trow = self.tok.value.row(t);
            let prow = self.pos.value.row(p);
            for c in 0..d {
                orow[c] = trow[c] + prow[c];
            }
        }
        self.cached_tokens = Some(tokens.to_vec());
        out
    }

    pub fn backward(&mut self, dy: &Matrix) {
        let tokens = self
            .cached_tokens
            .take()
            .expect("Embedding backward before forward");
        let tok_grad = self.tok.grad_mut();
        let pos_grad = self.pos.grad_mut();
        for (i, &t) in tokens.iter().enumerate() {
            let p = i % self.seq_len;
            let dr = dy.row(i);
            for (g, d) in tok_grad.row_mut(t).iter_mut().zip(dr) {
                *g += d;
            }
            for (g, d) in pos_grad.row_mut(p).iter_mut().zip(dr) {
                *g += d;
            }
        }
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.tok, &mut self.pos]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loss_and_grad_x(f: &mut dyn FnMut(&Matrix) -> Matrix, x: &Matrix) -> f32 {
        // Simple scalar loss: sum of outputs.
        f(x).as_slice().iter().sum()
    }

    #[test]
    fn linear_forward_shapes_and_bias() {
        let mut l = Linear::new(3, 5, 1);
        l.b.value.as_mut_slice()[2] = 7.0;
        let x = Matrix::zeros(2, 3);
        let y = l.forward(&x);
        assert_eq!(y.shape(), (2, 5));
        assert_eq!(y[(0, 2)], 7.0);
        assert_eq!(y[(1, 2)], 7.0);
    }

    #[test]
    fn linear_backward_matches_finite_difference() {
        let mut l = Linear::new(4, 3, 2);
        let x = Matrix::random(5, 4, 1.0, 3);
        // Loss = sum(y); dL/dy = ones.
        let y = l.forward(&x);
        let dy = Matrix::full(y.rows(), y.cols(), 1.0);
        let dx = l.backward(&dy);

        // Check dL/dW[0][0] by finite differences.
        let h = 1e-3;
        let mut lp = Linear::new(4, 3, 2);
        lp.w.value[(0, 0)] += h;
        let mut lm = Linear::new(4, 3, 2);
        lm.w.value[(0, 0)] -= h;
        let fp = loss_and_grad_x(&mut |x| lp.forward(x), &x);
        let fm = loss_and_grad_x(&mut |x| lm.forward(x), &x);
        let fd = (fp - fm) / (2.0 * h);
        assert!(
            (l.w.grad[(0, 0)] - fd).abs() < 1e-2,
            "{} vs {fd}",
            l.w.grad[(0, 0)]
        );

        // Check dL/dx[1][2].
        let mut xp = x.clone();
        xp[(1, 2)] += h;
        let mut xm = x.clone();
        xm[(1, 2)] -= h;
        let mut l2 = Linear::new(4, 3, 2);
        let fp = loss_and_grad_x(&mut |x| l2.forward(x), &xp);
        let mut l3 = Linear::new(4, 3, 2);
        let fm = loss_and_grad_x(&mut |x| l3.forward(x), &xm);
        let fd = (fp - fm) / (2.0 * h);
        assert!((dx[(1, 2)] - fd).abs() < 1e-2, "{} vs {fd}", dx[(1, 2)]);

        // Bias gradient = column sums of dy = number of rows.
        assert!(l.b.grad.as_slice().iter().all(|&g| (g - 5.0).abs() < 1e-5));
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(8);
        let x = Matrix::random(4, 8, 3.0, 5);
        let y = ln.forward(&x);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_backward_matches_finite_difference() {
        let dim = 6;
        let x = Matrix::random(3, dim, 1.0, 7);
        // Loss: weighted sum to make gradients non-uniform.
        let wts: Vec<f32> = (0..3 * dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let loss = |m: &Matrix| -> f32 { m.as_slice().iter().zip(&wts).map(|(a, b)| a * b).sum() };
        let mut ln = LayerNorm::new(dim);
        let y = ln.forward(&x);
        let dy = Matrix::from_vec(3, dim, wts.clone());
        let dx = ln.backward(&dy);
        let _ = y;
        for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 5)] {
            let h = 1e-2;
            let mut xp = x.clone();
            xp[(r, c)] += h;
            let mut xm = x.clone();
            xm[(r, c)] -= h;
            let mut l1 = LayerNorm::new(dim);
            let mut l2 = LayerNorm::new(dim);
            let fd = (loss(&l1.forward(&xp)) - loss(&l2.forward(&xm))) / (2.0 * h);
            assert!(
                (dx[(r, c)] - fd).abs() < 2e-2,
                "({r},{c}): analytic {} vs fd {fd}",
                dx[(r, c)]
            );
        }
    }

    #[test]
    fn embedding_lookup_and_grad_accumulation() {
        let mut e = Embedding::new(10, 4, 3, 9);
        let tokens = vec![1usize, 2, 1, 3, 0, 1, 2, 3];
        let y = e.forward(&tokens);
        assert_eq!(y.shape(), (8, 3));
        // Row 0 and row 2 differ only by position embedding.
        let d0: Vec<f32> = y.row(0).to_vec();
        let d2: Vec<f32> = y.row(2).to_vec();
        let p0 = e.pos.value.row(0).to_vec();
        let p2 = e.pos.value.row(2).to_vec();
        for c in 0..3 {
            assert!(((d0[c] - p0[c]) - (d2[c] - p2[c])).abs() < 1e-6);
        }
        // Backward: token 1 appears 3 times; its grad = 3×dy-row.
        let dy = Matrix::full(8, 3, 1.0);
        e.backward(&dy);
        assert!(e.tok.grad.row(1).iter().all(|&g| (g - 3.0).abs() < 1e-6));
        assert!(e.tok.grad.row(0).iter().all(|&g| (g - 1.0).abs() < 1e-6));
        // Each position appears twice (B=2).
        assert!(e.pos.grad.row(0).iter().all(|&g| (g - 2.0).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "ragged token batch")]
    fn embedding_rejects_ragged_batches() {
        let mut e = Embedding::new(10, 4, 3, 9);
        let _ = e.forward(&[1, 2, 3, 0, 1]); // 5 tokens: neither one window nor a batch
    }

    #[test]
    fn embedding_accepts_single_short_sequence() {
        let mut e = Embedding::new(10, 4, 3, 9);
        assert_eq!(e.forward(&[1, 2, 3]).shape(), (3, 3));
    }
}
