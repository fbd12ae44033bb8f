//! Llama-family architecture components: RMSNorm, SwiGLU MLP, and rotary
//! position embeddings (RoPE).
//!
//! The paper's memorization study runs on TinyLlama-1B, Llama-2 7B/13B/70B
//! and Llama-3.1 8B/70B/405B, whose blocks differ from GPT-2's: RMSNorm
//! instead of LayerNorm, SwiGLU instead of GELU MLPs, and rotary
//! embeddings instead of learned absolute positions. This module provides
//! those pieces (each with a hand-written backward pass, verified against
//! finite differences) plus [`LlamaBlock`] combining them, so the
//! memorization ladder can be run on architecture-faithful proxies.

use crate::attention::CausalSelfAttention;
use crate::modules::{Linear, Param};
use axonn_tensor::Matrix;

/// Root-mean-square normalization (no mean subtraction, no bias):
/// `y = x / rms(x) * gain`.
pub struct RmsNorm {
    pub gain: Param,
    eps: f32,
    cached: Option<(Matrix, Vec<f32>)>, // x, inv_rms per row
}

impl RmsNorm {
    pub fn new(dim: usize) -> Self {
        RmsNorm {
            gain: Param::new(Matrix::full(1, dim, 1.0)),
            eps: 1e-5,
            cached: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let (rows, d) = x.shape();
        let mut out = Matrix::zeros(rows, d);
        let mut inv_rms = Vec::with_capacity(rows);
        let gains = self.gain.value.as_slice();
        for r in 0..rows {
            let row = x.row(r);
            let ms = row.iter().map(|v| v * v).sum::<f32>() / d as f32;
            let ir = 1.0 / (ms + self.eps).sqrt();
            let orow = out.row_mut(r);
            for c in 0..d {
                orow[c] = row[c] * ir * gains[c];
            }
            inv_rms.push(ir);
        }
        self.cached = Some((x.clone(), inv_rms));
        out
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (x, inv_rms) = self.cached.take().expect("RmsNorm backward before forward");
        let (rows, d) = x.shape();
        let gains = self.gain.value.as_slice().to_vec();
        let mut dx = Matrix::zeros(rows, d);
        let gain_grad = self.gain.grad_mut().as_mut_slice();
        for (r, &ir) in inv_rms.iter().enumerate().take(rows) {
            let xr = x.row(r);
            let dyr = dy.row(r);
            // dL/dgain_c += dy_c * x_c * ir  (per row).
            for c in 0..d {
                gain_grad[c] += dyr[c] * xr[c] * ir;
            }
            // y_c = g_c * x_c * ir with ir = (mean(x²)+eps)^(-1/2):
            // dx_c = ir * g_c dy_c − ir³/d · x_c · Σ_j g_j dy_j x_j
            let dot: f32 = (0..d).map(|j| gains[j] * dyr[j] * xr[j]).sum();
            let dr = dx.row_mut(r);
            for c in 0..d {
                dr[c] = ir * gains[c] * dyr[c] - ir * ir * ir / d as f32 * xr[c] * dot;
            }
        }
        dx
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gain]
    }
}

/// The SwiGLU MLP of Llama: `down( silu(gate(x)) ⊙ up(x) )`, with the
/// conventional `8d/3`-ish hidden width rounded to a multiple of 8.
pub struct SwiGluMlp {
    pub gate: Linear,
    pub up: Linear,
    pub down: Linear,
    cached: Option<(Matrix, Matrix)>, // gate pre-activation, up output
}

fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

fn silu_grad(x: f32) -> f32 {
    let s = 1.0 / (1.0 + (-x).exp());
    s * (1.0 + x * (1.0 - s))
}

/// Llama's hidden width: 2/3 · 4d, rounded up to a multiple of 8.
pub fn swiglu_hidden(dim: usize) -> usize {
    let h = 8 * dim / 3;
    h.div_ceil(8) * 8
}

impl SwiGluMlp {
    pub fn new(dim: usize, seed: u64) -> Self {
        let hidden = swiglu_hidden(dim);
        SwiGluMlp {
            gate: Linear::new(dim, hidden, seed),
            up: Linear::new(dim, hidden, seed.wrapping_add(1)),
            down: Linear::new(hidden, dim, seed.wrapping_add(2)),
            cached: None,
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let g = self.gate.forward(x);
        let u = self.up.forward(x);
        let mut h = g.clone();
        for (hv, uv) in h.as_mut_slice().iter_mut().zip(u.as_slice()) {
            *hv = silu(*hv) * uv;
        }
        self.cached = Some((g, u));
        self.down.forward(&h)
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let dh = self.down.backward(dy);
        let (g, u) = self.cached.take().expect("SwiGLU backward before forward");
        // h = silu(g) ⊙ u.
        let mut dg = dh.clone();
        let mut du = dh;
        for i in 0..dg.len() {
            let gv = g.as_slice()[i];
            let uv = u.as_slice()[i];
            let d = dg.as_slice()[i];
            dg.as_mut_slice()[i] = d * uv * silu_grad(gv);
            du.as_mut_slice()[i] = d * silu(gv);
        }
        let mut dx = self.gate.backward(&dg);
        dx.add_assign(&self.up.backward(&du));
        dx
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.gate.params_mut();
        p.extend(self.up.params_mut());
        p.extend(self.down.params_mut());
        p
    }
}

/// Rotary position embeddings: rotate pairs of feature dimensions by a
/// position-dependent angle. Applied to an activation matrix laid out as
/// `(B·T) × d` with window length `seq_len`; its exact inverse-rotation
/// backward makes it trivially gradient-correct.
pub struct Rope {
    pub seq_len: usize,
    /// Rotation angles per (position, pair).
    cos_sin: Vec<(f32, f32)>,
    dim: usize,
}

impl Rope {
    pub fn new(dim: usize, seq_len: usize) -> Self {
        assert_eq!(dim % 2, 0, "RoPE needs an even dimension");
        let half = dim / 2;
        let mut cos_sin = Vec::with_capacity(seq_len * half);
        for pos in 0..seq_len {
            for i in 0..half {
                let theta = pos as f32 / 10000f32.powf(2.0 * i as f32 / dim as f32);
                cos_sin.push((theta.cos(), theta.sin()));
            }
        }
        Rope {
            seq_len,
            cos_sin,
            dim,
        }
    }

    fn rotate(&self, x: &Matrix, sign: f32) -> Matrix {
        let (rows, d) = x.shape();
        assert_eq!(d, self.dim, "RoPE dimension mismatch");
        let half = d / 2;
        let mut out = Matrix::zeros(rows, d);
        for r in 0..rows {
            let pos = r % self.seq_len;
            let xr = x.row(r);
            let or = out.row_mut(r);
            for i in 0..half {
                let (c, s) = self.cos_sin[pos * half + i];
                let s = s * sign;
                let (a, b) = (xr[2 * i], xr[2 * i + 1]);
                or[2 * i] = a * c - b * s;
                or[2 * i + 1] = a * s + b * c;
            }
        }
        out
    }

    /// Apply the rotation.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.rotate(x, 1.0)
    }

    /// Backward = the inverse rotation (rotations are orthogonal).
    pub fn backward(&self, dy: &Matrix) -> Matrix {
        self.rotate(dy, -1.0)
    }
}

/// A Llama-style block: RMSNorm → attention (with learned positions
/// handled by the embedding in `Gpt`; here RoPE is exposed for standalone
/// use) → residual, RMSNorm → SwiGLU → residual.
pub struct LlamaBlock {
    norm1: RmsNorm,
    attn: CausalSelfAttention,
    norm2: RmsNorm,
    mlp: SwiGluMlp,
}

impl LlamaBlock {
    pub fn new(dim: usize, n_heads: usize, seq_len: usize, seed: u64) -> Self {
        LlamaBlock {
            norm1: RmsNorm::new(dim),
            attn: CausalSelfAttention::new(dim, n_heads, seq_len, seed),
            norm2: RmsNorm::new(dim),
            mlp: SwiGluMlp::new(dim, seed.wrapping_add(50)),
        }
    }

    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let n = self.norm1.forward(x);
        let mut h = self.attn.forward(&n);
        h.add_assign(x);
        let n2 = self.norm2.forward(&h);
        let mut out = self.mlp.forward(&n2);
        out.add_assign(&h);
        out
    }

    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let d_mlp_in = self.mlp.backward(dy);
        let mut dh = self.norm2.backward(&d_mlp_in);
        dh.add_assign(dy);
        let d_attn_in = self.attn.backward(&dh);
        let mut dx = self.norm1.backward(&d_attn_in);
        dx.add_assign(&dh);
        dx
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.norm1.params_mut();
        p.extend(self.attn.params_mut());
        p.extend(self.norm2.params_mut());
        p.extend(self.mlp.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmsnorm_unit_rms_rows() {
        let mut n = RmsNorm::new(8);
        let x = Matrix::random(4, 8, 2.0, 1);
        let y = n.forward(&x);
        for r in 0..4 {
            let rms = (y.row(r).iter().map(|v| v * v).sum::<f32>() / 8.0).sqrt();
            assert!((rms - 1.0).abs() < 1e-3, "row {r} rms {rms}");
        }
    }

    #[test]
    fn rmsnorm_backward_matches_finite_difference() {
        let dim = 6;
        let x = Matrix::random(3, dim, 1.0, 2);
        let wts: Vec<f32> = (0..3 * dim)
            .map(|i| ((i * 13 % 7) as f32 - 3.0) / 3.0)
            .collect();
        let loss = |m: &Matrix| -> f32 { m.as_slice().iter().zip(&wts).map(|(a, b)| a * b).sum() };
        let mut n = RmsNorm::new(dim);
        let _ = n.forward(&x);
        let dy = Matrix::from_vec(3, dim, wts.clone());
        let dx = n.backward(&dy);
        for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 5)] {
            let h = 1e-2;
            let mut xp = x.clone();
            xp[(r, c)] += h;
            let mut xm = x.clone();
            xm[(r, c)] -= h;
            let mut n1 = RmsNorm::new(dim);
            let mut n2 = RmsNorm::new(dim);
            let fd = (loss(&n1.forward(&xp)) - loss(&n2.forward(&xm))) / (2.0 * h);
            assert!(
                (dx[(r, c)] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "({r},{c}): {} vs {fd}",
                dx[(r, c)]
            );
        }
    }

    #[test]
    fn swiglu_hidden_width_rule() {
        assert_eq!(swiglu_hidden(12), 32);
        assert_eq!(swiglu_hidden(48), 128);
        // Always a multiple of 8 and close to 8d/3.
        for d in [16usize, 64, 128, 256] {
            let h = swiglu_hidden(d);
            assert_eq!(h % 8, 0);
            assert!((h as f64) >= 8.0 * d as f64 / 3.0);
            assert!((h as f64) < 8.0 * d as f64 / 3.0 + 8.0);
        }
    }

    #[test]
    fn swiglu_backward_matches_finite_difference() {
        let dim = 6;
        let x = Matrix::random(3, dim, 0.8, 3);
        let wts: Vec<f32> = (0..3 * dim)
            .map(|i| ((i * 19 % 11) as f32 - 5.0) / 5.0)
            .collect();
        let loss = |m: &Matrix| -> f32 { m.as_slice().iter().zip(&wts).map(|(a, b)| a * b).sum() };
        let mut mlp = SwiGluMlp::new(dim, 9);
        let _ = mlp.forward(&x);
        let dy = Matrix::from_vec(3, dim, wts.clone());
        let dx = mlp.backward(&dy);
        for &(r, c) in &[(0usize, 1usize), (1, 4), (2, 0)] {
            let h = 1e-2;
            let mut xp = x.clone();
            xp[(r, c)] += h;
            let mut xm = x.clone();
            xm[(r, c)] -= h;
            let mut m1 = SwiGluMlp::new(dim, 9);
            let mut m2 = SwiGluMlp::new(dim, 9);
            let fd = (loss(&m1.forward(&xp)) - loss(&m2.forward(&xm))) / (2.0 * h);
            assert!(
                (dx[(r, c)] - fd).abs() < 3e-2 * (1.0 + fd.abs()),
                "({r},{c}): {} vs {fd}",
                dx[(r, c)]
            );
        }
    }

    #[test]
    fn rope_is_orthogonal() {
        // Rotation preserves norms and backward inverts forward exactly.
        let rope = Rope::new(8, 4);
        let x = Matrix::random(8, 8, 1.0, 4); // B=2, T=4
        let y = rope.forward(&x);
        for r in 0..8 {
            let nx: f32 = x.row(r).iter().map(|v| v * v).sum();
            let ny: f32 = y.row(r).iter().map(|v| v * v).sum();
            assert!((nx - ny).abs() < 1e-4, "row {r}: {nx} vs {ny}");
        }
        let back = rope.backward(&y);
        assert!(back.approx_eq(&x, 1e-5), "inverse rotation failed");
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let rope = Rope::new(6, 3);
        let x = Matrix::random(3, 6, 1.0, 5);
        let y = rope.forward(&x);
        for c in 0..6 {
            assert!(
                (y[(0, c)] - x[(0, c)]).abs() < 1e-6,
                "pos 0 must be unrotated"
            );
        }
        // Later positions rotate.
        assert!((0..6).any(|c| (y[(2, c)] - x[(2, c)]).abs() > 1e-4));
    }

    #[test]
    fn llama_block_trains() {
        use crate::loss::cross_entropy;
        use crate::optim::AdamW;
        // A single Llama block + linear head can fit a small mapping.
        let dim = 16;
        let t = 4;
        let mut block = LlamaBlock::new(dim, 2, t, 6);
        let mut head = Linear::new(dim, 5, 7);
        let mut opt = AdamW::new(3e-3);
        let x = Matrix::random(t, dim, 0.5, 8);
        let targets = [0usize, 3, 1, 4];
        let mut first = 0.0;
        let mut last = 0.0;
        for step in 0..80 {
            let h = block.forward(&x);
            let logits = head.forward(&h);
            let res = cross_entropy(&logits, &targets, None);
            let dh = head.backward(&res.d_logits);
            let _ = block.backward(&dh);
            opt.next_step();
            let snapshot = opt;
            for p in block.params_mut() {
                snapshot.update(p);
            }
            for p in head.params_mut() {
                snapshot.update(p);
            }
            if step == 0 {
                first = res.loss;
            }
            last = res.loss;
        }
        assert!(
            last < 0.3 * first,
            "Llama block failed to learn: {first} -> {last}"
        );
    }

    #[test]
    fn llama_block_backward_matches_finite_difference() {
        let dim = 8;
        let t = 3;
        let x = Matrix::random(t, dim, 0.5, 10);
        let wts: Vec<f32> = (0..t * dim)
            .map(|i| ((i * 7 % 13) as f32 - 6.0) / 6.0)
            .collect();
        let loss = |m: &Matrix| -> f32 { m.as_slice().iter().zip(&wts).map(|(a, b)| a * b).sum() };
        let mut b = LlamaBlock::new(dim, 2, t, 11);
        let _ = b.forward(&x);
        let dy = Matrix::from_vec(t, dim, wts.clone());
        let dx = b.backward(&dy);
        for &(r, c) in &[(0usize, 0usize), (1, 4), (2, 7)] {
            let h = 5e-3;
            let mut xp = x.clone();
            xp[(r, c)] += h;
            let mut xm = x.clone();
            xm[(r, c)] -= h;
            let mut b1 = LlamaBlock::new(dim, 2, t, 11);
            let mut b2 = LlamaBlock::new(dim, 2, t, 11);
            let fd = (loss(&b1.forward(&xp)) - loss(&b2.forward(&xm))) / (2.0 * h);
            assert!(
                (dx[(r, c)] - fd).abs() < 5e-2 * (1.0 + fd.abs()),
                "({r},{c}): {} vs {fd}",
                dx[(r, c)]
            );
        }
    }
}
