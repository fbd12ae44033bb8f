//! AdamW, the optimizer used for all LM training runs.

use crate::modules::Param;
use axonn_tensor::Matrix;

/// Decoupled-weight-decay Adam (Loshchilov & Hutter).
#[derive(Debug, Clone, Copy)]
pub struct AdamW {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    /// Step counter (for bias correction).
    pub t: u32,
}

impl AdamW {
    pub fn new(lr: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay: 0.01,
            t: 0,
        }
    }

    /// Advance the step counter (call once per batch, before updating
    /// parameters).
    pub fn next_step(&mut self) {
        self.t += 1;
    }

    /// Apply one AdamW update to a parameter and clear its gradient.
    pub fn update(&self, p: &mut Param) {
        assert!(self.t > 0, "call next_step before update");
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let n = p.value.len();
        if p.m.len() != n {
            // First update of this parameter: moments start at zero.
            let (r, c) = p.value.shape();
            p.m = Matrix::zeros(r, c);
            p.v = Matrix::zeros(r, c);
        }
        // A parameter no backward pass reached updates with a zero
        // gradient (moment decay and weight decay still apply).
        p.grad_mut();
        let value = p.value.as_mut_slice();
        let grad = p.grad.as_mut_slice();
        let m = p.m.as_mut_slice();
        let v = p.v.as_mut_slice();
        for i in 0..n {
            m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * grad[i];
            v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            value[i] -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * value[i]);
            grad[i] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        // f(w) = 0.5 (w - 3)^2, grad = w - 3.
        let mut p = Param::new(Matrix::full(1, 1, 0.0));
        let mut opt = AdamW::new(0.1);
        opt.weight_decay = 0.0;
        for _ in 0..300 {
            p.grad_mut().as_mut_slice()[0] = p.value.as_slice()[0] - 3.0;
            opt.next_step();
            opt.update(&mut p);
        }
        let w = p.value.as_slice()[0];
        assert!((w - 3.0).abs() < 0.05, "converged to {w}");
    }

    #[test]
    fn update_clears_gradient() {
        let mut p = Param::new(Matrix::full(2, 2, 1.0));
        p.grad = Matrix::full(2, 2, 0.5);
        let mut opt = AdamW::new(0.01);
        opt.next_step();
        opt.update(&mut p);
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut p = Param::new(Matrix::full(1, 1, 10.0));
        let mut opt = AdamW::new(0.1);
        opt.weight_decay = 0.1;
        for _ in 0..50 {
            // Zero task gradient: only decay acts.
            opt.next_step();
            opt.update(&mut p);
        }
        assert!(p.value.as_slice()[0] < 10.0 * 0.7);
    }

    #[test]
    #[should_panic(expected = "call next_step")]
    fn update_requires_step() {
        let mut p = Param::new(Matrix::full(1, 1, 0.0));
        AdamW::new(0.1).update(&mut p);
    }
}
