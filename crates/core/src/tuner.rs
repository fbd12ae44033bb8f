//! Automated BLAS kernel tuning (Section V-C).
//!
//! The weight-gradient product `Iᵀ·dO` defaults to the blocked TN
//! kernel, which reads `I` in place and runs at about NN speed. Paper
//! §V-C tuned around a TN kernel that did not (6 % vs 55 % of peak on
//! Frontier) by rerouting through an explicit transpose + NN. Those are
//! the two strategies here. On this host TN in place wins most dW
//! shapes, by up to a quarter, and the reroute a few, by a few percent
//! (EXPERIMENTS.md, §V-C). During the first batch the tuner times both for each layer's
//! product with real wall-clock measurements — exactly the paper's
//! procedure — and locks in the faster for the remaining iterations.

use axonn_tensor::{gemm, gemm_acc_into, MatMode, Matrix};
use std::collections::HashMap;
use std::time::Instant;

/// How to compute `Iᵀ·dO` for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DwStrategy {
    /// Call the blocked TN kernel, which reads `I` in place through its
    /// strides, packs only `dO`'s panels and accumulates into `C`.
    InPlaceTn,
    /// Explicitly transpose `I` into a fresh matrix, then call the NN
    /// kernel — the rewrite that gave the paper its ~8× matmul speedup
    /// on GPT-320B.
    TransposeNn,
}

impl DwStrategy {
    /// The trace-facing mode label for the dW GEMM under this strategy.
    pub fn mode_label(self) -> &'static str {
        match self {
            DwStrategy::InPlaceTn => "TN",
            DwStrategy::TransposeNn => "TN->NN",
        }
    }
}

/// One tuning measurement: what was timed and what won. Drained by the
/// instrumentation right after the call that locked the choice in, so
/// the decision lands in the trace at the point it was made.
#[derive(Debug, Clone, Copy)]
pub struct TuningOutcome {
    pub layer_id: usize,
    pub strategy: DwStrategy,
    /// Measured wall time of the blocked, in-place TN kernel (seconds).
    pub direct_seconds: f64,
    /// Measured wall time of the transpose + NN reroute (seconds).
    pub reroute_seconds: f64,
}

/// Per-layer kernel choices, learned on the first batch.
#[derive(Debug)]
pub struct KernelTuner {
    enabled: bool,
    choices: HashMap<usize, DwStrategy>,
    last_outcome: Option<TuningOutcome>,
}

impl KernelTuner {
    pub fn new(enabled: bool) -> Self {
        KernelTuner {
            enabled,
            choices: HashMap::new(),
            last_outcome: None,
        }
    }

    /// The measurement recorded by the most recent tuning decision, if
    /// one was made since the last call. Consuming it keeps one trace
    /// event per decision.
    pub fn take_last_outcome(&mut self) -> Option<TuningOutcome> {
        self.last_outcome.take()
    }

    /// The strategy locked in for `layer_id`, if tuned already.
    pub fn choice(&self, layer_id: usize) -> Option<DwStrategy> {
        self.choices.get(&layer_id).copied()
    }

    /// Add `Iᵀ·dO` into `c` (`C += Iᵀ·dO`; on a zero `c` the product
    /// itself). Untuned mode always calls the blocked TN kernel (the
    /// framework default), which accumulates in place. With tuning
    /// enabled, the first call for each layer times both strategies and
    /// records the winner; the reroute produces the product first and
    /// adds it.
    pub fn dw_gemm_into(
        &mut self,
        layer_id: usize,
        i_local: &Matrix,
        d_o: &Matrix,
        c: &mut Matrix,
    ) {
        let strategy = match (self.enabled, self.choices.get(&layer_id)) {
            (false, _) => DwStrategy::InPlaceTn,
            (true, Some(&s)) => s,
            (true, None) => {
                c.add_assign(&self.tune(layer_id, i_local, d_o));
                return;
            }
        };
        match strategy {
            DwStrategy::InPlaceTn => {
                gemm_acc_into(MatMode::TN, i_local, d_o, c);
            }
            DwStrategy::TransposeNn => {
                c.add_assign(&gemm(MatMode::NN, &i_local.transposed(), d_o));
            }
        }
    }

    /// Time both strategies on `layer_id`'s product, lock in the faster
    /// and return the product (the candidates are bitwise equal).
    fn tune(&mut self, layer_id: usize, i_local: &Matrix, d_o: &Matrix) -> Matrix {
        let t0 = Instant::now();
        let in_place = gemm(MatMode::TN, i_local, d_o);
        let t_in_place = t0.elapsed();

        let t1 = Instant::now();
        let it = i_local.transposed();
        let rerouted = gemm(MatMode::NN, &it, d_o);
        let t_reroute = t1.elapsed();

        // Both are bitwise identical to the reference oracle, so the
        // candidates must agree exactly.
        debug_assert!(
            in_place == rerouted,
            "tuning strategies disagree numerically"
        );
        let strategy = if t_reroute < t_in_place {
            DwStrategy::TransposeNn
        } else {
            DwStrategy::InPlaceTn
        };
        self.choices.insert(layer_id, strategy);
        self.last_outcome = Some(TuningOutcome {
            layer_id,
            strategy,
            direct_seconds: t_in_place.as_secs_f64(),
            reroute_seconds: t_reroute.as_secs_f64(),
        });
        in_place
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn tuned_layers(&self) -> usize {
        self.choices.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_tensor::gemm_reference;

    /// `Iᵀ·dO` through the tuner, accumulated into a zero matrix.
    fn dw(t: &mut KernelTuner, layer_id: usize, i: &Matrix, d: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(i.cols(), d.cols());
        t.dw_gemm_into(layer_id, i, d, &mut c);
        c
    }

    #[test]
    fn disabled_tuner_uses_tn_and_records_nothing() {
        let mut t = KernelTuner::new(false);
        let i = Matrix::random(32, 16, 1.0, 1);
        let d = Matrix::random(32, 24, 1.0, 2);
        let out = dw(&mut t, 0, &i, &d);
        assert!(out.approx_eq(&gemm_reference(MatMode::TN, &i, &d), 1e-4));
        assert_eq!(t.tuned_layers(), 0);
        assert_eq!(t.choice(0), None);
    }

    #[test]
    fn tuning_records_a_choice_and_stays_correct() {
        let mut t = KernelTuner::new(true);
        let i = Matrix::random(64, 48, 1.0, 3);
        let d = Matrix::random(64, 56, 1.0, 4);
        let first = dw(&mut t, 7, &i, &d);
        assert_eq!(t.tuned_layers(), 1);
        assert!(t.choice(7).is_some());
        let outcome = t.take_last_outcome().expect("decision just made");
        assert_eq!(outcome.layer_id, 7);
        assert_eq!(outcome.strategy, t.choice(7).unwrap());
        assert!(outcome.direct_seconds >= 0.0 && outcome.reroute_seconds >= 0.0);
        let second = dw(&mut t, 7, &i, &d);
        assert!(
            t.take_last_outcome().is_none(),
            "tuned call decides nothing"
        );
        // Every strategy is bitwise identical to the reference, so the
        // tuned call reproduces the first result exactly.
        assert_eq!(first, second);
        assert_eq!(first, gemm_reference(MatMode::TN, &i, &d));
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(DwStrategy::InPlaceTn.mode_label(), "TN");
        assert_eq!(DwStrategy::TransposeNn.mode_label(), "TN->NN");
    }

    #[test]
    fn distinct_layers_tuned_independently() {
        let mut t = KernelTuner::new(true);
        let i = Matrix::random(32, 16, 1.0, 7);
        let d = Matrix::random(32, 8, 1.0, 8);
        let _ = dw(&mut t, 0, &i, &d);
        let _ = dw(&mut t, 1, &i, &d);
        assert_eq!(t.tuned_layers(), 2);
    }
}
