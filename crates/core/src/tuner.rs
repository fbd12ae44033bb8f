//! Automated BLAS kernel tuning (Section V-C).
//!
//! The weight-gradient product `Iᵀ·dO` defaults to the blocked TN
//! kernel, which reads `I` in place and runs at about NN speed. Paper
//! §V-C tuned around a TN kernel that did not (6 % vs 55 % of peak on
//! Frontier); here the live alternatives to the default are the naive
//! stride-`m` column walk and the paper's explicit transpose + NN
//! reroute. During the first batch the tuner times every strategy for
//! each layer's product with real wall-clock measurements — exactly the
//! paper's procedure — and locks in the fastest for the remaining
//! iterations.

use axonn_tensor::{gemm, gemm_tn_naive, MatMode, Matrix};
use std::collections::HashMap;
use std::time::Instant;

/// How to compute `Iᵀ·dO` for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DwStrategy {
    /// Call the blocked TN kernel, which reads `I` in place through its
    /// strides and packs only `dO`'s panels.
    PackedTn,
    /// Call the naive TN kernel: the unblocked stride-`m` column walk —
    /// the "bad kernel" the paper's tuner learned to avoid.
    NaiveTn,
    /// Explicitly transpose `I` into a fresh matrix, then call the NN
    /// kernel — the rewrite that gave the paper its ~8× matmul speedup
    /// on GPT-320B.
    TransposeNn,
}

impl DwStrategy {
    /// The trace-facing mode label for the dW GEMM under this strategy.
    pub fn mode_label(self) -> &'static str {
        match self {
            DwStrategy::PackedTn => "TN",
            DwStrategy::NaiveTn => "TN(naive)",
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
    /// Measured wall time of the blocked (packed) TN kernel (seconds).
    pub direct_seconds: f64,
    /// Measured wall time of the naive column-strided TN kernel.
    pub naive_seconds: f64,
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

    /// Compute `Iᵀ·dO`. Untuned mode always calls the blocked TN kernel
    /// (the framework default). With tuning enabled, the first call for
    /// each layer times all three strategies and records the winner.
    pub fn dw_gemm(&mut self, layer_id: usize, i_local: &Matrix, d_o: &Matrix) -> Matrix {
        if !self.enabled {
            return gemm(MatMode::TN, i_local, d_o);
        }
        match self.choices.get(&layer_id) {
            Some(DwStrategy::PackedTn) => gemm(MatMode::TN, i_local, d_o),
            Some(DwStrategy::NaiveTn) => gemm_tn_naive(i_local, d_o),
            Some(DwStrategy::TransposeNn) => {
                let it = i_local.transposed();
                gemm(MatMode::NN, &it, d_o)
            }
            None => {
                let t0 = Instant::now();
                let packed = gemm(MatMode::TN, i_local, d_o);
                let t_packed = t0.elapsed();

                let t1 = Instant::now();
                let naive = gemm_tn_naive(i_local, d_o);
                let t_naive = t1.elapsed();

                let t2 = Instant::now();
                let it = i_local.transposed();
                let rerouted = gemm(MatMode::NN, &it, d_o);
                let t_reroute = t2.elapsed();

                // All three tiers are bitwise identical to the reference
                // oracle, so the candidates must agree exactly.
                debug_assert!(
                    packed == naive && packed == rerouted,
                    "tuning strategies disagree numerically"
                );
                let mut strategy = DwStrategy::PackedTn;
                let mut best = t_packed;
                if t_naive < best {
                    strategy = DwStrategy::NaiveTn;
                    best = t_naive;
                }
                if t_reroute < best {
                    strategy = DwStrategy::TransposeNn;
                }
                self.choices.insert(layer_id, strategy);
                self.last_outcome = Some(TuningOutcome {
                    layer_id,
                    strategy,
                    direct_seconds: t_packed.as_secs_f64(),
                    naive_seconds: t_naive.as_secs_f64(),
                    reroute_seconds: t_reroute.as_secs_f64(),
                });
                // All candidates are bitwise equal; return any.
                match strategy {
                    DwStrategy::PackedTn => packed,
                    DwStrategy::NaiveTn => naive,
                    DwStrategy::TransposeNn => rerouted,
                }
            }
        }
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

    #[test]
    fn disabled_tuner_uses_tn_and_records_nothing() {
        let mut t = KernelTuner::new(false);
        let i = Matrix::random(32, 16, 1.0, 1);
        let d = Matrix::random(32, 24, 1.0, 2);
        let out = t.dw_gemm(0, &i, &d);
        assert!(out.approx_eq(&gemm_reference(MatMode::TN, &i, &d), 1e-4));
        assert_eq!(t.tuned_layers(), 0);
        assert_eq!(t.choice(0), None);
    }

    #[test]
    fn tuning_records_a_choice_and_stays_correct() {
        let mut t = KernelTuner::new(true);
        let i = Matrix::random(64, 48, 1.0, 3);
        let d = Matrix::random(64, 56, 1.0, 4);
        let first = t.dw_gemm(7, &i, &d);
        assert_eq!(t.tuned_layers(), 1);
        assert!(t.choice(7).is_some());
        let outcome = t.take_last_outcome().expect("decision just made");
        assert_eq!(outcome.layer_id, 7);
        assert_eq!(outcome.strategy, t.choice(7).unwrap());
        assert!(outcome.direct_seconds >= 0.0 && outcome.reroute_seconds >= 0.0);
        assert!(outcome.naive_seconds >= 0.0);
        let second = t.dw_gemm(7, &i, &d);
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
    fn large_contracted_dim_avoids_the_naive_walk() {
        // The naive TN kernel walks A with stride m; for a big product
        // either the packed TN kernel or the NN reroute must beat it, as
        // the paper's tuner found on Frontier.
        let mut t = KernelTuner::new(true);
        let i = Matrix::random(768, 512, 1.0, 5);
        let d = Matrix::random(768, 512, 1.0, 6);
        let _ = t.dw_gemm(0, &i, &d);
        assert_ne!(
            t.choice(0),
            Some(DwStrategy::NaiveTn),
            "expected a blocked strategy to beat the naive TN walk"
        );
        let outcome = t.take_last_outcome().expect("decision just made");
        assert!(
            outcome.naive_seconds > outcome.direct_seconds.min(outcome.reroute_seconds),
            "naive walk should be the slowest tier at this size"
        );
    }

    #[test]
    fn strategy_labels_are_stable() {
        assert_eq!(DwStrategy::PackedTn.mode_label(), "TN");
        assert_eq!(DwStrategy::NaiveTn.mode_label(), "TN(naive)");
        assert_eq!(DwStrategy::TransposeNn.mode_label(), "TN->NN");
    }

    #[test]
    fn distinct_layers_tuned_independently() {
        let mut t = KernelTuner::new(true);
        let i = Matrix::random(32, 16, 1.0, 7);
        let d = Matrix::random(32, 8, 1.0, 8);
        let _ = t.dw_gemm(0, &i, &d);
        let _ = t.dw_gemm(1, &i, &d);
        assert_eq!(t.tuned_layers(), 2);
    }
}
