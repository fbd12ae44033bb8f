//! Virtual-time cost models for the correctness plane.
//!
//! Functional runs (threads moving real `f32`s) are far slower than GPUs
//! and their wall-clock times mean nothing for the paper's figures.
//! Instead, each rank carries a virtual clock that these models advance:
//! compute by a flop rate, collectives by the ring α–β formulas the
//! paper's performance model uses (Thakur et al. / Rabenseifner,
//! Section V-B), one formula per algorithm the transport actually ran
//! ([`SchedKind`]).

use crate::sched::SchedKind;

/// Advances virtual time for compute and communication.
pub trait CostModel: Send + Sync {
    /// Seconds charged for `flops` floating-point operations on one rank.
    fn compute_seconds(&self, flops: f64) -> f64;

    /// Seconds charged for one run of the algorithm `kind` over
    /// `group_size` ranks moving `bytes` (the size of the *full* buffer at
    /// each rank for all-reduce/broadcast; the gathered size for
    /// all-gather; the pre-scatter size for reduce-scatter — see
    /// [`SchedKind::charged_bytes`]), whose payload the transport
    /// segmented into `chunks` pipeline chunks.
    fn collective_seconds(
        &self,
        kind: SchedKind,
        group_size: usize,
        bytes: f64,
        chunks: usize,
    ) -> f64;
}

/// Charges nothing: virtual clocks stay at zero. The default for pure
/// correctness tests.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCost;

impl CostModel for NullCost {
    fn compute_seconds(&self, _flops: f64) -> f64 {
        0.0
    }
    fn collective_seconds(&self, _k: SchedKind, _g: usize, _b: f64, _s: usize) -> f64 {
        0.0
    }
}

/// Ring-algorithm costs with a single flop rate and a single link
/// bandwidth — the flat version of the paper's Equations 1–5 (the
/// hierarchical bandwidths of Eq. 7 live in `axonn-cluster`; the
/// functional plane runs at most a node's worth of ranks, where a single
/// bandwidth is the right model).
#[derive(Debug, Clone, Copy)]
pub struct RingCostModel {
    /// Sustained flop/s per rank.
    pub flops_per_second: f64,
    /// Peer-to-peer bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-ring-step latency in seconds (Assumption-3 of the paper sets
    /// this to zero; a nonzero value makes the "observed" plane richer
    /// than the model, as in real systems).
    pub alpha: f64,
}

impl RingCostModel {
    pub fn new(flops_per_second: f64, bandwidth: f64) -> Self {
        RingCostModel {
            flops_per_second,
            bandwidth,
            alpha: 0.0,
        }
    }

    pub fn with_latency(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }
}

impl CostModel for RingCostModel {
    fn compute_seconds(&self, flops: f64) -> f64 {
        flops / self.flops_per_second
    }

    /// `steps · α + volume / β` on the critical path. The ring
    /// all-gather / reduce-scatter / all-reduce are bandwidth-optimal, so
    /// segmentation leaves their volume untouched and only multiplies the
    /// per-step latency (each step sends `chunks` messages, each paying
    /// α). The pipelined chain broadcast genuinely benefits: it drains in
    /// `g + S - 2` slots of `α + n/(S·β)`, approaching `n/β` as S grows.
    /// The log-step algorithms serve the latency-bound regime and send
    /// whole blocks — the transport never segments them, so they are
    /// chunk-blind. With `alpha == 0` (the paper's Assumption-3 and this
    /// model's default) segmentation changes no charge but the chain
    /// broadcast's.
    fn collective_seconds(
        &self,
        kind: SchedKind,
        group_size: usize,
        bytes: f64,
        chunks: usize,
    ) -> f64 {
        if group_size <= 1 {
            return 0.0;
        }
        let g = group_size as f64;
        let s = chunks.max(1) as f64;
        let log_g = g.log2().ceil();
        let (steps, volume) = match kind {
            // Each rank sends its bytes/g shard g-1 times; reduce-scatter
            // moves the same traffic, whichever order it folds in.
            SchedKind::AllGather | SchedKind::ReduceScatter | SchedKind::ReduceScatterLinear => {
                ((g - 1.0) * s, (g - 1.0) / g * bytes)
            }
            // All-reduce = reduce-scatter + all-gather.
            SchedKind::AllReduce | SchedKind::AllReduceLinear => {
                (2.0 * (g - 1.0) * s, 2.0 * (g - 1.0) / g * bytes)
            }
            // Recursive doubling / halving: log2(g) steps moving the ring's
            // (g-1)/g · n bytes (block sizes n/2 + n/4 + …), so switching
            // from the ring changes only the α term.
            SchedKind::AllGatherRd | SchedKind::ReduceScatterRh => (log_g, (g - 1.0) / g * bytes),
            // Halving reduce-scatter + doubling all-gather.
            SchedKind::AllReduceRhd => (2.0 * log_g, 2.0 * (g - 1.0) / g * bytes),
            // Reduce to root then tree broadcast: the critical path
            // crosses 2·log2(g) hops, each carrying the whole buffer.
            SchedKind::AllReduceTree => (2.0 * log_g, 2.0 * log_g * bytes),
            // Tree depth log2(g), whole buffer per hop.
            SchedKind::BroadcastTree => (log_g, log_g * bytes),
            SchedKind::Broadcast => {
                return (g + s - 2.0) * (self.alpha + bytes / (s * self.bandwidth));
            }
            SchedKind::Barrier => return 2.0 * (g - 1.0) * s * self.alpha,
        };
        steps * self.alpha + volume / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_cost_is_free() {
        let c = NullCost;
        assert_eq!(c.compute_seconds(1e12), 0.0);
        assert_eq!(c.collective_seconds(SchedKind::AllReduce, 8, 1e9, 1), 0.0);
    }

    #[test]
    fn ring_allreduce_matches_2_gm1_over_g() {
        // Paper Eqs 3-5: all-reduce time = 2/β · (g-1)/g · n.
        let m = RingCostModel::new(1.0, 100.0);
        let t = m.collective_seconds(SchedKind::AllReduce, 4, 400.0, 1);
        assert!((t - 2.0 * (3.0 / 4.0) * 400.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn ring_allgather_matches_gm1_over_g() {
        // Paper Eq 1 shape: (g-1) · shard / β with shard = n/g.
        let m = RingCostModel::new(1.0, 100.0);
        let t = m.collective_seconds(SchedKind::AllGather, 8, 800.0, 1);
        assert!((t - (7.0 / 8.0) * 800.0 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn solo_group_is_free() {
        let m = RingCostModel::new(1.0, 1.0);
        for kind in [
            SchedKind::AllGather,
            SchedKind::ReduceScatter,
            SchedKind::AllReduce,
            SchedKind::Broadcast,
        ] {
            assert_eq!(m.collective_seconds(kind, 1, 1e6, 4), 0.0);
        }
    }

    #[test]
    fn latency_term_scales_with_steps() {
        let m = RingCostModel::new(1.0, f64::INFINITY).with_latency(1e-6);
        let t = m.collective_seconds(SchedKind::AllReduce, 5, 1000.0, 1);
        assert!((t - 8.0e-6).abs() < 1e-12);
    }

    #[test]
    fn compute_rate() {
        let m = RingCostModel::new(2.0e12, 1.0);
        assert!((m.compute_seconds(4.0e12) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn chunked_equals_unchunked_when_alpha_is_zero() {
        // Assumption-3 (zero per-step latency): segmenting a ring must
        // not perturb its modelled time, whatever the chunk count.
        let m = RingCostModel::new(1e9, 1e9);
        for kind in [
            SchedKind::AllGather,
            SchedKind::ReduceScatter,
            SchedKind::ReduceScatterLinear,
            SchedKind::AllReduce,
            SchedKind::AllReduceLinear,
            SchedKind::Barrier,
        ] {
            for chunks in [1usize, 2, 4, 8] {
                let base = m.collective_seconds(kind, 4, 4e6, 1);
                let chunked = m.collective_seconds(kind, 4, 4e6, chunks);
                assert!(
                    (base - chunked).abs() < 1e-15,
                    "{kind:?} S={chunks}: {base} vs {chunked}"
                );
            }
        }
    }

    #[test]
    fn chunked_latency_term_charges_per_chunk() {
        let m = RingCostModel::new(1.0, f64::INFINITY).with_latency(1e-6);
        // All-reduce on g=5: 2(g-1)·S steps of alpha.
        let t = m.collective_seconds(SchedKind::AllReduce, 5, 1000.0, 3);
        assert!((t - 24.0e-6).abs() < 1e-12);
    }

    #[test]
    fn rhd_matches_ring_volume_with_fewer_steps() {
        // Switching ring → recursive halving/doubling must leave the β
        // (bandwidth) term untouched and shrink only the α term:
        // 2(g-1) steps → 2·log2(g).
        let m = RingCostModel::new(1.0, 100.0);
        let ring = m.collective_seconds(SchedKind::AllReduce, 8, 800.0, 1);
        let rhd = m.collective_seconds(SchedKind::AllReduceRhd, 8, 800.0, 1);
        assert!((ring - rhd).abs() < 1e-12, "alpha=0: {ring} vs {rhd}");
        let lat = RingCostModel::new(1.0, f64::INFINITY).with_latency(1e-6);
        let ring_a = lat.collective_seconds(SchedKind::AllReduce, 8, 800.0, 1);
        let rhd_a = lat.collective_seconds(SchedKind::AllReduceRhd, 8, 800.0, 1);
        assert!((ring_a - 14.0e-6).abs() < 1e-12);
        assert!((rhd_a - 6.0e-6).abs() < 1e-12);
        // Same shape for the phase algorithms.
        let rs = m.collective_seconds(SchedKind::ReduceScatter, 8, 800.0, 1);
        let rh = m.collective_seconds(SchedKind::ReduceScatterRh, 8, 800.0, 1);
        assert!((rs - rh).abs() < 1e-12);
        let ag = m.collective_seconds(SchedKind::AllGather, 8, 800.0, 1);
        let rd = m.collective_seconds(SchedKind::AllGatherRd, 8, 800.0, 1);
        assert!((ag - rd).abs() < 1e-12);
    }

    #[test]
    fn tree_allreduce_trades_bandwidth_for_latency() {
        // α-dominated: tree's 2·log2(g) hops beat the ring's 2(g-1)
        // steps. β-dominated: the ring's (g-1)/g volume wins.
        let lat = RingCostModel::new(1.0, 1e12).with_latency(1e-5);
        let tree = lat.collective_seconds(SchedKind::AllReduceTree, 16, 64.0, 1);
        let ring = lat.collective_seconds(SchedKind::AllReduce, 16, 64.0, 1);
        assert!(tree < ring, "small: tree {tree} vs ring {ring}");
        let bw = RingCostModel::new(1.0, 100.0);
        let tree_b = bw.collective_seconds(SchedKind::AllReduceTree, 16, 1e9, 1);
        let ring_b = bw.collective_seconds(SchedKind::AllReduce, 16, 1e9, 1);
        assert!(ring_b < tree_b, "large: ring {ring_b} vs tree {tree_b}");
    }

    #[test]
    fn log_step_kinds_are_chunk_blind() {
        let m = RingCostModel::new(1.0, 100.0).with_latency(1e-6);
        for kind in [
            SchedKind::AllGatherRd,
            SchedKind::ReduceScatterRh,
            SchedKind::AllReduceRhd,
            SchedKind::AllReduceTree,
            SchedKind::BroadcastTree,
        ] {
            let flat = m.collective_seconds(kind, 8, 4e6, 1);
            let chunked = m.collective_seconds(kind, 8, 4e6, 4);
            assert_eq!(flat, chunked, "{kind:?}");
        }
    }

    #[test]
    fn pipelined_broadcast_approaches_bandwidth_bound() {
        // Bandwidth-bound chain: more chunks → closer to n/β.
        let m = RingCostModel::new(1.0, 100.0);
        let n = 1000.0;
        let g = 8;
        let t1 = m.collective_seconds(SchedKind::Broadcast, g, n, 1);
        let t4 = m.collective_seconds(SchedKind::Broadcast, g, n, 4);
        let t64 = m.collective_seconds(SchedKind::Broadcast, g, n, 64);
        assert!(t4 < t1, "pipelining must help: S=4 {t4} vs S=1 {t1}");
        assert!(t64 < t4);
        let bound = n / 100.0;
        assert!(t64 < 1.2 * bound, "S=64 {t64} should near n/β = {bound}");
        assert!(t64 >= bound, "no model beats the serial bandwidth bound");
    }
}
