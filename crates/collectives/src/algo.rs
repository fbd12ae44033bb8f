//! Message-size-aware collective algorithm selection.
//!
//! The transport keeps the chunk-pipelined pooled **ring** for large
//! payloads (bandwidth-optimal: `(g-1)/g · n` bytes per rank and
//! `2(g-1)` latency terms for all-reduce) and switches to
//! latency-optimal algorithms below per-collective thresholds:
//!
//! * **binomial tree** all-reduce / broadcast — `⌈log2 g⌉` hops, any
//!   group size, best for tiny payloads where the α term dominates;
//! * **recursive halving/doubling** all-reduce and recursive-halving
//!   reduce-scatter / recursive-doubling all-gather — `⌈log2 g⌉` steps
//!   at ring-equal volume, power-of-two groups only, best for small and
//!   medium payloads.
//!
//! Selection is a pure function of `(element count, group size,
//! policy)`, so the execution plane, the dry schedule extractor, the
//! analytic cost curves (`axonn-perfmodel`), and the schedule verifier
//! (`axonn-verify`) all agree on which algorithm ran. It names the
//! algorithm as a [`SchedKind`]; every kind is a step program (the
//! `program` module) that one executor runs for the blocking calls and
//! the asynchronous worker alike, so a selected algorithm is the same
//! sequence of messages on either path.
//! The policy is resolved once per world from [`AlgoPolicy::from_env`]
//! (`AXONN_COLL_ALGO`) unless overridden on the builder, so every rank
//! of a world selects identically.

use crate::sched::SchedKind;

/// Algorithm for an all-reduce of `n` elements over `g` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArAlgo {
    /// Rabenseifner ring reduce-scatter + ring all-gather, chunk
    /// pipelined through the buffer pool. `2(g-1)` α, `2(g-1)/g·n` β.
    Ring,
    /// Recursive halving/doubling in place. `2⌈log2 g⌉` α at the same
    /// `2(g-1)/g·n` β volume as the ring; power-of-two groups only.
    Rhd,
    /// Binomial-tree reduce to rank 0 + binomial-tree broadcast.
    /// `2⌈log2 g⌉` α but `2⌈log2 g⌉·n` β; any group size.
    Tree,
}

/// Algorithm for a reduce-scatter of `n` total elements over `g` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsAlgo {
    /// Ring reduce-scatter: `(g-1)` α, `(g-1)/g·n` β.
    Ring,
    /// Recursive halving: `⌈log2 g⌉` α at ring-equal volume;
    /// power-of-two groups only.
    Rh,
}

/// Algorithm for an all-gather where each rank contributes `n` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgAlgo {
    /// Ring all-gather: `(g-1)` α, `(g-1)·n` β per rank.
    Ring,
    /// Recursive doubling: `⌈log2 g⌉` α at ring-equal volume;
    /// power-of-two groups only.
    Rd,
}

/// Algorithm for a broadcast of `n` elements over `g` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Pipelined chain from the root: `(g-1)` α on the critical path.
    Chain,
    /// Binomial tree: `⌈log2 g⌉` α, any group size.
    Tree,
}

/// Per-collective thresholds (in f32 **elements**) plus optional hard
/// overrides, resolved once per world. Fields are public so tests can
/// build policies that pin a specific algorithm on either side of a
/// threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoPolicy {
    /// All-reduce payloads up to this many elements use the binomial
    /// tree (any group size).
    pub ar_tree_max: usize,
    /// All-reduce payloads up to this many elements use recursive
    /// halving/doubling when the group is a power of two.
    pub ar_rhd_max: usize,
    /// Reduce-scatter inputs up to this many total elements use
    /// recursive halving when the group is a power of two.
    pub rs_rh_max: usize,
    /// All-gathers contributing up to this many elements per rank use
    /// recursive doubling when the group is a power of two.
    pub ag_rd_max: usize,
    /// Broadcast payloads up to this many elements use the binomial
    /// tree (any group size).
    pub bcast_tree_max: usize,
    /// Hard override for all-reduce (falls back to ring when the forced
    /// algorithm is not legal for the group size).
    pub force_ar: Option<ArAlgo>,
    /// Hard override for reduce-scatter.
    pub force_rs: Option<RsAlgo>,
    /// Hard override for all-gather.
    pub force_ag: Option<AgAlgo>,
    /// Hard override for broadcast.
    pub force_bcast: Option<BcastAlgo>,
}

impl Default for AlgoPolicy {
    fn default() -> Self {
        AlgoPolicy {
            // A 1 KiB-ish payload is pure latency; below this the tree's
            // smaller hop count beats everything even at log2(g)·n volume.
            ar_tree_max: 1024,
            // Up to 4M elements (16 MiB) halving/doubling wins on hop
            // count at ring-equal volume; past that the ring's chunk
            // pipelining overlaps segments and takes over.
            ar_rhd_max: 1 << 22,
            rs_rh_max: 1 << 18,
            ag_rd_max: 1 << 18,
            bcast_tree_max: 4096,
            force_ar: None,
            force_rs: None,
            force_ag: None,
            force_bcast: None,
        }
    }
}

impl AlgoPolicy {
    /// Policy that pins every collective to the ring/chain algorithms —
    /// the pre-selection behaviour. Used by bitwise-equivalence suites
    /// that prove the pooled pipelined ring against the naive reference.
    pub fn ring_only() -> Self {
        AlgoPolicy {
            force_ar: Some(ArAlgo::Ring),
            force_rs: Some(RsAlgo::Ring),
            force_ag: Some(AgAlgo::Ring),
            force_bcast: Some(BcastAlgo::Chain),
            ..AlgoPolicy::default()
        }
    }

    /// Read the policy from `AXONN_COLL_ALGO`. Accepts a global force
    /// (`auto` | `ring` | `tree` | `rhd`) or comma-separated
    /// per-collective overrides (`all_reduce=tree,all_gather=ring`,
    /// keys `all_reduce` / `reduce_scatter` / `all_gather` /
    /// `broadcast`). Unknown tokens are ignored so an A/B harness can
    /// never brick a run.
    pub fn from_env() -> Self {
        match std::env::var("AXONN_COLL_ALGO") {
            Ok(spec) => Self::parse(&spec),
            Err(_) => AlgoPolicy::default(),
        }
    }

    /// Pure parser behind [`AlgoPolicy::from_env`] (tests call this
    /// directly; env vars are process-global and racy under the
    /// parallel test harness).
    pub fn parse(spec: &str) -> Self {
        let mut p = AlgoPolicy::default();
        match spec.trim() {
            "" | "auto" => return p,
            "ring" => return AlgoPolicy::ring_only(),
            "tree" => {
                p.force_ar = Some(ArAlgo::Tree);
                p.force_bcast = Some(BcastAlgo::Tree);
                return p;
            }
            "rhd" => {
                p.force_ar = Some(ArAlgo::Rhd);
                p.force_rs = Some(RsAlgo::Rh);
                p.force_ag = Some(AgAlgo::Rd);
                return p;
            }
            _ => {}
        }
        for part in spec.split(',') {
            let Some((key, val)) = part.split_once('=') else {
                continue;
            };
            match (key.trim(), val.trim()) {
                ("all_reduce", "ring") => p.force_ar = Some(ArAlgo::Ring),
                ("all_reduce", "rhd") => p.force_ar = Some(ArAlgo::Rhd),
                ("all_reduce", "tree") => p.force_ar = Some(ArAlgo::Tree),
                ("all_reduce", "auto") => p.force_ar = None,
                ("reduce_scatter", "ring") => p.force_rs = Some(RsAlgo::Ring),
                ("reduce_scatter", "rh") | ("reduce_scatter", "rhd") => {
                    p.force_rs = Some(RsAlgo::Rh)
                }
                ("reduce_scatter", "auto") => p.force_rs = None,
                ("all_gather", "ring") => p.force_ag = Some(AgAlgo::Ring),
                ("all_gather", "rd") | ("all_gather", "rhd") => p.force_ag = Some(AgAlgo::Rd),
                ("all_gather", "auto") => p.force_ag = None,
                ("broadcast", "ring") | ("broadcast", "chain") => {
                    p.force_bcast = Some(BcastAlgo::Chain)
                }
                ("broadcast", "tree") => p.force_bcast = Some(BcastAlgo::Tree),
                ("broadcast", "auto") => p.force_bcast = None,
                _ => {}
            }
        }
        p
    }

    /// The one selection behind every blocking and asynchronous issue:
    /// the algorithm, as the [`SchedKind`] whose step program runs, for
    /// collective `op` (named by its ring or chain kind) over `elems`
    /// contributed elements on `g` ranks. The canonical-order linear
    /// kinds and the barrier pass through: their fixed fold order is the
    /// contract the gradient bucketizer's bit-identity rests on.
    pub fn select(&self, op: SchedKind, elems: usize, g: usize) -> SchedKind {
        match op {
            SchedKind::AllReduce => match self.all_reduce(elems, g) {
                ArAlgo::Ring => SchedKind::AllReduce,
                ArAlgo::Rhd => SchedKind::AllReduceRhd,
                ArAlgo::Tree => SchedKind::AllReduceTree,
            },
            SchedKind::ReduceScatter => match self.reduce_scatter(elems, g) {
                RsAlgo::Ring => SchedKind::ReduceScatter,
                RsAlgo::Rh => SchedKind::ReduceScatterRh,
            },
            SchedKind::AllGather => match self.all_gather(elems, g) {
                AgAlgo::Ring => SchedKind::AllGather,
                AgAlgo::Rd => SchedKind::AllGatherRd,
            },
            SchedKind::Broadcast => match self.broadcast(elems, g) {
                BcastAlgo::Chain => SchedKind::Broadcast,
                BcastAlgo::Tree => SchedKind::BroadcastTree,
            },
            other => other,
        }
    }

    /// Pick the all-reduce algorithm for `elems` elements over `g` ranks.
    pub fn all_reduce(&self, elems: usize, g: usize) -> ArAlgo {
        if let Some(f) = self.force_ar {
            return if f == ArAlgo::Rhd && !g.is_power_of_two() {
                ArAlgo::Ring
            } else {
                f
            };
        }
        if elems <= self.ar_tree_max {
            ArAlgo::Tree
        } else if g.is_power_of_two() && elems <= self.ar_rhd_max {
            ArAlgo::Rhd
        } else {
            ArAlgo::Ring
        }
    }

    /// Pick the reduce-scatter algorithm for `elems` total input
    /// elements over `g` ranks. Divisibility (`elems % g == 0`) is a
    /// hard requirement of *both* algorithms, checked by the transport,
    /// so it is not a selection criterion.
    pub fn reduce_scatter(&self, elems: usize, g: usize) -> RsAlgo {
        if let Some(f) = self.force_rs {
            return if f == RsAlgo::Rh && !g.is_power_of_two() {
                RsAlgo::Ring
            } else {
                f
            };
        }
        if g.is_power_of_two() && elems <= self.rs_rh_max {
            RsAlgo::Rh
        } else {
            RsAlgo::Ring
        }
    }

    /// Pick the all-gather algorithm when each rank contributes
    /// `contributed` elements over `g` ranks.
    pub fn all_gather(&self, contributed: usize, g: usize) -> AgAlgo {
        if let Some(f) = self.force_ag {
            return if f == AgAlgo::Rd && !g.is_power_of_two() {
                AgAlgo::Ring
            } else {
                f
            };
        }
        if g.is_power_of_two() && contributed <= self.ag_rd_max {
            AgAlgo::Rd
        } else {
            AgAlgo::Ring
        }
    }

    /// Pick the broadcast algorithm for `elems` elements over `g` ranks.
    pub fn broadcast(&self, elems: usize, g: usize) -> BcastAlgo {
        let _ = g;
        if let Some(f) = self.force_bcast {
            return f;
        }
        if elems <= self.bcast_tree_max {
            BcastAlgo::Tree
        } else {
            BcastAlgo::Chain
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_select_by_size_and_group() {
        let p = AlgoPolicy::default();
        assert_eq!(p.all_reduce(256, 4), ArAlgo::Tree);
        assert_eq!(p.all_reduce(1024, 4), ArAlgo::Tree, "threshold inclusive");
        assert_eq!(p.all_reduce(1025, 4), ArAlgo::Rhd);
        assert_eq!(p.all_reduce(1 << 20, 4), ArAlgo::Rhd);
        assert_eq!(p.all_reduce(1 << 22, 4), ArAlgo::Rhd, "threshold inclusive");
        assert_eq!(p.all_reduce((1 << 22) + 1, 4), ArAlgo::Ring);
        // Non-power-of-two groups: tree still legal, rhd is not.
        assert_eq!(p.all_reduce(256, 3), ArAlgo::Tree);
        assert_eq!(p.all_reduce(1 << 20, 3), ArAlgo::Ring);
        assert_eq!(p.reduce_scatter(1 << 16, 4), RsAlgo::Rh);
        assert_eq!(p.reduce_scatter((1 << 18) + 4, 4), RsAlgo::Ring);
        assert_eq!(p.reduce_scatter(1 << 16, 6), RsAlgo::Ring);
        assert_eq!(p.all_gather(1 << 10, 8), AgAlgo::Rd);
        assert_eq!(p.all_gather((1 << 18) + 1, 8), AgAlgo::Ring);
        assert_eq!(p.all_gather(1 << 10, 5), AgAlgo::Ring);
        assert_eq!(p.broadcast(4096, 4), BcastAlgo::Tree);
        assert_eq!(p.broadcast(4097, 4), BcastAlgo::Chain);
    }

    #[test]
    fn ring_only_pins_every_collective() {
        let p = AlgoPolicy::ring_only();
        assert_eq!(p.all_reduce(1, 4), ArAlgo::Ring);
        assert_eq!(p.reduce_scatter(4, 4), RsAlgo::Ring);
        assert_eq!(p.all_gather(1, 4), AgAlgo::Ring);
        assert_eq!(p.broadcast(1, 4), BcastAlgo::Chain);
    }

    #[test]
    fn forced_algorithms_fall_back_when_illegal() {
        let p = AlgoPolicy {
            force_ar: Some(ArAlgo::Rhd),
            force_rs: Some(RsAlgo::Rh),
            force_ag: Some(AgAlgo::Rd),
            ..AlgoPolicy::default()
        };
        assert_eq!(p.all_reduce(1 << 20, 8), ArAlgo::Rhd);
        assert_eq!(p.all_reduce(1 << 20, 6), ArAlgo::Ring, "rhd needs pow2");
        assert_eq!(p.reduce_scatter(12, 6), RsAlgo::Ring);
        assert_eq!(p.all_gather(2, 6), AgAlgo::Ring);
    }

    #[test]
    fn parse_global_forces() {
        assert_eq!(AlgoPolicy::parse("auto"), AlgoPolicy::default());
        assert_eq!(AlgoPolicy::parse(""), AlgoPolicy::default());
        assert_eq!(AlgoPolicy::parse("ring"), AlgoPolicy::ring_only());
        let tree = AlgoPolicy::parse("tree");
        assert_eq!(tree.force_ar, Some(ArAlgo::Tree));
        assert_eq!(tree.force_bcast, Some(BcastAlgo::Tree));
        assert_eq!(tree.force_rs, None);
        let rhd = AlgoPolicy::parse("rhd");
        assert_eq!(rhd.force_ar, Some(ArAlgo::Rhd));
        assert_eq!(rhd.force_rs, Some(RsAlgo::Rh));
        assert_eq!(rhd.force_ag, Some(AgAlgo::Rd));
    }

    #[test]
    fn parse_per_collective_overrides() {
        let p = AlgoPolicy::parse("all_reduce=tree,all_gather=ring,broadcast=chain");
        assert_eq!(p.force_ar, Some(ArAlgo::Tree));
        assert_eq!(p.force_ag, Some(AgAlgo::Ring));
        assert_eq!(p.force_bcast, Some(BcastAlgo::Chain));
        assert_eq!(p.force_rs, None);
        // Unknown tokens never brick a run.
        assert_eq!(AlgoPolicy::parse("bogus"), AlgoPolicy::default());
        assert_eq!(AlgoPolicy::parse("all_reduce=warp9"), AlgoPolicy::default());
    }
}
