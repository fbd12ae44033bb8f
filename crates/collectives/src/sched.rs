//! Schedule-event vocabulary for the static collective verifier.
//!
//! Every communicator records, per rank, the ordered stream of collective
//! operations it issues — kind, group, element count, blocking/non-blocking,
//! and the issue/wait pairing of async handles. `axonn-verify` consumes these
//! streams to prove the SPMD matching property the 4D algorithm relies on
//! (every rank issues the same collectives, on the same groups, in the same
//! per-lane order) and to lint for deadlocks and leaks, all without moving a
//! byte of data.
//!
//! Recording happens in two modes:
//! * **dry extraction** ([`crate::CommWorld::dry`]): collectives return
//!   zero-filled results immediately, so a whole training step can be
//!   replayed per rank, serially, to extract its symbolic schedule;
//! * **runtime shadow** (debug builds, or `AXONN_SCHED_VERIFY=1`): live
//!   worlds append to the same per-rank logs while executing normally, and
//!   `axonn_exec::run_spmd` cross-checks the streams at teardown.
//!
//! # Lane keys (canonical reference)
//!
//! Within one collective (one `(group, seq)` pair) the transport's 32-bit
//! sub-key space is partitioned into **lanes** of `0x1_0000` sub-keys each,
//! one lane per wire protocol phase. A message's sub-key is
//!
//! ```text
//! lane + step * 256 + segment
//! ```
//!
//! where `step` is the ring/exchange step (up to 256) and `segment` the
//! chunk-pipeline segment within that step (up to 256, the `SEG_STRIDE`).
//! The lane constants live in [`crate::comm::lane`]; the full message key is
//! `(group_key << 64) | (seq << 32) | sub_key`. Algorithms name only
//! `(lane, step)` slots in their step programs; the one executor that runs
//! them (`program::run`) is the only place a collective's keys are composed
//! (the clock synchronisation after it uses its own two lanes). Everything the verifier calls
//! a "communicator lane" is the `(group, lane)` projection of this space:
//! per-lane FIFO order is exactly what the mailbox transport guarantees, so
//! per-lane schedule equality is the property that rules out cross-rank
//! deadlock and misdelivery.

use crate::cost::CollectiveKind;
use crate::group::ProcessGroup;
use crate::ReduceOp;
use std::fmt;

/// The verifier-visible kind of a scheduled collective. Finer-grained than
/// [`crate::CollectiveKind`]: algorithms that use disjoint wire lanes (ring
/// vs. linear reduce-scatter, ring vs. recursive-halving/doubling all-reduce) must
/// not be considered matching, so each gets its own kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// Ring all-gather (`lane::AG`).
    AllGather,
    /// Ring reduce-scatter (`lane::RS`).
    ReduceScatter,
    /// Canonical-order direct-exchange reduce-scatter (`lane::LRS`).
    ReduceScatterLinear,
    /// Ring all-reduce = reduce-scatter + all-gather (`lane::RS` + `lane::AG`).
    AllReduce,
    /// Canonical-order all-reduce = linear reduce-scatter + ring all-gather
    /// (`lane::LRS` + `lane::AG`).
    AllReduceLinear,
    /// Recursive-doubling all-gather (`lane::RDAG`).
    AllGatherRd,
    /// Recursive-halving reduce-scatter (`lane::RHD`).
    ReduceScatterRh,
    /// Recursive halving/doubling all-reduce = recursive-halving
    /// reduce-scatter + recursive-doubling all-gather
    /// (`lane::RHD` + `lane::RDAG`).
    AllReduceRhd,
    /// Binomial-tree all-reduce = tree reduce to the group root + tree
    /// broadcast (`lane::TREE_UP` + `lane::TREE_DOWN`).
    AllReduceTree,
    /// Chain broadcast (`lane::BCAST`).
    Broadcast,
    /// Binomial-tree broadcast (`lane::TREE_DOWN`).
    BroadcastTree,
    /// Barrier (a 1-element ring all-reduce on `lane::RS`/`lane::AG`).
    Barrier,
}

impl SchedKind {
    /// Short lowercase label used in diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            SchedKind::AllGather => "all_gather",
            SchedKind::ReduceScatter => "reduce_scatter",
            SchedKind::ReduceScatterLinear => "reduce_scatter_linear",
            SchedKind::AllReduce => "all_reduce",
            SchedKind::AllReduceLinear => "all_reduce_linear",
            SchedKind::AllGatherRd => "all_gather_rd",
            SchedKind::ReduceScatterRh => "reduce_scatter_rh",
            SchedKind::AllReduceRhd => "all_reduce_rhd",
            SchedKind::AllReduceTree => "all_reduce_tree",
            SchedKind::Broadcast => "broadcast",
            SchedKind::BroadcastTree => "broadcast_tree",
            SchedKind::Barrier => "barrier",
        }
    }

    /// Human-readable lane label used by diagnostics: the wire lanes of
    /// [`lanes`](Self::lanes), named in protocol order. The race and
    /// slab-lifetime checkers name lanes so a rejected overlap window can
    /// be traced to the wire protocol phase that still holds the buffer.
    pub fn lane_label(&self) -> &'static str {
        match self {
            SchedKind::AllGather => "ag",
            SchedKind::ReduceScatter => "rs",
            SchedKind::ReduceScatterLinear => "lrs",
            SchedKind::AllReduce | SchedKind::Barrier => "rs+ag",
            SchedKind::AllReduceLinear => "lrs+ag",
            SchedKind::AllGatherRd => "rdag",
            SchedKind::ReduceScatterRh => "rhd",
            SchedKind::AllReduceRhd => "rhd+rdag",
            SchedKind::AllReduceTree => "tree_up+tree_down",
            SchedKind::Broadcast => "bcast",
            SchedKind::BroadcastTree => "tree_down",
        }
    }

    /// The cost-model kind that prices this algorithm (and labels its
    /// trace events and live metrics).
    pub fn collective_kind(&self) -> CollectiveKind {
        match self {
            SchedKind::AllGather => CollectiveKind::AllGather,
            SchedKind::AllGatherRd => CollectiveKind::AllGatherRecursiveDoubling,
            SchedKind::ReduceScatter | SchedKind::ReduceScatterLinear => {
                CollectiveKind::ReduceScatter
            }
            SchedKind::ReduceScatterRh => CollectiveKind::ReduceScatterRecursiveHalving,
            SchedKind::AllReduce | SchedKind::AllReduceLinear => CollectiveKind::AllReduce,
            SchedKind::AllReduceRhd => CollectiveKind::AllReduceRecursiveHalvingDoubling,
            SchedKind::AllReduceTree => CollectiveKind::AllReduceTree,
            SchedKind::Broadcast => CollectiveKind::Broadcast,
            SchedKind::BroadcastTree => CollectiveKind::BroadcastTree,
            SchedKind::Barrier => CollectiveKind::Barrier,
        }
    }

    /// The op name a rank inside this collective reports to the watchdog
    /// and the flight recorder (the canonical-order kinds report as the
    /// collective they compute).
    pub(crate) fn op_name(&self) -> &'static str {
        crate::comm::coll_op(self.collective_kind()).name()
    }

    /// Bytes the cost model charges for `elems` contributed elements over
    /// `g` ranks: the gathered size for all-gathers, nothing for the
    /// barrier, the whole buffer otherwise.
    pub fn charged_bytes(&self, elems: usize, g: usize) -> u64 {
        let elems = match self {
            SchedKind::AllGather | SchedKind::AllGatherRd => elems * g,
            SchedKind::Barrier => 0,
            _ => elems,
        };
        (elems * 4) as u64
    }

    /// The wire lanes (see [`crate::comm::lane`]) this kind occupies, in
    /// protocol order.
    pub fn lanes(&self) -> &'static [u32] {
        use crate::comm::lane;
        match self {
            SchedKind::AllGather => &[lane::AG],
            SchedKind::ReduceScatter => &[lane::RS],
            SchedKind::ReduceScatterLinear => &[lane::LRS],
            SchedKind::AllReduce | SchedKind::Barrier => &[lane::RS, lane::AG],
            SchedKind::AllReduceLinear => &[lane::LRS, lane::AG],
            SchedKind::AllGatherRd => &[lane::RDAG],
            SchedKind::ReduceScatterRh => &[lane::RHD],
            SchedKind::AllReduceRhd => &[lane::RHD, lane::RDAG],
            SchedKind::AllReduceTree => &[lane::TREE_UP, lane::TREE_DOWN],
            SchedKind::Broadcast => &[lane::BCAST],
            SchedKind::BroadcastTree => &[lane::TREE_DOWN],
        }
    }
}

impl fmt::Display for SchedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One collective issue as seen by the verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedOp {
    pub kind: SchedKind,
    /// The communicator group, by its ordered member list — order is part of
    /// group identity (it fixes ring neighbours and fold order).
    pub ranks: Vec<usize>,
    /// The group's fnv1a key, as used in message keys.
    pub group_key: u64,
    /// Contributed elements (shard length for all-gather, full buffer
    /// length otherwise). Must agree across members.
    pub elems: usize,
    /// Broadcast root (group position), when applicable.
    pub root: Option<usize>,
    /// Reduction operator, when applicable.
    pub reduce: Option<ReduceOp>,
    /// True for blocking calls; false for async issues (completed by a
    /// matching [`SchedEvent::Wait`]).
    pub blocking: bool,
    /// True when the async payload rides a pooled slab.
    pub pooled: bool,
    /// Per-group issue sequence number claimed by this op.
    pub seq: u64,
    /// Logical identity of the main-context buffer this op reads/writes
    /// (the payload's buffer id for async issues). The happens-before
    /// race detector keys overlap windows on this id: a
    /// [`SchedEvent::BufWrite`] on the same id that is concurrent with
    /// the window is a race. `None` for blocking calls, whose window is
    /// empty by construction. Excluded from cross-rank matching — ids
    /// are rank-local.
    pub buf: Option<u64>,
    /// Identity of the pooled slab backing the payload, when pooled.
    /// The slab-lifetime analysis keys recycle ordering on this id.
    /// Excluded from cross-rank matching.
    pub slab: Option<u64>,
}

impl fmt::Display for SchedOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[elems={}", self.kind, self.elems)?;
        if let Some(root) = self.root {
            write!(f, ", root={root}")?;
        }
        if let Some(op) = self.reduce {
            write!(f, ", op={op:?}")?;
        }
        if !self.blocking {
            f.write_str(", async")?;
        }
        write!(f, ", seq={}]", self.seq)
    }
}

/// One entry of a rank's recorded schedule stream.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedEvent {
    /// A collective was issued (blocking call entered, or async job
    /// submitted to the rank's communication stream).
    Issue(SchedOp),
    /// An async handle was waited on, identified by its `(group, seq)`.
    Wait { group_key: u64, seq: u64 },
    /// A structural marker from a higher layer (e.g. `bucket_seal` from the
    /// gradient bucketizer), consumed by leak lints.
    Marker { label: &'static str },
    /// The main context mutated the logical buffer `buf` (overlap-window
    /// annotation). Emitted by layers that hand a buffer to an async
    /// collective — the race detector checks every such write against the
    /// overlap windows of pending async ops on the same id.
    BufWrite { buf: u64, label: &'static str },
    /// The pooled slab `slab` was returned to the buffer pool (lifetime
    /// annotation). The slab analysis proves every reader's clock passed
    /// the slab's last use before this point. The runtime never emits
    /// this on clean paths — slabs recycle implicitly when their owning
    /// op's payload drops — so it appears only in injected-defect streams
    /// and hand-built tests.
    SlabRecycle { slab: u64 },
}

impl fmt::Display for SchedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedEvent::Issue(op) => write!(f, "issue {op}"),
            SchedEvent::Wait { group_key, seq } => {
                write!(f, "wait[group={group_key:#x}, seq={seq}]")
            }
            SchedEvent::Marker { label } => write!(f, "marker[{label}]"),
            SchedEvent::BufWrite { buf, label } => {
                write!(f, "buf_write[buf={buf}, {label}]")
            }
            SchedEvent::SlabRecycle { slab } => write!(f, "slab_recycle[slab={slab}]"),
        }
    }
}

impl SchedOp {
    /// Build an op from a live issue site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        kind: SchedKind,
        group: &ProcessGroup,
        elems: usize,
        root: Option<usize>,
        reduce: Option<ReduceOp>,
        blocking: bool,
        pooled: bool,
        seq: u64,
        buf: Option<u64>,
        slab: Option<u64>,
    ) -> Self {
        SchedOp {
            kind,
            ranks: group.ranks().to_vec(),
            group_key: group.key(),
            elems,
            root,
            reduce,
            blocking,
            pooled,
            seq,
            buf,
            slab,
        }
    }
}
