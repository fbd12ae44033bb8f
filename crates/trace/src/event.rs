//! The unified event vocabulary shared by both execution planes.
//!
//! The correctness plane (`axonn-exec` + `axonn-collectives`) and the
//! performance plane (`axonn-sim`) record the *same* event types, which
//! is what makes a 4D run and its simulation directly diffable: the
//! ordered sequence of event kinds on the compute stream is the
//! schedule, independent of which plane produced it.

use serde::{Serialize, Value};

/// Which per-rank track an event belongs to.
///
/// The exec plane uses `Compute` plus the single `Comm` track of its
/// asynchronous collective worker; the simulator models one channel per
/// collective type, mirroring AxoNN's per-communicator NCCL streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Stream {
    Compute,
    Comm,
    CommAg,
    CommAr,
    CommRs,
}

impl Stream {
    /// Stable small integer for Chrome-trace `tid`s.
    pub fn index(self) -> u64 {
        match self {
            Stream::Compute => 0,
            Stream::Comm => 1,
            Stream::CommAg => 1,
            Stream::CommAr => 2,
            Stream::CommRs => 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Stream::Compute => "compute",
            Stream::Comm => "comm",
            Stream::CommAg => "comm.all_gather",
            Stream::CommAr => "comm.all_reduce",
            Stream::CommRs => "comm.reduce_scatter",
        }
    }
}

/// Collective operation, as named in the paper's Eqs. 1–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CollOp {
    AllGather,
    ReduceScatter,
    AllReduce,
    Broadcast,
    Barrier,
    /// Recursive-doubling all-gather (medium messages on pow2 groups).
    AllGatherRd,
    /// Recursive-halving reduce-scatter (medium messages on pow2 groups).
    ReduceScatterRh,
    /// Recursive halving/doubling all-reduce (Rabenseifner, pow2 groups).
    AllReduceRhd,
    /// Binomial-tree all-reduce (latency-bound small messages, any group).
    AllReduceTree,
    /// Binomial-tree broadcast (latency-bound small messages, any group).
    BroadcastTree,
}

impl CollOp {
    /// Every collective op, in [`CollOp::index`] order. Lets callers
    /// pre-register one metric handle per op without allocation.
    pub const ALL: [CollOp; 10] = [
        CollOp::AllGather,
        CollOp::ReduceScatter,
        CollOp::AllReduce,
        CollOp::Broadcast,
        CollOp::Barrier,
        CollOp::AllGatherRd,
        CollOp::ReduceScatterRh,
        CollOp::AllReduceRhd,
        CollOp::AllReduceTree,
        CollOp::BroadcastTree,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CollOp::AllGather => "all_gather",
            CollOp::ReduceScatter => "reduce_scatter",
            CollOp::AllReduce => "all_reduce",
            CollOp::Broadcast => "broadcast",
            CollOp::Barrier => "barrier",
            CollOp::AllGatherRd => "all_gather_rd",
            CollOp::ReduceScatterRh => "reduce_scatter_rh",
            CollOp::AllReduceRhd => "all_reduce_rhd",
            CollOp::AllReduceTree => "all_reduce_tree",
            CollOp::BroadcastTree => "broadcast_tree",
        }
    }

    /// Dense index into [`CollOp::ALL`] (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Transport-level transfer statistics attached to collective spans by
/// the pooled exec-plane transport: how many pipeline chunks the payload
/// was segmented into, and how the buffer pool behaved (bytes freshly
/// allocated vs. slabs recycled). Zero for planes/events without a real
/// transport (the simulator, GEMMs, markers).
///
/// Pool behaviour depends on how the OS interleaved the ranks' threads,
/// so these counters live on [`TraceEvent`] *outside* the canonical
/// serialization — like wall time, they are diagnostic, not part of the
/// deterministic schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct XferStats {
    /// Pipeline segments the payload was split into (0 when the event is
    /// not a transport-backed collective).
    pub chunks: u32,
    /// Bytes of fresh heap allocation the transport performed.
    pub alloc_bytes: u64,
    /// Hop buffers served from the pool without allocating.
    pub pool_hits: u64,
    /// Hop buffers that missed the pool and had to allocate.
    pub pool_misses: u64,
}

impl Serialize for XferStats {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("chunks".into(), self.chunks.serialize()),
            ("alloc_bytes".into(), self.alloc_bytes.serialize()),
            ("pool_hits".into(), self.pool_hits.serialize()),
            ("pool_misses".into(), self.pool_misses.serialize()),
        ])
    }
}

/// What happened during an event's span.
#[derive(Debug, Clone, PartialEq)]
pub enum EventDetail {
    /// A local GEMM on the compute stream. `mode` is the operand
    /// transposition actually executed (`"NN"`, `"NT"`, `"TN"`,
    /// `"TN(naive)"` when the tuner kept the unpacked kernel, or
    /// `"TN->NN"` when it rerouted through a transpose). `packed_bytes`
    /// and `panels` count the blocked engine's pack traffic: the B
    /// panels, plus the A copy of a bf16 product (A is otherwise read in
    /// place, in every mode); zero for the naive tier.
    Gemm {
        mode: &'static str,
        flops: f64,
        packed_bytes: u64,
        panels: u32,
    },
    /// A collective occupying the stream it is recorded on: the compute
    /// stream for blocking calls (the span is the full stall, entry to
    /// completion), a comm stream for asynchronous execution.
    /// `op_seconds` is the modelled cost of the operation itself.
    Collective {
        op: CollOp,
        group_size: usize,
        bytes: u64,
        seq: u64,
        blocking: bool,
        op_seconds: f64,
    },
    /// Instantaneous marker on the compute stream: an asynchronous
    /// collective was handed to the communication worker.
    Issue {
        op: CollOp,
        group_size: usize,
        bytes: u64,
        seq: u64,
    },
    /// The compute stream blocked waiting on an asynchronous handle.
    /// A zero-length wait means the collective was fully hidden.
    OverlapWait { op: CollOp, seq: u64 },
    /// One layer's forward pass (outer span on the compute stream).
    LayerFwd { layer: usize },
    /// One layer's backward pass.
    LayerBwd { layer: usize },
    /// The kernel tuner locked in a strategy for a layer's dW GEMM.
    /// `direct_seconds` timed the packed TN kernel, `naive_seconds` the
    /// unpacked column-strided TN walk, `reroute_seconds` the explicit
    /// transpose + NN path.
    TunerDecision {
        layer: usize,
        choice: &'static str,
        direct_seconds: f64,
        naive_seconds: f64,
        reroute_seconds: f64,
    },
    /// Non-GEMM compute charged by the simulator (attention, softmax…).
    Aux { label: &'static str },
    /// A supervisor lifecycle event: failure detection, restart,
    /// resharding, checkpoint, resume, completion. Recorded on the
    /// supervisor's own timeline by `run_spmd_supervised`.
    Recovery {
        /// Which lifecycle transition ("failure_detected", "restart",
        /// "reshard", "checkpoint", "resume", "give_up", "completed").
        event: &'static str,
        /// Relaunch attempt index (0 = first launch).
        attempt: u64,
        /// Training step the event refers to (e.g. the checkpointed
        /// step being resumed from), when known.
        step: u64,
        /// The rank the event is about (the failed rank for
        /// "failure_detected"), or 0 when not rank-specific.
        rank: usize,
    },
}

impl EventDetail {
    /// The event-kind label used for schedule comparison across ranks
    /// and runs: coarse enough to be rank- and timing-independent (no
    /// sizes, no timings), fine enough to pin the schedule (op names
    /// included).
    pub fn kind(&self) -> String {
        match self {
            EventDetail::Gemm { .. } => "gemm".to_string(),
            EventDetail::Collective { op, blocking, .. } => {
                if *blocking {
                    format!("collective:{}", op.name())
                } else {
                    format!("async:{}", op.name())
                }
            }
            EventDetail::Issue { op, .. } => format!("issue:{}", op.name()),
            EventDetail::OverlapWait { op, .. } => format!("wait:{}", op.name()),
            EventDetail::LayerFwd { .. } => "layer_fwd".to_string(),
            EventDetail::LayerBwd { .. } => "layer_bwd".to_string(),
            EventDetail::TunerDecision { .. } => "tuner_decision".to_string(),
            EventDetail::Aux { .. } => "aux".to_string(),
            EventDetail::Recovery { event, .. } => format!("recovery:{event}"),
        }
    }

    /// Short display name for Chrome-trace rows.
    pub fn display_name(&self) -> String {
        match self {
            EventDetail::Gemm { mode, .. } => format!("gemm {mode}"),
            EventDetail::Collective { op, group_size, .. } => {
                format!("{} g={group_size}", op.name())
            }
            EventDetail::Issue { op, .. } => format!("issue {}", op.name()),
            EventDetail::OverlapWait { op, .. } => format!("wait {}", op.name()),
            EventDetail::LayerFwd { layer } => format!("fwd L{layer}"),
            EventDetail::LayerBwd { layer } => format!("bwd L{layer}"),
            EventDetail::TunerDecision { layer, choice, .. } => {
                format!("tune L{layer} -> {choice}")
            }
            EventDetail::Aux { label } => format!("aux {label}"),
            EventDetail::Recovery {
                event,
                attempt,
                rank,
                ..
            } => format!("recovery {event} a{attempt} r{rank}"),
        }
    }
}

impl Serialize for EventDetail {
    fn serialize(&self) -> Value {
        let mut fields: Vec<(String, Value)> = vec![("kind".into(), Value::Str(self.kind()))];
        match self {
            EventDetail::Gemm {
                mode,
                flops,
                packed_bytes,
                panels,
            } => {
                fields.push(("mode".into(), mode.serialize()));
                fields.push(("flops".into(), flops.serialize()));
                fields.push(("packed_bytes".into(), packed_bytes.serialize()));
                fields.push(("panels".into(), panels.serialize()));
            }
            EventDetail::Collective {
                op,
                group_size,
                bytes,
                seq,
                blocking,
                op_seconds,
            } => {
                fields.push(("op".into(), Value::Str(op.name().into())));
                fields.push(("group_size".into(), group_size.serialize()));
                fields.push(("bytes".into(), bytes.serialize()));
                fields.push(("seq".into(), seq.serialize()));
                fields.push(("blocking".into(), blocking.serialize()));
                fields.push(("op_seconds".into(), op_seconds.serialize()));
            }
            EventDetail::Issue {
                op,
                group_size,
                bytes,
                seq,
            } => {
                fields.push(("op".into(), Value::Str(op.name().into())));
                fields.push(("group_size".into(), group_size.serialize()));
                fields.push(("bytes".into(), bytes.serialize()));
                fields.push(("seq".into(), seq.serialize()));
            }
            EventDetail::OverlapWait { op, seq } => {
                fields.push(("op".into(), Value::Str(op.name().into())));
                fields.push(("seq".into(), seq.serialize()));
            }
            EventDetail::LayerFwd { layer } | EventDetail::LayerBwd { layer } => {
                fields.push(("layer".into(), layer.serialize()));
            }
            EventDetail::TunerDecision {
                layer,
                choice,
                direct_seconds,
                naive_seconds,
                reroute_seconds,
            } => {
                fields.push(("layer".into(), layer.serialize()));
                fields.push(("choice".into(), choice.serialize()));
                fields.push(("direct_seconds".into(), direct_seconds.serialize()));
                fields.push(("naive_seconds".into(), naive_seconds.serialize()));
                fields.push(("reroute_seconds".into(), reroute_seconds.serialize()));
            }
            EventDetail::Aux { label } => {
                fields.push(("label".into(), label.serialize()));
            }
            EventDetail::Recovery {
                event,
                attempt,
                step,
                rank,
            } => {
                fields.push(("event".into(), event.serialize()));
                fields.push(("attempt".into(), attempt.serialize()));
                fields.push(("step".into(), step.serialize()));
                fields.push(("rank".into(), rank.serialize()));
            }
        }
        Value::Object(fields)
    }
}

/// One recorded span (or instantaneous marker, when `t_end == t_start`).
///
/// Events carry both clocks: `t_start`/`t_end` are *virtual* seconds from
/// the plane's cost model (deterministic, the basis of every comparison
/// and report), `wall_start_ns`/`wall_end_ns` are host nanoseconds from
/// recorder creation (diagnostic only, excluded from canonical output).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub stream: Stream,
    pub t_start: f64,
    pub t_end: f64,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    /// The layer whose forward/backward this event belongs to, when the
    /// recording site had that context (asynchronous collectives keep
    /// the layer that *issued* them).
    pub layer: Option<usize>,
    pub detail: EventDetail,
    /// Transport transfer statistics (pooled exec transport only; zero
    /// elsewhere). Excluded from the canonical form — see [`XferStats`].
    pub xfer: XferStats,
}

impl TraceEvent {
    /// Serialize without the wall-clock fields — the canonical form used
    /// for determinism checks and cross-plane diffing.
    pub fn canonical_value(&self) -> Value {
        Value::Object(vec![
            ("stream".into(), Value::Str(self.stream.name().into())),
            ("t_start".into(), self.t_start.serialize()),
            ("t_end".into(), self.t_end.serialize()),
            (
                "layer".into(),
                match self.layer {
                    Some(l) => l.serialize(),
                    None => Value::Null,
                },
            ),
            ("detail".into(), self.detail.serialize()),
        ])
    }
}

impl Serialize for TraceEvent {
    fn serialize(&self) -> Value {
        let Value::Object(mut fields) = self.canonical_value() else {
            unreachable!("canonical_value always returns an object");
        };
        fields.push(("wall_start_ns".into(), self.wall_start_ns.serialize()));
        fields.push(("wall_end_ns".into(), self.wall_end_ns.serialize()));
        fields.push(("xfer".into(), self.xfer.serialize()));
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_index_is_its_position_in_all() {
        for (i, op) in CollOp::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i, "{}", op.name());
        }
    }

    #[test]
    fn kinds_distinguish_blocking_from_async() {
        let mk = |blocking| EventDetail::Collective {
            op: CollOp::AllReduce,
            group_size: 4,
            bytes: 1024,
            seq: 0,
            blocking,
            op_seconds: 1e-3,
        };
        assert_eq!(mk(true).kind(), "collective:all_reduce");
        assert_eq!(mk(false).kind(), "async:all_reduce");
        assert_eq!(
            EventDetail::OverlapWait {
                op: CollOp::AllGather,
                seq: 3
            }
            .kind(),
            "wait:all_gather"
        );
    }

    #[test]
    fn canonical_form_excludes_wall_time() {
        let ev = TraceEvent {
            stream: Stream::Compute,
            t_start: 1.0,
            t_end: 2.0,
            wall_start_ns: 123,
            wall_end_ns: 456,
            layer: Some(1),
            detail: EventDetail::Gemm {
                mode: "NN",
                flops: 100.0,
                packed_bytes: 2048,
                panels: 2,
            },
            xfer: XferStats {
                chunks: 4,
                alloc_bytes: 4096,
                pool_hits: 3,
                pool_misses: 1,
            },
        };
        let canon = serde_json::to_string(&ev.canonical_value()).unwrap();
        assert!(!canon.contains("wall"), "canonical form leaked wall time");
        assert!(
            !canon.contains("pool_hits"),
            "canonical form leaked transfer stats"
        );
        let full = serde_json::to_string(&ev).unwrap();
        assert!(full.contains("wall_start_ns"));
        assert!(full.contains("pool_hits"));
        assert!(full.contains("alloc_bytes"));
    }
}
