//! Shared-memory collective communication for the AxoNN-rs correctness
//! plane.
//!
//! This crate is the stand-in for NCCL / RCCL: a *world* of ranks (one OS
//! thread each, spawned by `axonn-exec`) exchanging `f32` buffers through a
//! tag-addressed mailbox, with the classic **ring** implementations of
//! all-gather, reduce-scatter, all-reduce (reduce-scatter + all-gather, as
//! in Rabenseifner) and broadcast over arbitrary *process groups* —
//! exactly Assumption-1 of the paper's performance model. Non-blocking
//! variants run on a per-rank communication stream (a worker thread when
//! the rank's core share is two or more, else the issuing thread) and return
//! handles, which is what lets `axonn-core` implement the paper's OAR /
//! ORS / OAG overlap optimizations with real concurrency semantics.
//!
//! Every rank also carries a **virtual clock** advanced by a pluggable
//! [`CostModel`] on compute and communication, so even small functional
//! runs report simulated times consistent with the analytical plane in
//! `axonn-sim`.

pub mod algo;
pub mod comm;
pub mod cost;
pub mod fault;
pub mod fold;
pub mod group;
pub mod mailbox;
pub mod nonblocking;
pub mod pool;
mod program;
pub mod reference;
pub mod sched;
pub mod telemetry;

pub use algo::{AgAlgo, AlgoPolicy, ArAlgo, BcastAlgo, RsAlgo};
pub use comm::{rank_core_share, Comm, CommWorld, ReduceOp, WorldBuilder};
pub use cost::{CollectiveKind, CostModel, NullCost, RingCostModel};
pub use fault::{
    CommError, DropRule, FailureKind, FailureRecord, FaultConfig, InjectedKill, StallRule,
    WallStallRule, DEFAULT_RECV_TIMEOUT,
};
pub use group::ProcessGroup;
pub use mailbox::PoisonInfo;
pub use nonblocking::{AsyncHandle, AsyncOp};
pub use pool::{BufferPool, Payload, PipelineConfig, PoolStats};
pub use sched::{SchedEvent, SchedKind, SchedOp};
pub use telemetry::{lane_name, Beats, PendingRecv, RankTelemetry};
