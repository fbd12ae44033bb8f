//! Per-rank communicators and their blocking collectives.
//!
//! The collectives are the textbook algorithms the paper's model assumes
//! (Assumption-1): ring reduce-scatter and all-gather move `(g-1)/g · n`
//! bytes per rank in `g-1` steps, and all-reduce is reduce-scatter
//! followed by all-gather (Rabenseifner); below per-collective thresholds
//! [`crate::algo`] selects tree and halving/doubling variants. Every
//! algorithm is a step program run by one executor (the `program`
//! module); this module issues them, blocking, and charges their virtual
//! time. Reduction order is fixed by group order, so results are
//! deterministic (bit-identical across runs for the same grid).
//!
//! Every collective has two faces: the infallible API (panics with a
//! typed [`CommError`] payload on a lost peer, which the launcher reads
//! as a secondary failure) and a fallible `try_*` API returning
//! [`CommError`], which is what the fault-tolerant supervisor builds on.

use crate::algo::AlgoPolicy;
use crate::cost::{CostModel, NullCost};
use crate::fault::{unwrap_comm, CommError, FaultConfig};
use crate::group::ProcessGroup;
use crate::mailbox::{MsgKey, Transport};
use crate::pool::{Payload, PipelineConfig, PoolStats};
use crate::program::{self, HopStats, Program};
use crate::sched::{SchedEvent, SchedKind, SchedOp};
use axonn_trace::{EventDetail, Stream, TraceSink};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Virtual-time state of one rank, shared between its main thread and its
/// async communication stream (a worker thread, or the main thread when
/// the rank has one core).
#[derive(Debug, Default)]
pub struct ClockState {
    /// Current virtual time of the rank's compute stream.
    pub now: f64,
    /// When the rank's *synchronous* communication stream becomes free
    /// (blocking collectives, issued from the compute thread).
    pub comm_free_sync: f64,
    /// When the rank's *asynchronous* communication stream becomes free
    /// (non-blocking collectives, wherever they run). Separate streams
    /// keep virtual time deterministic regardless of which thread runs a
    /// program or how the OS interleaves threads — mirroring the independent
    /// communication channels of the simulator.
    pub comm_free_async: f64,
}

pub(crate) struct CommShared {
    pub(crate) transport: Arc<Transport>,
    pub(crate) cost: Arc<dyn CostModel>,
    pub(crate) track_time: bool,
    pub(crate) clock: Mutex<ClockState>,
    /// Per-group collective sequence numbers, assigned at issue time so
    /// async and blocking collectives on the same group never collide.
    pub(crate) seq: Mutex<HashMap<u64, u64>>,
    /// Per-rank event recorder, present in traced worlds.
    pub(crate) tracer: Option<Arc<TraceSink>>,
    /// Dry (symbolic) mode: collectives record their schedule event and
    /// return zero-filled results immediately — no messages, no workers.
    /// Used by the static verifier to extract per-rank schedules.
    pub(crate) dry: bool,
    /// Live metrics facade, present when the world was built with a
    /// registry ([`WorldBuilder::metrics`]). Pre-registered handles:
    /// stamping is atomic adds, no allocation.
    pub(crate) metrics: Option<Arc<axonn_trace::LiveCollectives>>,
    /// Message-size-aware algorithm selection policy, resolved once at
    /// world build so every rank selects identically.
    pub(crate) algo: AlgoPolicy,
}

/// A rank's handle to the world: identity, transport, cost model, clock.
///
/// Cloning is cheap (all state is shared).
#[derive(Clone)]
pub struct Comm {
    rank: usize,
    pub(crate) shared: Arc<CommShared>,
    /// The rank's communication worker, when its core share is two or
    /// more; without it, async collectives run at issue on the calling
    /// thread (see [`crate::nonblocking`]).
    pub(crate) async_tx: Option<crate::nonblocking::WorkerQueue>,
}

/// RAII marker for "this rank is inside collective `op`" — the watchdog
/// names the op when the rank stalls mid-collective. Cleared (and a
/// flight breadcrumb written) on drop, including unwinds.
pub(crate) struct OpScope<'a> {
    comm: &'a Comm,
    op: &'static str,
}

impl Drop for OpScope<'_> {
    fn drop(&mut self) {
        let transport = &self.comm.shared.transport;
        transport.beats().clear_op(self.comm.rank);
        #[cfg(not(loom))]
        transport
            .flight(self.comm.rank)
            .record(axonn_trace::FlightLabel::Exit(self.op));
        #[cfg(loom)]
        let _ = self.op;
    }
}

/// Factory for communicator worlds: [`CommWorld::builder`] for a live
/// world, [`CommWorld::dry`] for schedule extraction.
pub struct CommWorld;

impl CommWorld {
    /// Start configuring a world explicitly (cost model, fault
    /// injection, chunk-pipeline policy).
    pub fn builder(size: usize) -> WorldBuilder {
        WorldBuilder {
            size,
            cost: Arc::new(NullCost),
            track_time: false,
            faults: FaultConfig::none(),
            pipeline: PipelineConfig::default(),
            record_schedule: None,
            metrics: None,
            dry: false,
            algo: None,
        }
    }

    /// A **dry** world for symbolic schedule extraction: every collective
    /// records its schedule event and returns a zero-filled result of the
    /// correct shape without moving a message (no async workers are
    /// spawned, so ranks can be driven serially from one thread). Raw
    /// point-to-point send/recv is not available in dry mode. Schedule
    /// recording is always on; read the streams back with
    /// [`Comm::schedule_streams`].
    pub fn dry(size: usize) -> Vec<Comm> {
        let mut b = Self::builder(size);
        b.dry = true;
        b.build()
    }
}

/// The cores each rank of a `world_size`-rank world gets: the count of
/// the pool the caller is installed in divided among the ranks, at
/// least one. An explicit `AXONN_THREADS=n` (read once per process)
/// wins: on first read it sizes the global pool, and every rank gets
/// `n`. Unset or `0` keeps the default. This one count sizes each rank's
/// kernel pool (`axonn-exec`) and places its comm stream (the world
/// builder), so the two cannot disagree.
pub fn rank_core_share(world_size: usize) -> usize {
    static EXPLICIT: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();
    let explicit = *EXPLICIT.get_or_init(|| {
        let n = std::env::var("AXONN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n > 0)?;
        if let Err(e) = rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
        {
            eprintln!("[axonn] AXONN_THREADS={n} ignored: {e}");
        }
        Some(n)
    });
    explicit.unwrap_or_else(|| (rayon::current_num_threads() / world_size).max(1))
}

/// Configures and creates a [`Comm`] world.
pub struct WorldBuilder {
    size: usize,
    cost: Arc<dyn CostModel>,
    track_time: bool,
    faults: FaultConfig,
    pipeline: PipelineConfig,
    record_schedule: Option<bool>,
    metrics: Option<axonn_trace::LiveRegistry>,
    dry: bool,
    algo: Option<AlgoPolicy>,
}

impl WorldBuilder {
    /// Advance virtual clocks per `cost` (implies time tracking).
    pub fn cost(mut self, cost: Arc<dyn CostModel>) -> Self {
        self.cost = cost;
        self.track_time = true;
        self
    }

    /// Install deterministic fault injection (message drops, link
    /// stalls, recv timeout). Stall rules are only observable on a timed
    /// world, so pair them with [`cost`](Self::cost).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Override the chunk-pipeline segmentation policy (the default
    /// splits payloads of ≥ 16 Ki elements into up to 4 chunks).
    pub fn pipeline(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Override the message-size-aware algorithm selection policy (the
    /// default resolves [`AlgoPolicy::from_env`] once at build —
    /// `AXONN_COLL_ALGO` — so A/B runs can force ring/tree/rhd).
    pub fn algo(mut self, policy: AlgoPolicy) -> Self {
        self.algo = Some(policy);
        self
    }

    /// Force per-rank schedule recording on or off. The default follows
    /// the build profile (on under `debug_assertions`); dry worlds always
    /// record.
    pub fn record_schedule(mut self, on: bool) -> Self {
        self.record_schedule = Some(on);
        self
    }

    /// Publish live metrics into `registry`. This is how an observer
    /// (`axonnctl monitor`, the serving plane, tests) shares the registry
    /// with the world it is watching; a world built without one stamps
    /// no metrics.
    pub fn metrics(mut self, registry: axonn_trace::LiveRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Create the world.
    pub fn build(self) -> Vec<Comm> {
        self.build_inner(None)
    }

    /// Create the world with per-rank trace sinks. The returned sinks
    /// (one per rank, same order) stay valid after the `Comm`s are moved
    /// to their threads; drain them with [`TraceSink::finish`] once the
    /// run is over.
    pub fn build_traced(self) -> (Vec<Comm>, Vec<Arc<TraceSink>>) {
        let sinks: Vec<Arc<TraceSink>> = (0..self.size).map(TraceSink::new).collect();
        let comms = self.build_inner(Some(&sinks));
        (comms, sinks)
    }

    fn build_inner(self, tracers: Option<&[Arc<TraceSink>]>) -> Vec<Comm> {
        let WorldBuilder {
            size,
            cost,
            track_time,
            faults,
            pipeline,
            record_schedule,
            metrics,
            dry,
            algo,
        } = self;
        assert!(size > 0, "world size must be positive");
        // Resolved once here, not per rank: every rank of a world must
        // select the same algorithm for the same collective.
        let algo = algo.unwrap_or_else(AlgoPolicy::from_env);
        let record = dry || record_schedule.unwrap_or(cfg!(debug_assertions));
        let transport = Transport::with_opts(size, faults, pipeline, record);
        // Live metrics go to the caller's registry, if it gave one. Dry
        // worlds never stamp (they execute nothing).
        let live = metrics
            .filter(|_| !dry)
            .map(|reg| Arc::new(axonn_trace::LiveCollectives::new(&reg)));
        // Comm-stream placement. With one core a worker could only
        // time-slice with its own rank's compute (measured on 2-rank
        // grids of a 2-core box: 16–21k involuntary context switches per
        // 10-s run, 0.4–0.5k inline), so async collectives run where they
        // are issued. A share of two or more keeps the worker every rank
        // had before; whether it beats inline there is unmeasured. Dry
        // worlds never spawn workers.
        let worker = !dry && rank_core_share(size) >= 2;
        (0..size)
            .map(|rank| {
                let shared = Arc::new(CommShared {
                    transport: transport.clone(),
                    cost: cost.clone(),
                    track_time,
                    clock: Mutex::new(ClockState::default()),
                    seq: Mutex::new(HashMap::new()),
                    tracer: tracers.map(|t| t[rank].clone()),
                    dry,
                    metrics: live.clone(),
                    algo,
                });
                let async_tx =
                    worker.then(|| crate::nonblocking::spawn_worker(rank, shared.clone()));
                Comm {
                    rank,
                    shared,
                    async_tx,
                }
            })
            .collect()
    }
}

/// Compose a message key from group identity, issue sequence and a
/// sub-channel (ring step / phase / special lane).
pub(crate) fn msg_key(group_key: u64, seq: u64, sub: u32) -> MsgKey {
    ((group_key as u128) << 64) | (((seq & 0xffff_ffff) as u128) << 32) | sub as u128
}

/// Elementwise reduction operator for reducing collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
}

impl ReduceOp {
    #[inline]
    pub(crate) fn combine(self, a: f32, b: f32) -> f32 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
        }
    }
}

/// Sub-channel lanes within one collective's key space.
///
/// The canonical description of the lane-key convention — how
/// `lane + step * 256 + segment` partitions the 32-bit sub-key space, and
/// how the full message key composes with the group key and sequence
/// number — lives in the [`crate::sched`] module docs; this module is just
/// the constants. Each lane spans `0x1_0000` sub-keys, addressed as
/// `lane + step * 256 + segment` — up to 256 steps of up to 256 pipeline
/// segments.
pub mod lane {
    /// Ring steps of the reduce-scatter phase.
    pub const RS: u32 = 0;
    /// Ring steps of the all-gather phase.
    pub const AG: u32 = 0x0001_0000;
    /// Pipelined broadcast chain: `BCAST + segment`.
    pub const BCAST: u32 = 0x0002_0000;
    /// Clock synchronisation (gather to root, then fan-out).
    pub const CLOCK_UP: u32 = 0x0003_0000;
    pub const CLOCK_DOWN: u32 = 0x0004_0000;
    /// Direct-exchange (linear-order) reduce-scatter: `LRS + segment`.
    /// One logical step — receivers disambiguate senders by source rank.
    pub const LRS: u32 = 0x0006_0000;
    /// Recursive-halving reduce-scatter exchange steps: `RHD + step·256`.
    pub const RHD: u32 = 0x0007_0000;
    /// Recursive-doubling all-gather exchange steps: `RDAG + step·256`.
    pub const RDAG: u32 = 0x0008_0000;
    /// Binomial-tree reduce phase (child → parent): `TREE_UP + step·256`.
    pub const TREE_UP: u32 = 0x0009_0000;
    /// Binomial-tree broadcast phase (parent → child):
    /// `TREE_DOWN + step·256`.
    pub const TREE_DOWN: u32 = 0x000a_0000;
}

impl Comm {
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether this rank's async collectives run on a comm-worker thread
    /// (core share of two or more) rather than at issue.
    pub fn has_comm_worker(&self) -> bool {
        self.async_tx.is_some()
    }

    pub fn world_size(&self) -> usize {
        self.shared.transport.world_size()
    }

    /// This rank's event recorder, when the world was created traced.
    pub fn tracer(&self) -> Option<&Arc<TraceSink>> {
        self.shared.tracer.as_ref()
    }

    /// Process-unique id of this world (flight-recorder dumps are named
    /// `flight_w{id}_rank{r}.json`).
    pub fn world_id(&self) -> u64 {
        self.shared.transport.world_id()
    }

    /// Observer-side health snapshot of every rank: heartbeat age,
    /// current op, pending receive (peer + lane), progress counters.
    pub fn telemetry(&self) -> Vec<crate::telemetry::RankTelemetry> {
        self.shared.transport.telemetry()
    }

    /// This rank's flight recorder.
    #[cfg(not(loom))]
    pub fn flight(&self) -> &Arc<axonn_trace::FlightRecorder> {
        self.shared.transport.flight(self.rank)
    }

    /// Dump `rank`'s flight recorder to disk (watchdog trips, failure
    /// detection), returning the written path.
    #[cfg(not(loom))]
    pub fn dump_flight_rank(
        &self,
        rank: usize,
        reason: &str,
    ) -> std::io::Result<std::path::PathBuf> {
        self.shared.transport.dump_flight(rank, reason)
    }

    /// Dump every rank's flight recorder (best effort), returning the
    /// written paths.
    #[cfg(not(loom))]
    pub fn dump_flight_all(&self, reason: &str) -> Vec<std::path::PathBuf> {
        self.shared.transport.dump_flight_all(reason)
    }

    /// Declare `rank` dead: receivers blocked on it get
    /// [`CommError::PeerLost`] while surviving ranks keep communicating.
    /// The launcher calls it for every rank that panics.
    pub fn mark_dead(&self, rank: usize, reason: &str) {
        self.shared.transport.mark_dead(rank, reason);
    }

    /// True if `rank` has been marked dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.shared.transport.is_dead(rank)
    }

    /// Current virtual time of this rank.
    pub fn now(&self) -> f64 {
        self.shared.clock.lock().now
    }

    /// Advance this rank's virtual clock by the cost of `flops` compute.
    pub fn advance_compute(&self, flops: f64) {
        if self.shared.track_time {
            let dt = self.shared.cost.compute_seconds(flops);
            self.shared.clock.lock().now += dt;
        }
    }

    /// Claim the next collective sequence number for `group`.
    pub(crate) fn next_seq(&self, group: &ProcessGroup) -> u64 {
        let mut seqs = self.shared.seq.lock();
        let s = seqs.entry(group.key()).or_insert(0);
        let out = *s;
        *s += 1;
        out
    }

    /// Record a collective issue into this rank's schedule stream.
    /// Size-1 groups move no data and leave no events — the same rule
    /// the tracer and the `axonn-sim` analytical plane follow, so
    /// extracted and simulated schedules line up op for op.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_issue(
        &self,
        kind: SchedKind,
        group: &ProcessGroup,
        elems: usize,
        root: Option<usize>,
        reduce: Option<ReduceOp>,
        blocking: bool,
        pooled: bool,
        seq: u64,
    ) {
        self.record_issue_tagged(
            kind, group, elems, root, reduce, blocking, pooled, seq, None, None,
        );
    }

    /// [`record_issue`](Self::record_issue) with buffer-identity
    /// annotations: `buf` is the logical buffer the op reads/writes and
    /// `slab` the pooled slab backing it, both in the id space of
    /// [`Payload::buffer_id`]. The async issue path records these so the
    /// happens-before race detector and the slab-lifetime analysis can
    /// pair overlap windows with [`SchedEvent::BufWrite`] /
    /// [`SchedEvent::SlabRecycle`] annotations.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_issue_tagged(
        &self,
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
    ) {
        if group.size() > 1 && self.shared.transport.recording_schedule() {
            self.shared.transport.record_event(
                self.rank,
                SchedEvent::Issue(SchedOp::new(
                    kind, group, elems, root, reduce, blocking, pooled, seq, buf, slab,
                )),
            );
        }
    }

    /// Record a structural marker (e.g. `bucket_seal`) into this rank's
    /// schedule stream, for the verifier's leak lints. No-op when
    /// schedule recording is off.
    pub fn record_schedule_marker(&self, label: &'static str) {
        if self.shared.transport.recording_schedule() {
            self.shared
                .transport
                .record_event(self.rank, SchedEvent::Marker { label });
        }
    }

    /// Record that the main context mutated the logical buffer `buf`
    /// (id space of [`Payload::buffer_id`]). Layers that hand buffers to
    /// async collectives call this at each mutation site so the
    /// verifier's happens-before race detector can prove the write does
    /// not land inside a pending collective's overlap window. Today the
    /// runtime copies payloads at issue time, so these annotations
    /// certify the *stronger* zero-copy discipline — the proof that a
    /// future in-place payload path stays sound. No-op when schedule
    /// recording is off.
    pub fn record_buf_write(&self, buf: u64, label: &'static str) {
        if self.shared.transport.recording_schedule() {
            self.shared
                .transport
                .record_event(self.rank, SchedEvent::BufWrite { buf, label });
        }
    }

    /// Snapshot of every rank's recorded schedule stream, when this world
    /// records schedules (dry worlds, debug builds, and worlds built with
    /// [`WorldBuilder::record_schedule`]).
    pub fn schedule_streams(&self) -> Option<Vec<Vec<SchedEvent>>> {
        self.shared.transport.schedule_streams()
    }

    /// True when the recorded streams reflect a fully successful run (no
    /// dead ranks or typed comm errors) and are therefore
    /// required to satisfy the SPMD matching property.
    pub fn schedule_clean(&self) -> bool {
        self.shared.transport.schedule_clean()
    }

    /// Raw tagged point-to-point send (tag space is disjoint from
    /// collective keys). Accepts anything convertible to a [`Payload`];
    /// re-sending a received payload is zero-copy.
    pub fn send(&self, dst: usize, tag: u64, data: impl Into<Payload>) {
        assert!(
            !self.shared.dry,
            "raw point-to-point send is not supported in dry schedule extraction"
        );
        let key = msg_key(u64::MAX, tag, 0);
        self.shared.transport.send(self.rank, dst, key, data);
    }

    /// Raw tagged point-to-point receive.
    pub fn recv(&self, src: usize, tag: u64) -> Payload {
        unwrap_comm(self.try_recv(src, tag))
    }

    /// Fallible tagged point-to-point receive: resolves to
    /// [`CommError::PeerLost`] if `src` is dead or silent past the recv
    /// timeout instead of blocking forever.
    pub fn try_recv(&self, src: usize, tag: u64) -> Result<Payload, CommError> {
        assert!(
            !self.shared.dry,
            "raw point-to-point recv is not supported in dry schedule extraction"
        );
        let key = msg_key(u64::MAX, tag, 0);
        self.shared.transport.recv_result(self.rank, src, key)
    }

    /// Copy `src` into a slab checked out of the world's buffer pool —
    /// the preferred way to build payloads for [`send`](Self::send) and
    /// the pooled async collectives, since the slab is recycled once the
    /// last receiver drops it.
    pub fn pooled_payload(&self, src: &[f32]) -> Payload {
        Payload::copy_pooled(self.shared.transport.pool(), src).0
    }

    /// A `len`-element pooled payload that `fill` writes in place
    /// (starting from zeros), for payloads assembled from pieces: the
    /// slab is the only copy.
    pub fn pooled_payload_with(&self, len: usize, fill: impl FnOnce(&mut [f32])) -> Payload {
        Payload::fill_pooled(self.shared.transport.pool(), len, fill).0
    }

    /// Allocation statistics of the world's slab pool since creation.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.transport.pool().stats()
    }

    /// Blocking all-gather: every member contributes `shard`; returns the
    /// concatenation of all members' shards in group-position order.
    ///
    /// Every member must contribute a shard of the same length — ranks
    /// cannot verify this locally, so a mismatch is caught at receive
    /// time (length assertion on each incoming block), not returned as
    /// a typed error like the [`try_reduce_scatter`](Self::try_reduce_scatter)
    /// divisibility check.
    pub fn all_gather(&self, group: &ProcessGroup, shard: &[f32]) -> Vec<f32> {
        unwrap_comm(self.try_all_gather(group, shard))
    }

    /// Fallible all-gather.
    pub fn try_all_gather(
        &self,
        group: &ProcessGroup,
        shard: &[f32],
    ) -> Result<Vec<f32>, CommError> {
        self.blocking(SchedKind::AllGather, group, None, None, Data::In(shard))
    }

    /// Blocking reduce-scatter (sum): every member contributes a buffer of
    /// identical length divisible by the group size; returns this rank's
    /// chunk (at its group position) of the elementwise sum.
    pub fn reduce_scatter(&self, group: &ProcessGroup, buf: &[f32]) -> Vec<f32> {
        unwrap_comm(self.try_reduce_scatter(group, buf))
    }

    /// Fallible reduce-scatter. Returns
    /// [`CommError::InvalidBuffer`] when the buffer length is not
    /// divisible by the group size (no messages move in that case).
    pub fn try_reduce_scatter(
        &self,
        group: &ProcessGroup,
        buf: &[f32],
    ) -> Result<Vec<f32>, CommError> {
        let sum = Some(ReduceOp::Sum);
        self.blocking(SchedKind::ReduceScatter, group, None, sum, Data::In(buf))
    }

    /// Blocking reduce-scatter (sum) with canonical fold order: every
    /// owner folds the contributions in group-position order, so the bits
    /// are independent of how tensors were packed into the buffer. Same
    /// per-rank volume and cost as [`reduce_scatter`](Self::reduce_scatter).
    pub fn reduce_scatter_linear(&self, group: &ProcessGroup, buf: &[f32]) -> Vec<f32> {
        unwrap_comm(self.try_reduce_scatter_linear(group, buf))
    }

    /// Fallible canonical-order reduce-scatter.
    pub fn try_reduce_scatter_linear(
        &self,
        group: &ProcessGroup,
        buf: &[f32],
    ) -> Result<Vec<f32>, CommError> {
        let sum = Some(ReduceOp::Sum);
        self.blocking(
            SchedKind::ReduceScatterLinear,
            group,
            None,
            sum,
            Data::In(buf),
        )
    }

    /// Blocking all-reduce (sum) with canonical reduction order: linear
    /// reduce-scatter + ring all-gather, so the summation order seen by
    /// every element is the fixed group order — independent of buffer
    /// layout, unlike [`all_reduce`](Self::all_reduce). Any length is
    /// accepted (padded internally).
    pub fn all_reduce_linear(&self, group: &ProcessGroup, buf: &mut [f32]) {
        unwrap_comm(self.try_all_reduce_linear(group, buf))
    }

    /// Fallible canonical-order all-reduce.
    pub fn try_all_reduce_linear(
        &self,
        group: &ProcessGroup,
        buf: &mut [f32],
    ) -> Result<(), CommError> {
        if group.size() == 1 {
            return Ok(());
        }
        let sum = Some(ReduceOp::Sum);
        let kind = SchedKind::AllReduceLinear;
        self.blocking(kind, group, None, sum, Data::InOut(buf))
            .map(drop)
    }

    /// Blocking all-reduce (sum) in place: reduce-scatter + all-gather.
    /// Buffers of any length are accepted (padded internally).
    pub fn all_reduce(&self, group: &ProcessGroup, buf: &mut [f32]) {
        self.all_reduce_op(group, buf, ReduceOp::Sum)
    }

    /// Fallible in-place sum all-reduce.
    pub fn try_all_reduce(&self, group: &ProcessGroup, buf: &mut [f32]) -> Result<(), CommError> {
        self.try_all_reduce_op(group, buf, ReduceOp::Sum)
    }

    /// Blocking elementwise-max all-reduce (used by vocab-parallel
    /// softmax for the numerically stable row maximum).
    pub fn all_reduce_max(&self, group: &ProcessGroup, buf: &mut [f32]) {
        self.all_reduce_op(group, buf, ReduceOp::Max)
    }

    /// Blocking all-reduce with an explicit reduction operator.
    pub fn all_reduce_op(&self, group: &ProcessGroup, buf: &mut [f32], op: ReduceOp) {
        unwrap_comm(self.try_all_reduce_op(group, buf, op))
    }

    /// Fallible all-reduce with an explicit reduction operator.
    pub fn try_all_reduce_op(
        &self,
        group: &ProcessGroup,
        buf: &mut [f32],
        op: ReduceOp,
    ) -> Result<(), CommError> {
        let kind = SchedKind::AllReduce;
        self.blocking(kind, group, None, Some(op), Data::InOut(buf))
            .map(drop)
    }

    /// Blocking broadcast from the member at group position `root_pos`.
    pub fn broadcast(&self, group: &ProcessGroup, root_pos: usize, buf: &mut [f32]) {
        unwrap_comm(self.try_broadcast(group, root_pos, buf))
    }

    /// Fallible broadcast.
    pub fn try_broadcast(
        &self,
        group: &ProcessGroup,
        root_pos: usize,
        buf: &mut [f32],
    ) -> Result<(), CommError> {
        let kind = SchedKind::Broadcast;
        self.blocking(kind, group, Some(root_pos), None, Data::InOut(buf))
            .map(drop)
    }

    /// Block until every group member has arrived.
    pub fn barrier(&self, group: &ProcessGroup) {
        unwrap_comm(self.try_barrier(group))
    }

    /// Fallible barrier: completes only when every member arrived, or
    /// reports the peer that never will.
    pub fn try_barrier(&self, group: &ProcessGroup) -> Result<(), CommError> {
        let token = Data::InOut(&mut [0.0]);
        self.blocking(SchedKind::Barrier, group, None, Some(ReduceOp::Sum), token)
            .map(drop)
    }

    /// The one blocking issue path: select the algorithm for collective
    /// `op` (named by its ring or chain kind), record the issue, run its
    /// step program on this rank and charge it on the compute stream.
    /// Out-of-place collectives return their result; in-place ones write
    /// it back into the buffer and return an empty vector.
    fn blocking(
        &self,
        op: SchedKind,
        group: &ProcessGroup,
        root: Option<usize>,
        reduce: Option<ReduceOp>,
        data: Data<'_>,
    ) -> Result<Vec<f32>, CommError> {
        let elems = match &data {
            Data::In(input) => input.len(),
            Data::InOut(buf) => buf.len(),
        };
        let kind = self.shared.algo.select(op, elems, group.size());
        let seq = self.next_seq(group);
        self.record_issue(kind, group, elems, root, reduce, true, false, seq);
        let program = Program::new(
            kind,
            group.size(),
            group.position_of(self.rank),
            elems,
            root,
            reduce.unwrap_or(ReduceOp::Sum),
            self.shared.transport.pipeline(),
        );
        if self.shared.dry {
            // Symbolic result of the right shape; the divisibility
            // contract still holds, byte for byte on the diagnostic.
            program.check(&self.shared)?;
            return Ok(match data {
                Data::In(_) => vec![0.0; program.result.len()],
                Data::InOut(_) => Vec::new(),
            });
        }
        let _op = self.op_scope(kind.op_name());
        let wall = self.wall_now();
        let mut stats = HopStats::default();
        let (shared, rank) = (&self.shared, self.rank);
        let out = match data {
            Data::In(input) => {
                program::run_on(shared, rank, group, seq, &program, input, &mut stats)?
            }
            Data::InOut(buf) => {
                program::run_in_place(shared, rank, group, seq, &program, buf, &mut stats)?;
                Vec::new()
            }
        };
        let layer = shared.tracer.as_ref().and_then(|t| t.layer());
        charge(
            shared,
            rank,
            group,
            seq,
            kind,
            elems,
            Stream::Compute,
            self.now(),
            layer,
            wall,
            stats,
        )?;
        Ok(out)
    }

    /// Wall-clock timestamp for trace events (0 when not tracing).
    pub(crate) fn wall_now(&self) -> u64 {
        self.shared.tracer.as_ref().map(|t| t.now_ns()).unwrap_or(0)
    }

    /// Mark this rank as inside collective `op` until the guard drops.
    /// The watchdog reads the marker to name the op a stalled rank was
    /// executing; the flight recorder gets entry/exit breadcrumbs.
    pub(crate) fn op_scope(&self, op: &'static str) -> OpScope<'_> {
        self.shared.transport.beats().set_op(self.rank, op);
        #[cfg(not(loom))]
        self.shared
            .transport
            .flight(self.rank)
            .record(axonn_trace::FlightLabel::Enter(op));
        OpScope { comm: self, op }
    }
}

/// The buffer a blocking collective works on.
enum Data<'a> {
    /// Read-only input of an out-of-place collective.
    In(&'a [f32]),
    /// Input that the result overwrites.
    InOut(&'a mut [f32]),
}

/// Charge one finished collective of `kind` over `elems` contributed
/// elements, issued at virtual time `entry`, to this rank's `stream`:
/// synchronise clocks across the group, add the modelled cost (plus any
/// injected link stall pending against this rank), occupy the stream,
/// stamp the live metrics and record the trace span. Returns the
/// completion time (`entry` on untimed worlds).
///
/// [`Stream::Compute`] is the blocking path: it occupies the synchronous
/// stream, holds the compute clock until completion, and its span is the
/// whole compute-stream stall from `entry`. [`Stream::Comm`] is the
/// asynchronous worker: it occupies the asynchronous stream, leaves the
/// compute clock alone (the handle's wait merges it), and its span is the
/// modelled run only.
#[allow(clippy::too_many_arguments)]
pub(crate) fn charge(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    kind: SchedKind,
    elems: usize,
    stream: Stream,
    entry: f64,
    layer: Option<usize>,
    wall_start: u64,
    stats: HopStats,
) -> Result<f64, CommError> {
    let g = group.size();
    if g <= 1 {
        return Ok(entry);
    }
    let op = kind.coll_op();
    let bytes = kind.charged_bytes(elems, g);
    let stamp = |seconds| {
        shared.transport.beats().note_collective(rank);
        if let Some(m) = &shared.metrics {
            m.record_collective(op, bytes, seconds, stats.xfer());
        }
    };
    if !shared.track_time {
        // Untimed worlds still stamp the live plane, with no modelled
        // seconds (and record no trace event).
        stamp(None);
        return Ok(entry);
    }
    let start = clock_sync(shared, rank, group, seq, entry)?;
    let stall = shared.transport.take_stall(rank);
    let chunks = stats.chunks.max(1) as usize;
    let cost = shared
        .cost
        .collective_seconds(kind, g, bytes as f64, chunks)
        + stall;
    let blocking = stream == Stream::Compute;
    let (begin, done) = {
        let mut clock = shared.clock.lock();
        let free = if blocking {
            clock.comm_free_sync
        } else {
            clock.comm_free_async
        };
        let begin = start.max(free);
        let done = begin + cost;
        if blocking {
            clock.comm_free_sync = done;
            clock.now = clock.now.max(done);
        } else {
            clock.comm_free_async = done;
        }
        (begin, done)
    };
    stamp(Some(cost));
    if let Some(tracer) = &shared.tracer {
        tracer.record_xfer(
            stream,
            if blocking { entry } else { begin },
            done,
            wall_start,
            tracer.now_ns(),
            layer,
            EventDetail::Collective {
                op,
                group_size: g,
                bytes,
                seq,
                blocking,
                op_seconds: cost,
            },
            stats.xfer(),
        );
    }
    Ok(done)
}

/// A virtual time as two `f32` lanes holding its `f64` bits, so clocks
/// cross the transport exactly rather than rounded to `f32`.
fn clock_lanes(t: f64) -> Vec<f32> {
    let bits = t.to_bits();
    vec![
        f32::from_bits(bits as u32),
        f32::from_bits((bits >> 32) as u32),
    ]
}

/// Inverse of [`clock_lanes`].
fn clock_value(lanes: &[f32]) -> f64 {
    f64::from_bits(u64::from(lanes[0].to_bits()) | u64::from(lanes[1].to_bits()) << 32)
}

/// Max-reduce the members' clock values: gather to group root, fan out.
pub(crate) fn clock_sync(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    value: f64,
) -> Result<f64, CommError> {
    let gk = group.key();
    let pos = group.position_of(rank);
    let root = group.rank_at(0);
    if pos == 0 {
        let mut maxv = value;
        for p in 1..group.size() {
            let v = shared.transport.recv_result(
                rank,
                group.rank_at(p),
                msg_key(gk, seq, lane::CLOCK_UP),
            )?;
            maxv = maxv.max(clock_value(&v));
        }
        for p in 1..group.size() {
            shared.transport.send(
                rank,
                group.rank_at(p),
                msg_key(gk, seq, lane::CLOCK_DOWN),
                clock_lanes(maxv),
            );
        }
        Ok(maxv)
    } else {
        shared.transport.send(
            rank,
            root,
            msg_key(gk, seq, lane::CLOCK_UP),
            clock_lanes(value),
        );
        let v = shared
            .transport
            .recv_result(rank, root, msg_key(gk, seq, lane::CLOCK_DOWN))?;
        Ok(clock_value(&v))
    }
}

#[cfg(test)]
mod algo_smoke {
    //! Tiny forced-algorithm worlds sized for the miri smoke subset in
    //! CI: every new mailbox lane (RHD, RDAG, TREE_UP, TREE_DOWN) moves
    //! real messages under the interpreter. Correctness at scale lives
    //! in `tests/algo_equivalence.rs`; these only have to be small.

    use crate::algo::{AgAlgo, AlgoPolicy, ArAlgo, BcastAlgo, RsAlgo};
    use crate::comm::{Comm, CommWorld};
    use crate::group::ProcessGroup;
    use std::thread;

    fn run_forced<T: Send + 'static>(
        size: usize,
        policy: AlgoPolicy,
        body: impl Fn(Comm) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let handles: Vec<_> = CommWorld::builder(size)
            .algo(policy)
            .build()
            .into_iter()
            .map(|c| {
                let body = body.clone();
                thread::spawn(move || body(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn rhd_lanes_carry_a_two_rank_all_reduce() {
        let policy = AlgoPolicy {
            force_ar: Some(ArAlgo::Rhd),
            ..AlgoPolicy::default()
        };
        let out = run_forced(2, policy, |c| {
            let g = ProcessGroup::new(vec![0, 1]);
            let mut v = vec![c.rank() as f32; 4];
            c.all_reduce(&g, &mut v);
            v
        });
        assert!(out.iter().all(|v| v == &[1.0; 4]));
    }

    #[test]
    fn tree_lanes_carry_a_three_rank_all_reduce() {
        let policy = AlgoPolicy {
            force_ar: Some(ArAlgo::Tree),
            ..AlgoPolicy::default()
        };
        let out = run_forced(3, policy, |c| {
            let g = ProcessGroup::new(vec![0, 1, 2]);
            let mut v = vec![c.rank() as f32; 2];
            c.all_reduce(&g, &mut v);
            v
        });
        assert!(out.iter().all(|v| v == &[3.0; 2]));
    }

    #[test]
    fn halving_and_doubling_lanes_carry_rs_then_ag() {
        let policy = AlgoPolicy {
            force_rs: Some(RsAlgo::Rh),
            force_ag: Some(AgAlgo::Rd),
            ..AlgoPolicy::default()
        };
        let out = run_forced(2, policy, |c| {
            let g = ProcessGroup::new(vec![0, 1]);
            let mine = c.reduce_scatter(&g, &[1.0, 2.0, 3.0, 4.0]);
            c.all_gather(&g, &mine)
        });
        assert!(out.iter().all(|v| v == &[2.0, 4.0, 6.0, 8.0]));
    }

    #[test]
    fn tree_down_lane_carries_a_broadcast() {
        let policy = AlgoPolicy {
            force_bcast: Some(BcastAlgo::Tree),
            ..AlgoPolicy::default()
        };
        let out = run_forced(3, policy, |c| {
            let g = ProcessGroup::new(vec![0, 1, 2]);
            let mut v = if c.rank() == 1 {
                vec![7.0, 8.0]
            } else {
                vec![0.0; 2]
            };
            c.broadcast(&g, 1, &mut v);
            v
        });
        assert!(out.iter().all(|v| v == &[7.0, 8.0]));
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::{Comm, CommWorld};
    use crate::cost::RingCostModel;
    use crate::group::ProcessGroup;
    use std::sync::Arc;
    use std::thread;

    /// Each rank of a 3-rank timed world computes `flops(rank)`, then
    /// joins one all-reduce of 3072 elements; returns every rank's
    /// (arrival, end) virtual times.
    fn arrive_then_all_reduce(flops: fn(usize) -> f64) -> Vec<(f64, f64)> {
        let handles: Vec<_> = CommWorld::builder(3)
            .cost(Arc::new(RingCostModel::new(3e9, 7e9)))
            .build()
            .into_iter()
            .map(|c: Comm| {
                thread::spawn(move || {
                    c.advance_compute(flops(c.rank()));
                    let arrival = c.now();
                    let mut v = vec![1.0f32; 3072];
                    c.all_reduce(&ProcessGroup::new(vec![0, 1, 2]), &mut v);
                    (arrival, c.now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn clock_sync_carries_virtual_time_exactly() {
        // Arrivals near 1000 s and 4 µs apart: an `f32` ulp there is
        // ~61 µs, so a clock rounded through `f32` loses the order.
        let out = arrive_then_all_reduce(|r| 3e12 + r as f64 * 12e3);
        let cost = arrive_then_all_reduce(|_| 0.0)[0].1;
        assert!(cost > 0.0);
        let latest = out.iter().map(|o| o.0).fold(f64::MIN, f64::max);
        assert_eq!(latest, out[2].0);
        for (rank, &(_, end)) in out.iter().enumerate() {
            assert_eq!(
                end.to_bits(),
                (latest + cost).to_bits(),
                "rank {rank} ends at {end}, latest arrival {latest} + cost {cost}"
            );
        }
    }
}
