//! Per-rank communicators and blocking ring collectives.
//!
//! The collectives are the textbook ring algorithms the paper's model
//! assumes (Assumption-1): reduce-scatter and all-gather move
//! `(g-1)/g · n` bytes per rank in `g-1` steps, and all-reduce is
//! reduce-scatter followed by all-gather (Rabenseifner). Reduction order
//! around the ring is fixed by group order, so results are deterministic
//! (bit-identical across runs for the same grid).
//!
//! Every collective has two faces: the infallible legacy API (panics on a
//! poisoned world or lost peer, preserving PR 1's semantics) and a
//! fallible `try_*` API returning [`CommError`], which is what the
//! fault-tolerant supervisor builds on.

use crate::algo::{AgAlgo, AlgoPolicy, ArAlgo, BcastAlgo, RsAlgo};
use crate::cost::{CollectiveKind, CostModel, NullCost};
use crate::fault::{unwrap_comm, CommError, FaultConfig};
use crate::fold;
use crate::group::ProcessGroup;
use crate::mailbox::{MsgKey, PoisonInfo, Transport};
use crate::pool::{segment_ranges, Payload, PipelineConfig, PoolStats};
use crate::sched::{SchedEvent, SchedKind, SchedOp};
use axonn_trace::{CollOp, EventDetail, Stream, TraceSink, XferStats};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Trace-event op label for a modelled collective kind.
pub(crate) fn coll_op(kind: CollectiveKind) -> CollOp {
    match kind {
        CollectiveKind::AllGather => CollOp::AllGather,
        CollectiveKind::AllGatherRecursiveDoubling => CollOp::AllGatherRd,
        CollectiveKind::ReduceScatter => CollOp::ReduceScatter,
        CollectiveKind::ReduceScatterRecursiveHalving => CollOp::ReduceScatterRh,
        CollectiveKind::AllReduce => CollOp::AllReduce,
        CollectiveKind::AllReduceRecursiveDoubling => CollOp::AllReduceRd,
        CollectiveKind::AllReduceRecursiveHalvingDoubling => CollOp::AllReduceRhd,
        CollectiveKind::AllReduceTree => CollOp::AllReduceTree,
        CollectiveKind::Broadcast => CollOp::Broadcast,
        CollectiveKind::BroadcastTree => CollOp::BroadcastTree,
        // Point-to-point transfers have no dedicated trace op; the
        // barrier label is the closest stand-in and keeps the map total.
        CollectiveKind::Barrier | CollectiveKind::PointToPoint => CollOp::Barrier,
    }
}

/// Virtual-time state of one rank, shared between its main thread and its
/// async communication worker.
#[derive(Debug, Default)]
pub struct ClockState {
    /// Current virtual time of the rank's compute stream.
    pub now: f64,
    /// When the rank's *synchronous* communication stream becomes free
    /// (blocking collectives, issued from the compute thread).
    pub comm_free_sync: f64,
    /// When the rank's *asynchronous* communication stream becomes free
    /// (non-blocking collectives on the communication worker). Separate
    /// streams keep virtual time deterministic regardless of how the OS
    /// interleaves the two threads — mirroring the independent
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
    /// Live metrics facade, present when the telemetry plane is on.
    /// Pre-registered handles: stamping is atomic adds, no allocation.
    pub(crate) metrics: Option<Arc<axonn_trace::LiveCollectives>>,
    /// Message-size-aware algorithm selection policy, resolved once at
    /// world build so every rank selects identically.
    pub(crate) algo: AlgoPolicy,
}

/// A rank's handle to the world: identity, transport, cost model, clock.
///
/// Cloning is cheap (all state is shared); clones are how the async
/// worker thread gets access to the same rank.
#[derive(Clone)]
pub struct Comm {
    rank: usize,
    pub(crate) shared: Arc<CommShared>,
    pub(crate) async_tx: Option<crossbeam::channel::Sender<crate::nonblocking::Job>>,
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
            .record(format!("exit {}", self.op));
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

/// Default recording policy: on in debug builds, off in release, with
/// `AXONN_SCHED_VERIFY=1`/`0` overriding either way.
fn default_recording() -> bool {
    match std::env::var("AXONN_SCHED_VERIFY") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("false") => false,
        Ok(_) => true,
        Err(_) => cfg!(debug_assertions),
    }
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
    /// the build profile (on under `debug_assertions`), overridable with
    /// `AXONN_SCHED_VERIFY=1`/`0`; dry worlds always record.
    pub fn record_schedule(mut self, on: bool) -> Self {
        self.record_schedule = Some(on);
        self
    }

    /// Publish live metrics into `registry` (overriding the default
    /// world-private registry gated by `AXONN_METRICS`). This is how an
    /// observer (`axonnctl monitor`, the watchdog, tests) shares the
    /// registry with the world it is watching.
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
        let record = dry || record_schedule.unwrap_or_else(default_recording);
        let transport = Transport::with_opts_recording(size, faults, pipeline, record);
        // Live metrics: an explicit registry always publishes; otherwise
        // a world-private registry is created unless AXONN_METRICS=0.
        // Dry worlds never stamp (they execute nothing).
        let live = if dry {
            None
        } else {
            match metrics {
                Some(reg) => Some(Arc::new(axonn_trace::LiveCollectives::new(&reg))),
                None if axonn_trace::metrics_enabled() => {
                    Some(Arc::new(axonn_trace::LiveCollectives::new(
                        &axonn_trace::LiveRegistry::new_enabled(true),
                    )))
                }
                None => None,
            }
        };
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
                // Dry worlds never spawn workers: async issues complete
                // eagerly with symbolic results.
                let async_tx =
                    (!dry).then(|| crate::nonblocking::spawn_worker(rank, shared.clone()));
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
/// `lane + step * SEG_STRIDE + segment` by `sub` — up to 256 ring steps of
/// up to 256 pipeline segments.
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

/// Sub-keys per ring step (and therefore the cap on pipeline segments).
pub(crate) const SEG_STRIDE: u32 = 256;

/// Sub-key of pipeline `segment` within ring `step` (lane-relative).
#[inline]
pub(crate) fn sub(step: usize, segment: usize) -> u32 {
    debug_assert!(step < 256, "ring step {step} exceeds key space");
    debug_assert!(
        segment < SEG_STRIDE as usize,
        "segment {segment} exceeds key space"
    );
    step as u32 * SEG_STRIDE + segment as u32
}

/// Per-collective transport statistics gathered by the ring functions:
/// how the payload was segmented and how the slab pool behaved. Kept
/// local to the operation (not read back from the world-wide pool) so
/// concurrent collectives on the compute and comm-worker threads don't
/// smear each other's numbers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HopStats {
    pub(crate) chunks: u32,
    pub(crate) alloc_bytes: u64,
    pub(crate) pool_hits: u64,
    pub(crate) pool_misses: u64,
}

impl HopStats {
    /// Record one hop-buffer checkout of `elems` elements.
    fn note(&mut self, hit: bool, elems: usize) {
        if hit {
            self.pool_hits += 1;
        } else {
            self.pool_misses += 1;
            self.alloc_bytes += (elems * 4) as u64;
        }
    }

    pub(crate) fn xfer(&self) -> XferStats {
        XferStats {
            chunks: self.chunks,
            alloc_bytes: self.alloc_bytes,
            pool_hits: self.pool_hits,
            pool_misses: self.pool_misses,
        }
    }
}

/// Copy `src` into a pooled slab, tallying the checkout into `stats`.
fn pooled(shared: &CommShared, src: &[f32], stats: &mut HopStats) -> Payload {
    let (payload, hit) = Payload::copy_pooled(shared.transport.pool(), src);
    stats.note(hit, src.len());
    payload
}

/// Segment count for a payload of `len` elements under the world's
/// pipeline policy, clamped to the key-space cap.
fn segments(shared: &CommShared, len: usize) -> usize {
    shared
        .transport
        .pipeline()
        .segments_for(len)
        .min(SEG_STRIDE as usize)
}

impl Comm {
    pub fn rank(&self) -> usize {
        self.rank
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

    /// The live registry this world publishes into, when telemetry is
    /// on. Observers snapshot it for JSON / Prometheus exposition.
    pub fn live_registry(&self) -> Option<&axonn_trace::LiveRegistry> {
        self.shared.metrics.as_ref().map(|m| m.registry())
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

    /// Mark the whole world dead because `origin_rank` panicked: every
    /// rank blocked in (or later entering) a collective panics instead
    /// of deadlocking on a peer that will never answer.
    pub fn poison_world(&self, origin_rank: usize, message: String) {
        self.shared.transport.poison(origin_rank, message);
    }

    /// The first recorded failure, if this world was poisoned.
    pub fn poison_info(&self) -> Option<PoisonInfo> {
        self.shared.transport.poison_info()
    }

    /// Declare `rank` dead without poisoning the world: receivers
    /// blocked on it get [`CommError::PeerLost`] while surviving ranks
    /// keep communicating. Used by the supervisor's failure detector.
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

    /// Advance this rank's virtual clock by raw seconds (used by layers
    /// for non-GEMM work they account explicitly).
    pub fn advance_seconds(&self, dt: f64) {
        if self.shared.track_time {
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

    /// True when this communicator belongs to a dry (symbolic) world.
    pub fn is_dry(&self) -> bool {
        self.shared.dry
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

    /// Record an explicit recycle of pooled slab `slab` into this rank's
    /// schedule stream. The clean runtime never calls this (slabs
    /// recycle implicitly when the owning op's payload drops); it exists
    /// for the verifier's defect injectors and lifetime tests. No-op
    /// when schedule recording is off.
    pub fn record_slab_recycle(&self, slab: u64) {
        if self.shared.transport.recording_schedule() {
            self.shared
                .transport
                .record_event(self.rank, SchedEvent::SlabRecycle { slab });
        }
    }

    /// Snapshot of every rank's recorded schedule stream, when this world
    /// records schedules (dry worlds and debug/`AXONN_SCHED_VERIFY=1`
    /// runtime worlds).
    pub fn schedule_streams(&self) -> Option<Vec<Vec<SchedEvent>>> {
        self.shared.transport.schedule_streams()
    }

    /// True when the recorded streams reflect a fully successful run (no
    /// poison, dead ranks, or typed comm errors) and are therefore
    /// required to satisfy the SPMD matching property.
    pub fn schedule_clean(&self) -> bool {
        self.shared.transport.schedule_clean()
    }

    /// Symbolic reduce-scatter result: mirrors the divisibility contract
    /// of the real ring/linear implementations, byte for byte on the
    /// diagnostic, without moving data.
    pub(crate) fn dry_reduce_scatter(
        &self,
        len: usize,
        group: &ProcessGroup,
        op: &'static str,
    ) -> Result<Vec<f32>, CommError> {
        let g = group.size();
        if g == 1 {
            return Ok(vec![0.0; len]);
        }
        if !len.is_multiple_of(g) {
            self.shared.transport.note_error();
            return Err(CommError::InvalidBuffer {
                op,
                detail: format!("length {len} not divisible by group size {g}"),
            });
        }
        Ok(vec![0.0; len / g])
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
        let algo = self.shared.algo.all_gather(shard.len(), group.size());
        let (sched, kind, name) = match algo {
            AgAlgo::Ring => (
                SchedKind::AllGather,
                CollectiveKind::AllGather,
                "all_gather",
            ),
            AgAlgo::Rd => (
                SchedKind::AllGatherRd,
                CollectiveKind::AllGatherRecursiveDoubling,
                "all_gather_rd",
            ),
        };
        let seq = self.next_seq(group);
        self.record_issue(sched, group, shard.len(), None, None, true, false, seq);
        if self.shared.dry {
            return Ok(vec![0.0; shard.len() * group.size()]);
        }
        let _op = self.op_scope(name);
        let wall = self.wall_now();
        let mut stats = HopStats::default();
        let out = match algo {
            AgAlgo::Ring => ring_all_gather(&self.shared, self.rank, group, seq, shard, &mut stats),
            AgAlgo::Rd => rd_all_gather(&self.shared, self.rank, group, seq, shard, &mut stats),
        }?;
        self.charge_blocking(group, seq, kind, (out.len() * 4) as f64, wall, stats)?;
        Ok(out)
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
        let algo = self.shared.algo.reduce_scatter(buf.len(), group.size());
        let (sched, kind, name) = match algo {
            RsAlgo::Ring => (
                SchedKind::ReduceScatter,
                CollectiveKind::ReduceScatter,
                "reduce_scatter",
            ),
            RsAlgo::Rh => (
                SchedKind::ReduceScatterRh,
                CollectiveKind::ReduceScatterRecursiveHalving,
                "reduce_scatter_rh",
            ),
        };
        let seq = self.next_seq(group);
        self.record_issue(
            sched,
            group,
            buf.len(),
            None,
            Some(ReduceOp::Sum),
            true,
            false,
            seq,
        );
        if self.shared.dry {
            return self.dry_reduce_scatter(buf.len(), group, "reduce_scatter");
        }
        let _op = self.op_scope(name);
        let wall = self.wall_now();
        let mut stats = HopStats::default();
        let out = match algo {
            RsAlgo::Ring => {
                ring_reduce_scatter(&self.shared, self.rank, group, seq, buf, &mut stats)
            }
            RsAlgo::Rh => rh_reduce_scatter_op(
                &self.shared,
                self.rank,
                group,
                seq,
                buf,
                ReduceOp::Sum,
                &mut stats,
            ),
        }?;
        self.charge_blocking(group, seq, kind, (buf.len() * 4) as f64, wall, stats)?;
        Ok(out)
    }

    /// Blocking reduce-scatter (sum) with canonical fold order: bits are
    /// independent of how tensors were packed into the buffer (see
    /// [`linear_reduce_scatter`]). Same per-rank volume and cost as
    /// [`reduce_scatter`](Self::reduce_scatter).
    pub fn reduce_scatter_linear(&self, group: &ProcessGroup, buf: &[f32]) -> Vec<f32> {
        unwrap_comm(self.try_reduce_scatter_linear(group, buf))
    }

    /// Fallible canonical-order reduce-scatter.
    pub fn try_reduce_scatter_linear(
        &self,
        group: &ProcessGroup,
        buf: &[f32],
    ) -> Result<Vec<f32>, CommError> {
        let seq = self.next_seq(group);
        self.record_issue(
            SchedKind::ReduceScatterLinear,
            group,
            buf.len(),
            None,
            Some(ReduceOp::Sum),
            true,
            false,
            seq,
        );
        if self.shared.dry {
            return self.dry_reduce_scatter(buf.len(), group, "reduce_scatter_linear");
        }
        let _op = self.op_scope("reduce_scatter");
        let wall = self.wall_now();
        let mut stats = HopStats::default();
        let out = linear_reduce_scatter(&self.shared, self.rank, group, seq, buf, &mut stats)?;
        self.charge_blocking(
            group,
            seq,
            CollectiveKind::ReduceScatter,
            (buf.len() * 4) as f64,
            wall,
            stats,
        )?;
        Ok(out)
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
        let g = group.size();
        if g == 1 {
            return Ok(());
        }
        let seq = self.next_seq(group);
        self.record_issue(
            SchedKind::AllReduceLinear,
            group,
            buf.len(),
            None,
            Some(ReduceOp::Sum),
            true,
            false,
            seq,
        );
        if self.shared.dry {
            return Ok(());
        }
        let _op = self.op_scope("all_reduce");
        let wall = self.wall_now();
        let mut stats = HopStats::default();
        let n = buf.len();
        let mut work = buf.to_vec();
        work.resize(n.div_ceil(g) * g, 0.0);
        let mine = linear_reduce_scatter(&self.shared, self.rank, group, seq, &work, &mut stats)?;
        let full = ring_all_gather(&self.shared, self.rank, group, seq, &mine, &mut stats)?;
        buf.copy_from_slice(&full[..n]);
        self.charge_blocking(
            group,
            seq,
            CollectiveKind::AllReduce,
            (n * 4) as f64,
            wall,
            stats,
        )
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
        let algo = self.shared.algo.all_reduce(buf.len(), group.size());
        let (sched, kind, name) = match algo {
            ArAlgo::Ring => (
                SchedKind::AllReduce,
                CollectiveKind::AllReduce,
                "all_reduce",
            ),
            ArAlgo::Rhd => (
                SchedKind::AllReduceRhd,
                CollectiveKind::AllReduceRecursiveHalvingDoubling,
                "all_reduce_rhd",
            ),
            ArAlgo::Tree => (
                SchedKind::AllReduceTree,
                CollectiveKind::AllReduceTree,
                "all_reduce_tree",
            ),
        };
        let seq = self.next_seq(group);
        self.record_issue(sched, group, buf.len(), None, Some(op), true, false, seq);
        if self.shared.dry {
            return Ok(());
        }
        let _op = self.op_scope(name);
        let wall = self.wall_now();
        let mut stats = HopStats::default();
        match algo {
            ArAlgo::Ring => {
                ring_all_reduce(&self.shared, self.rank, group, seq, buf, op, &mut stats)
            }
            ArAlgo::Rhd => rhd_all_reduce(&self.shared, self.rank, group, seq, buf, op, &mut stats),
            ArAlgo::Tree => {
                tree_all_reduce(&self.shared, self.rank, group, seq, buf, op, &mut stats)
            }
        }?;
        self.charge_blocking(group, seq, kind, (buf.len() * 4) as f64, wall, stats)
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
        let algo = self.shared.algo.broadcast(buf.len(), group.size());
        let (sched, kind, name) = match algo {
            BcastAlgo::Chain => (SchedKind::Broadcast, CollectiveKind::Broadcast, "broadcast"),
            BcastAlgo::Tree => (
                SchedKind::BroadcastTree,
                CollectiveKind::BroadcastTree,
                "broadcast_tree",
            ),
        };
        let seq = self.next_seq(group);
        self.record_issue(
            sched,
            group,
            buf.len(),
            Some(root_pos),
            None,
            true,
            false,
            seq,
        );
        if self.shared.dry {
            return Ok(());
        }
        let _op = self.op_scope(name);
        let wall = self.wall_now();
        let mut stats = HopStats::default();
        match algo {
            BcastAlgo::Chain => ring_broadcast(
                &self.shared,
                self.rank,
                group,
                seq,
                root_pos,
                buf,
                &mut stats,
            ),
            BcastAlgo::Tree => tree_broadcast(
                &self.shared,
                self.rank,
                group,
                seq,
                root_pos,
                buf,
                &mut stats,
            ),
        }?;
        self.charge_blocking(group, seq, kind, (buf.len() * 4) as f64, wall, stats)
    }

    /// Block until every group member has arrived.
    pub fn barrier(&self, group: &ProcessGroup) {
        unwrap_comm(self.try_barrier(group))
    }

    /// Fallible barrier: completes only when every member arrived, or
    /// reports the peer that never will.
    pub fn try_barrier(&self, group: &ProcessGroup) -> Result<(), CommError> {
        let mut token = vec![0.0f32];
        let seq = self.next_seq(group);
        self.record_issue(
            SchedKind::Barrier,
            group,
            1,
            None,
            Some(ReduceOp::Sum),
            true,
            false,
            seq,
        );
        if self.shared.dry {
            return Ok(());
        }
        let _op = self.op_scope("barrier");
        let wall = self.wall_now();
        let mut stats = HopStats::default();
        ring_all_reduce(
            &self.shared,
            self.rank,
            group,
            seq,
            &mut token,
            ReduceOp::Sum,
            &mut stats,
        )?;
        self.charge_blocking(group, seq, CollectiveKind::Barrier, 0.0, wall, stats)
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
            .record(format!("enter {op}"));
        OpScope { comm: self, op }
    }

    /// Stamp one finished blocking/async collective into the live
    /// metrics plane (no-op when telemetry is off). `seconds` carries
    /// the modelled op time on timed worlds.
    pub(crate) fn stamp_metrics(
        &self,
        kind: CollectiveKind,
        bytes: u64,
        seconds: Option<f64>,
        xfer: XferStats,
    ) {
        self.shared.transport.beats().note_collective(self.rank);
        if let Some(m) = &self.shared.metrics {
            m.record_collective(coll_op(kind), bytes, seconds, xfer);
        }
    }

    /// Charge virtual time for a blocking collective: synchronise clocks
    /// across the group, add the modelled cost (plus any injected link
    /// stall pending against this rank), and occupy the comm stream.
    /// Records the full compute-stream stall (entry → completion) as a
    /// blocking collective span when tracing.
    fn charge_blocking(
        &self,
        group: &ProcessGroup,
        seq: u64,
        kind: CollectiveKind,
        bytes: f64,
        wall_start: u64,
        stats: HopStats,
    ) -> Result<(), CommError> {
        if group.size() <= 1 {
            return Ok(());
        }
        if !self.shared.track_time {
            // Untimed worlds still stamp the live plane (no modelled
            // seconds — matching `from_traces`, which only sees timed
            // runs' op_seconds).
            self.stamp_metrics(kind, bytes as u64, None, stats.xfer());
            return Ok(());
        }
        let entry = self.shared.clock.lock().now;
        let start = clock_sync(&self.shared, self.rank, group, seq, entry)?;
        let stall = self.shared.transport.take_stall(self.rank);
        let cost = self.shared.cost.collective_seconds_chunked(
            kind,
            group.size(),
            bytes,
            stats.chunks.max(1) as usize,
        ) + stall;
        let done = {
            let mut clock = self.shared.clock.lock();
            let begin = start.max(clock.comm_free_sync);
            let done = begin + cost;
            clock.comm_free_sync = done;
            clock.now = clock.now.max(done);
            done
        };
        self.stamp_metrics(kind, bytes as u64, Some(cost), stats.xfer());
        if let Some(tracer) = &self.shared.tracer {
            tracer.record_xfer(
                Stream::Compute,
                entry,
                done,
                wall_start,
                tracer.now_ns(),
                tracer.layer(),
                EventDetail::Collective {
                    op: coll_op(kind),
                    group_size: group.size(),
                    bytes: bytes as u64,
                    seq,
                    blocking: true,
                    op_seconds: cost,
                },
                stats.xfer(),
            );
        }
        Ok(())
    }
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
            maxv = maxv.max(v[0] as f64);
        }
        for p in 1..group.size() {
            shared.transport.send(
                rank,
                group.rank_at(p),
                msg_key(gk, seq, lane::CLOCK_DOWN),
                vec![maxv as f32],
            );
        }
        Ok(maxv)
    } else {
        shared.transport.send(
            rank,
            root,
            msg_key(gk, seq, lane::CLOCK_UP),
            vec![value as f32],
        );
        let v = shared
            .transport
            .recv_result(rank, root, msg_key(gk, seq, lane::CLOCK_DOWN))?;
        Ok(v[0] as f64)
    }
}

/// Ring all-gather over a group. `shard` is this rank's contribution;
/// returns all shards concatenated in group-position order.
///
/// Every member must contribute the same shard length (an SPMD contract
/// this rank cannot check locally; violations surface as a per-segment
/// length-mismatch panic at the receiver).
///
/// Each per-step block is segmented into pipeline chunks sent as pooled
/// slabs: sends never block, so segment `j` of step `s` is already on
/// the wire while segment `j-1` is being copied out at the receiver —
/// and each slab is bounded by `shard/S`, which is what lets the pool
/// recycle hop buffers across steps instead of allocating per hop.
pub(crate) fn ring_all_gather(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    shard: &[f32],
    stats: &mut HopStats,
) -> Result<Vec<f32>, CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(shard.to_vec());
    }
    let gk = group.key();
    let pos = group.position_of(rank);
    let next = group.next_of(rank);
    let prev = group.prev_of(rank);
    let chunk = shard.len();
    let segs = segments(shared, chunk);
    stats.chunks = stats.chunks.max(segs as u32);
    let mut out = vec![0.0f32; chunk * g];
    out[pos * chunk..(pos + 1) * chunk].copy_from_slice(shard);
    for s in 0..g - 1 {
        let send_c = (pos + g - s) % g;
        let send_base = send_c * chunk;
        for (j, r) in segment_ranges(chunk, segs).enumerate() {
            let payload = pooled(shared, &out[send_base + r.start..send_base + r.end], stats);
            shared
                .transport
                .send(rank, next, msg_key(gk, seq, lane::AG + sub(s, j)), payload);
        }
        let recv_c = (pos + g - s - 1) % g;
        let recv_base = recv_c * chunk;
        for (j, r) in segment_ranges(chunk, segs).enumerate() {
            let data =
                shared
                    .transport
                    .recv_result(rank, prev, msg_key(gk, seq, lane::AG + sub(s, j)))?;
            assert_eq!(data.len(), r.len(), "all-gather shard length mismatch");
            out[recv_base + r.start..recv_base + r.end].copy_from_slice(&data);
        }
    }
    Ok(out)
}

/// Ring reduce-scatter (sum) over a group. Returns the chunk owned by this
/// rank (chunk index = group position).
pub(crate) fn ring_reduce_scatter(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    buf: &[f32],
    stats: &mut HopStats,
) -> Result<Vec<f32>, CommError> {
    ring_reduce_scatter_op(shared, rank, group, seq, buf, ReduceOp::Sum, stats)
}

/// Ring reduce-scatter with an explicit reduction operator.
///
/// The buffer length must be divisible by the group size; an indivisible
/// length is rejected with [`CommError::InvalidBuffer`] *before* any
/// message moves (the seed transport silently assumed divisibility).
/// Segmentation follows the same pipeline policy as all-gather; the
/// elementwise reduction order around the ring is unchanged by it, so
/// results stay bit-identical to the unsegmented reference.
pub(crate) fn ring_reduce_scatter_op(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    buf: &[f32],
    op: ReduceOp,
    stats: &mut HopStats,
) -> Result<Vec<f32>, CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(buf.to_vec());
    }
    if !buf.len().is_multiple_of(g) {
        shared.transport.note_error();
        return Err(CommError::InvalidBuffer {
            op: "reduce_scatter",
            detail: format!("length {} not divisible by group size {g}", buf.len()),
        });
    }
    let gk = group.key();
    let pos = group.position_of(rank);
    let next = group.next_of(rank);
    let prev = group.prev_of(rank);
    let chunk = buf.len() / g;
    let segs = segments(shared, chunk);
    stats.chunks = stats.chunks.max(segs as u32);
    let mut work = buf.to_vec();
    for s in 0..g - 1 {
        // Logical chunk indices: after g-1 steps this rank owns chunk
        // `pos`, fully reduced around the ring.
        let send_c = (pos + 2 * g - s - 1) % g;
        let send_base = send_c * chunk;
        for (j, r) in segment_ranges(chunk, segs).enumerate() {
            let payload = pooled(shared, &work[send_base + r.start..send_base + r.end], stats);
            shared
                .transport
                .send(rank, next, msg_key(gk, seq, lane::RS + sub(s, j)), payload);
        }
        let recv_c = (pos + 2 * g - s - 2) % g;
        let recv_base = recv_c * chunk;
        for (j, r) in segment_ranges(chunk, segs).enumerate() {
            let data =
                shared
                    .transport
                    .recv_result(rank, prev, msg_key(gk, seq, lane::RS + sub(s, j)))?;
            assert_eq!(data.len(), r.len(), "reduce-scatter chunk length mismatch");
            fold::fold_op(op, &mut work[recv_base + r.start..recv_base + r.end], &data);
        }
    }
    Ok(work[pos * chunk..(pos + 1) * chunk].to_vec())
}

/// Direct-exchange reduce-scatter (sum) with a *canonical* fold order:
/// every member sends its slice `o` straight to the member at group
/// position `o`, which folds the `g` contributions in fixed
/// group-position order `((c_0 + c_1) + c_2) + …`. Ring reduce-scatter
/// instead folds in ring order — a rotation of the group order that
/// differs per owned chunk — so its bits depend on how tensors are
/// packed into the buffer. The gradient bucketizer relies on this
/// layout independence to stay bit-identical to the per-tensor oracle
/// for any bucket geometry.
///
/// Per-rank volume matches the ring algorithm (`(g-1)/g · n` bytes sent
/// and received), so callers charge it as a regular reduce-scatter.
pub(crate) fn linear_reduce_scatter(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    buf: &[f32],
    stats: &mut HopStats,
) -> Result<Vec<f32>, CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(buf.to_vec());
    }
    if !buf.len().is_multiple_of(g) {
        shared.transport.note_error();
        return Err(CommError::InvalidBuffer {
            op: "reduce_scatter_linear",
            detail: format!("length {} not divisible by group size {g}", buf.len()),
        });
    }
    let gk = group.key();
    let pos = group.position_of(rank);
    let chunk = buf.len() / g;
    let segs = segments(shared, chunk);
    stats.chunks = stats.chunks.max(segs as u32);
    // All sends first (the transport never blocks on send), then receive
    // in group-position order so the fold order is the same on every
    // owner regardless of arrival order.
    for o in 0..g {
        if o == pos {
            continue;
        }
        let base = o * chunk;
        for (j, r) in segment_ranges(chunk, segs).enumerate() {
            let payload = pooled(shared, &buf[base + r.start..base + r.end], stats);
            shared.transport.send(
                rank,
                group.rank_at(o),
                msg_key(gk, seq, lane::LRS + j as u32),
                payload,
            );
        }
    }
    let own = &buf[pos * chunk..(pos + 1) * chunk];
    let mut acc = vec![0.0f32; chunk];
    let mut first = true;
    for p in 0..g {
        if p == pos {
            if first {
                acc.copy_from_slice(own);
            } else {
                fold::fold_sum(&mut acc, own);
            }
        } else {
            for (j, r) in segment_ranges(chunk, segs).enumerate() {
                let data = shared.transport.recv_result(
                    rank,
                    group.rank_at(p),
                    msg_key(gk, seq, lane::LRS + j as u32),
                )?;
                assert_eq!(data.len(), r.len(), "linear reduce-scatter length mismatch");
                if first {
                    acc[r].copy_from_slice(&data);
                } else {
                    fold::fold_sum(&mut acc[r], &data);
                }
            }
        }
        first = false;
    }
    Ok(acc)
}

/// Ring all-reduce (sum) in place: pad to a multiple of the group size,
/// reduce-scatter, all-gather, truncate.
pub(crate) fn ring_all_reduce(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    buf: &mut [f32],
    op: ReduceOp,
    stats: &mut HopStats,
) -> Result<(), CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(());
    }
    let n = buf.len();
    let padded = n.div_ceil(g) * g;
    let mut work = buf.to_vec();
    // Padding must be the identity of the reduction operator.
    let pad = match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Max => f32::NEG_INFINITY,
    };
    work.resize(padded, pad);
    let mine = ring_reduce_scatter_op(shared, rank, group, seq, &work, op, stats)?;
    let full = ring_all_gather(shared, rank, group, seq, &mine, stats)?;
    buf.copy_from_slice(&full[..n]);
    Ok(())
}

/// Broadcast from group position `root_pos` as a chunk-pipelined chain
/// around the ring: the root segments the buffer into pooled payloads
/// and streams them to its successor; every other rank forwards each
/// segment to the next rank (an `Arc` clone — the slab is never copied
/// on the wire) *before* unpacking it locally, so segment `j` travels
/// hop `k+1` while segment `j+1` travels hop `k`. The seed transport
/// instead star-fanned one full copy of the buffer per receiver from the
/// root; the chain matches the pipelined cost the model charges.
pub(crate) fn ring_broadcast(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    root_pos: usize,
    buf: &mut [f32],
    stats: &mut HopStats,
) -> Result<(), CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(());
    }
    let gk = group.key();
    let pos = group.position_of(rank);
    let segs = segments(shared, buf.len());
    stats.chunks = stats.chunks.max(segs as u32);
    // Distance from the root along the chain; the rank at distance g-1
    // is the tail and forwards nothing.
    let dist = (pos + g - root_pos) % g;
    let next = group.rank_at((pos + 1) % g);
    let prev = group.rank_at((pos + g - 1) % g);
    if dist == 0 {
        for (j, r) in segment_ranges(buf.len(), segs).enumerate() {
            let payload = pooled(shared, &buf[r], stats);
            shared.transport.send(
                rank,
                next,
                msg_key(gk, seq, lane::BCAST + j as u32),
                payload,
            );
        }
    } else {
        for (j, r) in segment_ranges(buf.len(), segs).enumerate() {
            let key = msg_key(gk, seq, lane::BCAST + j as u32);
            let data = shared.transport.recv_result(rank, prev, key)?;
            if dist + 1 < g {
                // Forward before unpacking: zero-copy, and the next hop
                // overlaps this rank's local copy.
                shared.transport.send(rank, next, key, data.clone());
            }
            assert_eq!(data.len(), r.len(), "broadcast length mismatch");
            buf[r].copy_from_slice(&data);
        }
    }
    Ok(())
}

/// Recursive-halving reduce-scatter: at step `s` the window of chunk
/// indices this rank still owns is halved — it sends the half its
/// partner keeps (the partner sits `window/2` positions away) and folds
/// the partner's contribution into the half it keeps. `⌈log2 g⌉` steps
/// at the ring's bandwidth-optimal volume (`n/2 + n/4 + … = (g-1)/g·n`
/// per rank). Power-of-two groups only; callers guarantee this via
/// [`AlgoPolicy`] selection.
///
/// Fold order per element: this rank's running value folds the incoming
/// half as `own = op(own, incoming)` at every step — a fixed order the
/// serial replay oracle in [`crate::reference`] reproduces exactly.
pub(crate) fn rh_reduce_scatter_op(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    buf: &[f32],
    op: ReduceOp,
    stats: &mut HopStats,
) -> Result<Vec<f32>, CommError> {
    let mut work = buf.to_vec();
    let mine = rh_reduce_scatter_inplace(shared, rank, group, seq, &mut work, op, stats)?;
    Ok(work[mine].to_vec())
}

/// Scratch-free core of the recursive halving: folds in place on `work`
/// and returns the element range of the chunk this rank owns at the
/// end. Lets the halving/doubling all-reduce run without cloning the
/// full buffer.
pub(crate) fn rh_reduce_scatter_inplace(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    work: &mut [f32],
    op: ReduceOp,
    stats: &mut HopStats,
) -> Result<std::ops::Range<usize>, CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(0..work.len());
    }
    if !work.len().is_multiple_of(g) {
        shared.transport.note_error();
        return Err(CommError::InvalidBuffer {
            op: "reduce_scatter",
            detail: format!("length {} not divisible by group size {g}", work.len()),
        });
    }
    assert!(
        g.is_power_of_two(),
        "recursive halving needs a power-of-two group"
    );
    // Whole-block exchanges serving the latency-bound regime: never
    // segmented.
    stats.chunks = stats.chunks.max(1);
    let gk = group.key();
    let pos = group.position_of(rank);
    let chunk = work.len() / g;
    // Window of chunk indices this rank still accumulates: [lo, lo+span).
    let mut lo = 0usize;
    let mut span = g;
    let mut s = 0usize;
    while span > 1 {
        let half = span / 2;
        let mid = lo + half;
        let in_lower = pos < mid;
        let partner_pos = if in_lower { pos + half } else { pos - half };
        let partner = group.rank_at(partner_pos);
        let (keep, send) = if in_lower {
            (lo * chunk..mid * chunk, mid * chunk..(lo + span) * chunk)
        } else {
            (mid * chunk..(lo + span) * chunk, lo * chunk..mid * chunk)
        };
        let key = msg_key(gk, seq, lane::RHD + sub(s, 0));
        let payload = pooled(shared, &work[send], stats);
        shared.transport.send(rank, partner, key, payload);
        let data = shared.transport.recv_result(rank, partner, key)?;
        assert_eq!(data.len(), keep.len(), "recursive-halving length mismatch");
        fold::fold_op(op, &mut work[keep], &data);
        if in_lower {
            span = half;
        } else {
            lo = mid;
            span = half;
        }
        s += 1;
    }
    Ok(pos * chunk..(pos + 1) * chunk)
}

/// Recursive-doubling all-gather: at step `s` (distance `d = 2^s`) every
/// rank exchanges its aligned block of `d` chunks with the partner at
/// position `pos XOR d`, doubling the assembled block. `⌈log2 g⌉` steps
/// at the ring's volume (`n + 2n + … = (g-1)·shard` per rank).
/// Power-of-two groups only; pure data movement, so results are
/// bit-identical to the ring for any inputs.
pub(crate) fn rd_all_gather(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    shard: &[f32],
    stats: &mut HopStats,
) -> Result<Vec<f32>, CommError> {
    let mut out = vec![0.0f32; shard.len() * group.size()];
    rd_all_gather_into(shared, rank, group, seq, shard, &mut out, stats)?;
    Ok(out)
}

/// Scratch-free core of the recursive doubling: assembles the gathered
/// result directly into `out` (length `shard.len() * g`). Lets the
/// halving/doubling all-reduce gather straight into the caller's buffer
/// instead of allocating a fresh one per call.
pub(crate) fn rd_all_gather_into(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    shard: &[f32],
    out: &mut [f32],
    stats: &mut HopStats,
) -> Result<(), CommError> {
    let g = group.size();
    assert_eq!(out.len(), shard.len() * g, "all-gather output length");
    if g == 1 {
        out.copy_from_slice(shard);
        return Ok(());
    }
    assert!(
        g.is_power_of_two(),
        "recursive doubling needs a power-of-two group"
    );
    stats.chunks = stats.chunks.max(1);
    let gk = group.key();
    let pos = group.position_of(rank);
    let chunk = shard.len();
    out[pos * chunk..(pos + 1) * chunk].copy_from_slice(shard);
    let mut d = 1usize;
    let mut s = 0usize;
    while d < g {
        // This rank holds the aligned block [base, base+d); the partner
        // holds the sibling block [base XOR d, …).
        let base = pos & !(d - 1);
        let partner = group.rank_at(pos ^ d);
        let key = msg_key(gk, seq, lane::RDAG + sub(s, 0));
        let payload = pooled(shared, &out[base * chunk..(base + d) * chunk], stats);
        shared.transport.send(rank, partner, key, payload);
        let data = shared.transport.recv_result(rank, partner, key)?;
        assert_eq!(
            data.len(),
            d * chunk,
            "recursive-doubling all-gather length mismatch"
        );
        let rbase = base ^ d;
        out[rbase * chunk..(rbase + d) * chunk].copy_from_slice(&data);
        d <<= 1;
        s += 1;
    }
    Ok(())
}

/// Recursive halving/doubling all-reduce (Rabenseifner over hypercube
/// exchanges): pad to a multiple of the group size with the operator
/// identity, recursive-halving reduce-scatter, recursive-doubling
/// all-gather, truncate. `2⌈log2 g⌉` messages per rank at the ring
/// all-reduce's bandwidth-optimal volume — the medium-payload winner
/// when the per-message cost dominates. Power-of-two groups only.
pub(crate) fn rhd_all_reduce(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    buf: &mut [f32],
    op: ReduceOp,
    stats: &mut HopStats,
) -> Result<(), CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(());
    }
    let n = buf.len();
    if n.is_multiple_of(g) {
        // Divisible fast path: halve in place on the caller's buffer and
        // gather straight back into it; the only scratch is the owned
        // chunk (aliasing: the gather reads the shard while rewriting
        // `buf`).
        let mine = rh_reduce_scatter_inplace(shared, rank, group, seq, buf, op, stats)?;
        let shard = buf[mine].to_vec();
        return rd_all_gather_into(shared, rank, group, seq, &shard, buf, stats);
    }
    let padded = n.div_ceil(g) * g;
    let mut work = buf.to_vec();
    let pad = match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Max => f32::NEG_INFINITY,
    };
    work.resize(padded, pad);
    let mine = rh_reduce_scatter_op(shared, rank, group, seq, &work, op, stats)?;
    let full = rd_all_gather(shared, rank, group, seq, &mine, stats)?;
    buf.copy_from_slice(&full[..n]);
    Ok(())
}

/// Binomial-tree all-reduce: reduce the whole buffer up the tree to the
/// member at group position 0, then tree-broadcast the result back down.
/// `2⌈log2 g⌉` hops on the critical path but `log2(g)·n` volume per
/// phase — the small-payload winner where the α term dominates. Any
/// group size.
///
/// Reduce fold order: at step `s` (mask `2^s`) the rank at position
/// `p` with `p mod 2^(s+1) == 0` folds the accumulated buffer of
/// `p + 2^s` (when present) as `own = op(own, incoming)` — reproduced
/// serially by the oracle in [`crate::reference`].
pub(crate) fn tree_all_reduce(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    buf: &mut [f32],
    op: ReduceOp,
    stats: &mut HopStats,
) -> Result<(), CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(());
    }
    stats.chunks = stats.chunks.max(1);
    let gk = group.key();
    let pos = group.position_of(rank);
    let mut mask = 1usize;
    let mut s = 0usize;
    while mask < g {
        if pos & mask != 0 {
            // Hand the accumulated buffer to the parent and leave the
            // reduce phase.
            let parent = group.rank_at(pos - mask);
            let key = msg_key(gk, seq, lane::TREE_UP + sub(s, 0));
            let payload = pooled(shared, buf, stats);
            shared.transport.send(rank, parent, key, payload);
            break;
        }
        if pos + mask < g {
            let child = group.rank_at(pos + mask);
            let key = msg_key(gk, seq, lane::TREE_UP + sub(s, 0));
            let data = shared.transport.recv_result(rank, child, key)?;
            assert_eq!(data.len(), buf.len(), "tree all-reduce length mismatch");
            fold::fold_op(op, buf, &data);
        }
        mask <<= 1;
        s += 1;
    }
    // Fan the root's result back out.
    tree_broadcast(shared, rank, group, seq, 0, buf, stats)
}

/// Binomial-tree broadcast from group position `root_pos`: with
/// positions renumbered so the root is virtual rank 0, virtual rank `v`
/// receives from `v - 2^⌊log2 v⌋` at step `⌊log2 v⌋` and then sends to
/// `v + 2^k` for each higher step `k` while that child exists.
/// `⌈log2 g⌉` hops on the critical path; any group size.
pub(crate) fn tree_broadcast(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    root_pos: usize,
    buf: &mut [f32],
    stats: &mut HopStats,
) -> Result<(), CommError> {
    let g = group.size();
    if g == 1 {
        return Ok(());
    }
    stats.chunks = stats.chunks.max(1);
    let gk = group.key();
    let pos = group.position_of(rank);
    let v = (pos + g - root_pos) % g;
    let recv_step = if v == 0 {
        None
    } else {
        Some(v.ilog2() as usize)
    };
    if let Some(s) = recv_step {
        let parent_v = v - (1 << s);
        let parent = group.rank_at((parent_v + root_pos) % g);
        let key = msg_key(gk, seq, lane::TREE_DOWN + sub(s, 0));
        let data = shared.transport.recv_result(rank, parent, key)?;
        assert_eq!(data.len(), buf.len(), "tree broadcast length mismatch");
        buf.copy_from_slice(&data);
    }
    let mut k = recv_step.map(|s| s + 1).unwrap_or(0);
    while v + (1 << k) < g {
        let child_v = v + (1 << k);
        let child = group.rank_at((child_v + root_pos) % g);
        let key = msg_key(gk, seq, lane::TREE_DOWN + sub(k, 0));
        let payload = pooled(shared, buf, stats);
        shared.transport.send(rank, child, key, payload);
        k += 1;
    }
    Ok(())
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
