//! Non-blocking collectives: the NCCL/RCCL asynchronous semantics that
//! AxoNN's overlap optimizations (OAR, ORS, OAG — Section V-D) depend on.
//!
//! Each rank runs its issued operations in issue order on one
//! *communication stream*, placed when the world is built from the
//! rank's core share ([`crate::rank_core_share`], the count `axonn-exec`
//! sizes each rank's kernel pool by). A rank with two or more cores owns
//! a *communication worker* thread, mirroring a GPU's communication
//! stream: programs run concurrently with the issuing thread's compute.
//! A rank with one core spawns no worker — it could only time-slice with
//! its own rank's compute — and runs each program on the issuing thread
//! at issue. Either way an issued operation returns an
//! [`AsyncHandle`]; `wait` blocks until completion and merges the
//! operation's virtual completion time into the rank's clock. The
//! program is charged to the asynchronous stream from its issue clock
//! whichever thread runs it, so virtual time, fold order and per-link
//! message sequences do not depend on the placement, and overlap
//! reduces virtual batch time exactly when it reduces non-overlapped
//! communication. Both placements run the same selection, step
//! programs, executor and charge as the blocking calls.

use crate::comm::{charge, coll_op, Comm, CommShared, ReduceOp};
use crate::fault::{unwrap_comm, CommError};
use crate::group::ProcessGroup;
use crate::pool::Payload;
use crate::program::{self, HopStats, Program};
use crate::sched::{SchedEvent, SchedKind};
use axonn_trace::{EventDetail, Stream};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;

/// A collective to run asynchronously, carrying its input payload.
///
/// Payloads are reference-counted ([`Payload`]), so issuing an async
/// collective hands the worker a view of the caller's buffer without
/// materialising an intermediate `Vec` — `From<Vec<f32>>` keeps the old
/// call shape working, and [`Comm::pooled_payload`] builds slabs that
/// return to the world's pool.
#[derive(Debug, Clone)]
pub enum AsyncOp {
    /// In-place sum all-reduce of the buffer.
    AllReduce(Payload),
    /// Sum reduce-scatter; result is this rank's chunk.
    ReduceScatter(Payload),
    /// Sum reduce-scatter with canonical (layout-independent) fold
    /// order — same cost and volume as `ReduceScatter`, different
    /// summation order (see `Comm::reduce_scatter_linear`).
    ReduceScatterLinear(Payload),
    /// All-gather of this rank's shard; result is the concatenation.
    AllGather(Payload),
}

impl AsyncOp {
    /// The collective asked for, named by its ring (or canonical-order)
    /// kind — the input to `AlgoPolicy::select`.
    fn collective(&self) -> SchedKind {
        match self {
            AsyncOp::AllReduce(_) => SchedKind::AllReduce,
            AsyncOp::ReduceScatter(_) => SchedKind::ReduceScatter,
            AsyncOp::ReduceScatterLinear(_) => SchedKind::ReduceScatterLinear,
            AsyncOp::AllGather(_) => SchedKind::AllGather,
        }
    }

    fn payload(&self) -> &Payload {
        match self {
            AsyncOp::AllReduce(p)
            | AsyncOp::ReduceScatter(p)
            | AsyncOp::ReduceScatterLinear(p)
            | AsyncOp::AllGather(p) => p,
        }
    }
}

/// What an asynchronous collective resolves to: its result buffer and
/// virtual completion time, or the typed failure of its ring path.
type JobResult = Result<(Vec<f32>, f64), CommError>;

pub(crate) struct Job {
    group: ProcessGroup,
    op: AsyncOp,
    /// Effective algorithm, resolved at issue time (the program must
    /// execute exactly what was recorded in the schedule stream).
    kind: SchedKind,
    seq: u64,
    issue_clock: f64,
    /// Layer scope at issue time, stamped onto the execution span so
    /// overlap reports attribute hidden time to the issuing layer.
    layer: Option<usize>,
}

/// Where an issued operation's result comes from.
enum Completion {
    /// Ran at issue: on the issuing thread of a rank without a worker,
    /// or synthesised symbolically in a dry world.
    Ready(JobResult),
    /// Queued on the rank's communication worker.
    Worker(Receiver<JobResult>),
}

/// Handle to an in-flight asynchronous collective.
pub struct AsyncHandle {
    completion: Completion,
    rank: usize,
    shared: Arc<CommShared>,
    kind: SchedKind,
    seq: u64,
    group_key: u64,
    group_size: usize,
}

impl AsyncHandle {
    /// Block until the collective completes; returns its result buffer.
    /// Advances the rank's virtual clock to the operation's completion
    /// time if it finished later than the compute stream.
    ///
    /// # Panics
    /// On a poisoned world (legacy message format) or a lost peer; the
    /// fallible variant is [`try_wait`](Self::try_wait).
    pub fn wait(self) -> Vec<f32> {
        unwrap_comm(self.try_wait())
    }

    /// Block until the collective completes or its ring path fails with
    /// a typed [`CommError`].
    pub fn try_wait(self) -> Result<Vec<f32>, CommError> {
        // Size-1 groups leave no Issue events (see `Comm::record_issue`),
        // so their waits must stay invisible too.
        if self.group_size > 1 && self.shared.transport.recording_schedule() {
            self.shared.transport.record_event(
                self.rank,
                SchedEvent::Wait {
                    group_key: self.group_key,
                    seq: self.seq,
                },
            );
        }
        if let Some(info) = self.shared.transport.poison_info() {
            return Err(CommError::Poisoned(info));
        }
        let wall_start = self.shared.tracer.as_ref().map_or(0, |t| t.now_ns());
        let (result, completion) = match self.completion {
            Completion::Ready(outcome) => outcome?,
            Completion::Worker(rx) => match rx.recv() {
                Ok(outcome) => outcome?,
                Err(_) => {
                    // The worker died; if the world was poisoned, report
                    // the original failure rather than the secondary
                    // symptom.
                    return Err(match self.shared.transport.poison_info() {
                        Some(info) => CommError::Poisoned(info),
                        None => CommError::PeerLost {
                            peer: self.rank,
                            detail: "async collective worker terminated before completing".into(),
                        },
                    });
                }
            },
        };
        if self.shared.track_time {
            let (gap_start, gap_end) = {
                let mut clock = self.shared.clock.lock();
                let start = clock.now;
                clock.now = clock.now.max(completion);
                (start, clock.now)
            };
            if self.group_size > 1 {
                if let Some(m) = &self.shared.metrics {
                    m.record_wait(gap_end - gap_start);
                }
            }
            if let Some(tracer) = self.shared.tracer.as_ref().filter(|_| self.group_size > 1) {
                tracer.record(
                    Stream::Compute,
                    gap_start,
                    gap_end,
                    wall_start,
                    tracer.now_ns(),
                    tracer.layer(),
                    EventDetail::OverlapWait {
                        op: coll_op(self.kind.collective_kind()),
                        seq: self.seq,
                    },
                );
            }
        }
        Ok(result)
    }
}

impl Comm {
    /// Issue an asynchronous collective on this rank's communication
    /// stream. All group members must issue the matching operation (in
    /// the same program order, as in SPMD code).
    pub fn start_async(&self, group: &ProcessGroup, op: AsyncOp) -> AsyncHandle {
        self.shared.transport.check_poison();
        let elems = op.payload().len();
        let kind = self
            .shared
            .algo
            .select(op.collective(), elems, group.size());
        let seq = self.next_seq(group);
        // Buffer-identity annotations for the verifier: the payload's id
        // is the logical buffer this op's overlap window covers, and its
        // slab id (pooled payloads only) keys the lifetime analysis.
        self.record_issue_tagged(
            kind,
            group,
            elems,
            None,
            match op {
                AsyncOp::AllGather(_) => None,
                _ => Some(ReduceOp::Sum),
            },
            false,
            op.payload().is_pooled(),
            seq,
            Some(op.payload().buffer_id()),
            op.payload().slab_id(),
        );
        let handle = |completion| AsyncHandle {
            completion,
            rank: self.rank(),
            shared: self.shared.clone(),
            kind,
            seq,
            group_key: group.key(),
            group_size: group.size(),
        };
        if self.shared.dry {
            // Dry worlds move no message: synthesise the symbolic
            // (zero-filled) result at issue, preserving the real API's
            // issue/wait shape for schedule extraction.
            let program = job_program(&self.shared, self.rank(), group, kind, elems);
            let result = program.check(&self.shared);
            return handle(Completion::Ready(
                result.map(|()| (vec![0.0; program.result.len()], 0.0)),
            ));
        }
        let issue_clock = if self.shared.track_time {
            self.shared.clock.lock().now
        } else {
            0.0
        };
        let layer = self.shared.tracer.as_ref().and_then(|t| t.layer());
        // Size-1 groups move no data; keep them out of the trace so an
        // event exists iff the op really communicates (the blocking path
        // skips them too).
        if let Some(tracer) = self.tracer().filter(|_| group.size() > 1) {
            tracer.mark(
                Stream::Compute,
                issue_clock,
                EventDetail::Issue {
                    op: coll_op(kind.collective_kind()),
                    group_size: group.size(),
                    bytes: kind.charged_bytes(elems, group.size()),
                    seq,
                },
            );
        }
        let job = Job {
            group: group.clone(),
            op,
            kind,
            seq,
            issue_clock,
            layer,
        };
        handle(match &self.async_tx {
            Some(worker) => {
                let (reply, rx) = unbounded();
                worker.send((job, reply)).expect("async worker terminated");
                Completion::Worker(rx)
            }
            // One core, no worker: run the program here, now.
            None => Completion::Ready(run_job(self.rank(), &self.shared, job)),
        })
    }

    /// Convenience: asynchronous in-place all-reduce.
    pub fn iall_reduce(&self, group: &ProcessGroup, buf: impl Into<Payload>) -> AsyncHandle {
        self.start_async(group, AsyncOp::AllReduce(buf.into()))
    }

    /// Convenience: asynchronous reduce-scatter.
    pub fn ireduce_scatter(&self, group: &ProcessGroup, buf: impl Into<Payload>) -> AsyncHandle {
        self.start_async(group, AsyncOp::ReduceScatter(buf.into()))
    }

    /// Convenience: asynchronous all-gather.
    pub fn iall_gather(&self, group: &ProcessGroup, shard: impl Into<Payload>) -> AsyncHandle {
        self.start_async(group, AsyncOp::AllGather(shard.into()))
    }

    /// Asynchronous all-gather of a borrowed shard via a pooled slab:
    /// no intermediate `Vec` is materialised at the call site and the
    /// slab returns to the world's pool after the collective consumes
    /// it.
    pub fn iall_gather_pooled(&self, group: &ProcessGroup, shard: &[f32]) -> AsyncHandle {
        let payload = self.pooled_payload(shard);
        self.start_async(group, AsyncOp::AllGather(payload))
    }

    /// Asynchronous canonical-order reduce-scatter of a borrowed buffer
    /// via a pooled slab — the bucket-granular primitive of the gradient
    /// sync pipeline.
    pub fn ireduce_scatter_linear_pooled(&self, group: &ProcessGroup, buf: &[f32]) -> AsyncHandle {
        let payload = self.pooled_payload(buf);
        self.start_async(group, AsyncOp::ReduceScatterLinear(payload))
    }
}

/// The step program `rank` runs for an asynchronous (sum) collective.
fn job_program(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    kind: SchedKind,
    elems: usize,
) -> Program {
    let pos = group.position_of(rank);
    let pipeline = shared.transport.pipeline();
    Program::new(
        kind,
        group.size(),
        pos,
        elems,
        None,
        ReduceOp::Sum,
        pipeline,
    )
}

/// A rank's queue of jobs for its communication worker, each with the
/// channel its result goes back on.
pub(crate) type WorkerQueue = Sender<(Job, Sender<JobResult>)>;

/// Spawn the communication worker for `rank`. Returns the job queue; the
/// worker exits when every `Comm` clone for the rank has been dropped.
pub(crate) fn spawn_worker(rank: usize, shared: Arc<CommShared>) -> WorkerQueue {
    let (tx, rx) = unbounded::<(Job, Sender<JobResult>)>();
    std::thread::Builder::new()
        .name(format!("axonn-comm-{rank}"))
        .spawn(move || {
            while let Ok((job, reply)) = rx.recv() {
                // Receiver may have been dropped (fire-and-forget);
                // that's fine.
                let _ = reply.send(run_job(rank, &shared, job));
            }
        })
        .expect("failed to spawn communication worker");
    tx
}

/// Run one issued job's program and charge it to the asynchronous
/// stream from its issue clock — on the worker, or inline at issue.
fn run_job(rank: usize, shared: &CommShared, job: Job) -> JobResult {
    let Job {
        group,
        op,
        kind,
        seq,
        issue_clock,
        layer,
    } = job;
    let wall_start = shared.tracer.as_ref().map(|t| t.now_ns()).unwrap_or(0);
    // Watchdog marker: the rank is inside this collective until the job
    // resolves (cleared below, error or not).
    shared.transport.beats().set_op(rank, kind.op_name());
    let outcome = (|| -> JobResult {
        let elems = op.payload().len();
        let program = job_program(shared, rank, &group, kind, elems);
        let mut stats = HopStats::default();
        let result = match op {
            AsyncOp::AllReduce(payload) => {
                // Zero-copy when the caller's handle was the last
                // reference; otherwise one copy into a work buffer.
                let mut buf = payload.into_vec();
                program::run_in_place(shared, rank, &group, seq, &program, &mut buf, &mut stats)?;
                buf
            }
            other => {
                let input = other.payload();
                program::run_on(shared, rank, &group, seq, &program, input, &mut stats)?
            }
        };
        let completion = charge(
            shared,
            rank,
            &group,
            seq,
            kind,
            elems,
            Stream::Comm,
            issue_clock,
            layer,
            wall_start,
            stats,
        )?;
        Ok((result, completion))
    })();
    shared.transport.beats().clear_op(rank);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use crate::cost::RingCostModel;
    use std::thread;

    fn run_world<F, T>(n: usize, f: F) -> Vec<T>
    where
        F: Fn(Comm) -> T + Send + Sync + Clone + 'static,
        T: Send + 'static,
    {
        let comms = CommWorld::builder(n).build();
        run_world_with(comms, f)
    }

    /// Run `build` with `cores` standing in for the box's core count:
    /// a world built inside gives each rank `cores / world_size` of
    /// them, which picks its comm-stream placement.
    fn with_cores<R: Send>(cores: usize, build: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(cores)
            .build()
            .expect("a pool with a fixed worker count")
            .install(build)
    }

    /// An `n`-rank world under each placement: one core per rank (async
    /// collectives run at issue), then two (a comm worker per rank).
    fn both_placements(n: usize) -> [Vec<Comm>; 2] {
        [1, 2].map(|per_rank| {
            let comms = with_cores(n * per_rank, || CommWorld::builder(n).build());
            assert_eq!(comms[0].async_tx.is_some(), per_rank == 2);
            comms
        })
    }

    fn run_world_with<F, T>(comms: Vec<Comm>, f: F) -> Vec<T>
    where
        F: Fn(Comm) -> T + Send + Sync + Clone + 'static,
        T: Send + 'static,
    {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = f.clone();
                thread::spawn(move || f(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn async_all_reduce_matches_blocking() {
        let results = run_world(4, |c| {
            let g = ProcessGroup::new(vec![0, 1, 2, 3]);
            let buf: Vec<f32> = (0..8).map(|i| (i + c.rank()) as f32).collect();
            let h = c.iall_reduce(&g, buf.clone());
            let async_out = h.wait();
            let mut blocking = buf;
            c.all_reduce(&g, &mut blocking);
            (async_out, blocking)
        });
        for (a, b) in &results {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn async_ops_execute_in_issue_order() {
        for comms in both_placements(2) {
            let results = run_world_with(comms, |c| {
                let g = ProcessGroup::new(vec![0, 1]);
                let h1 = c.iall_reduce(&g, vec![1.0, 2.0]);
                let h2 = c.iall_reduce(&g, vec![10.0, 20.0]);
                (h1.wait(), h2.wait())
            });
            for (r1, r2) in &results {
                assert_eq!(r1, &vec![2.0, 4.0]);
                assert_eq!(r2, &vec![20.0, 40.0]);
            }
        }
    }

    #[test]
    fn async_overlaps_with_blocking_on_other_group() {
        // Ranks 0 and 1 issue a group {0,1} op, then every rank runs a
        // blocking op on the whole world before the wait: on a worker
        // the two overlap, inline the async op completes at issue.
        for comms in both_placements(4) {
            let results = run_world_with(comms, |c| {
                let g01 = ProcessGroup::new(vec![0, 1]);
                let g_all = ProcessGroup::new(vec![0, 1, 2, 3]);
                let h = if g01.contains(c.rank()) {
                    Some(c.iall_gather(&g01, vec![c.rank() as f32]))
                } else {
                    None
                };
                let mut buf = vec![1.0f32];
                c.all_reduce(&g_all, &mut buf);
                let gathered = h.map(|h| h.wait());
                (buf, gathered)
            });
            for (i, (sum, gathered)) in results.iter().enumerate() {
                assert_eq!(sum, &vec![4.0]);
                if i < 2 {
                    assert_eq!(gathered.as_ref().unwrap(), &vec![0.0, 1.0]);
                }
            }
        }
    }

    #[test]
    fn one_core_per_rank_runs_the_program_at_issue() {
        // Rank 1 issues 20 ms late. With one core per rank there is no
        // worker, so rank 0's issue itself runs the all-reduce: its
        // comm-stream span has ended by the time `iall_reduce` returns.
        let (comms, sinks) = with_cores(2, || {
            CommWorld::builder(2)
                .cost(Arc::new(crate::cost::NullCost))
                .build_traced()
        });
        let returned = run_world_with(comms, |c| {
            let g = ProcessGroup::new(vec![0, 1]);
            if c.rank() == 1 {
                thread::sleep(std::time::Duration::from_millis(20));
            }
            let h = c.iall_reduce(&g, vec![1.0]);
            let returned_ns = c.tracer().expect("traced world").now_ns();
            assert_eq!(h.wait(), vec![2.0]);
            returned_ns
        });
        let trace = sinks[0].finish();
        let comm = trace
            .events
            .iter()
            .find(|e| e.stream == Stream::Comm)
            .expect("rank 0 records the all-reduce on its comm stream");
        assert!(
            comm.wall_end_ns <= returned[0],
            "comm span ends at {} ns, issue returned at {} ns",
            comm.wall_end_ns,
            returned[0]
        );
    }

    #[test]
    fn overlap_reduces_virtual_time() {
        // Timed world: a rank that overlaps an all-reduce with compute
        // should finish earlier than one that serialises them.
        let cost = Arc::new(RingCostModel::new(1e9, 1e9));
        let make = || CommWorld::builder(2).cost(cost.clone()).build();

        // Serial: collective then compute.
        let serial = run_world_with(make(), |c| {
            let g = ProcessGroup::new(vec![0, 1]);
            let mut buf = vec![0.0f32; 1_000_000];
            c.all_reduce(&g, &mut buf);
            c.advance_compute(5e6); // 5 ms of compute
            c.now()
        });
        // Overlapped: issue async, compute, then wait.
        let overlapped = run_world_with(make(), |c| {
            let g = ProcessGroup::new(vec![0, 1]);
            let buf = vec![0.0f32; 1_000_000];
            let h = c.iall_reduce(&g, buf);
            c.advance_compute(5e6);
            let _ = h.wait();
            c.now()
        });
        for (s, o) in serial.iter().zip(&overlapped) {
            assert!(o < s, "overlapped virtual time {o} should beat serial {s}");
            // Comm cost = 2 * (1/2) * 4MB / 1GB/s = 4 ms; compute 5 ms.
            // Serial ≈ 9 ms, overlapped ≈ max(5,4) = 5 ms.
            assert!((s - 9.0e-3).abs() < 1.0e-3, "serial {s}");
            assert!((o - 5.0e-3).abs() < 1.0e-3, "overlapped {o}");
        }
    }

    #[test]
    fn overlap_wait_spans_the_wall_time_it_blocked() {
        // Rank 1 issues 50 ms after rank 0 has, so rank 0's wait blocks
        // about that long; its OverlapWait span must carry that wall
        // time (the margin absorbs scheduling delay on a loaded host).
        // Rank 0 reaches the barrier only because its issue returns at
        // once, which takes a comm worker: two cores per rank.
        let (comms, sinks) = with_cores(4, || {
            CommWorld::builder(2)
                .cost(Arc::new(crate::cost::NullCost))
                .build_traced()
        });
        let issued = Arc::new(std::sync::Barrier::new(2));
        run_world_with(comms, move |c| {
            let g = ProcessGroup::new(vec![0, 1]);
            if c.rank() == 0 {
                let h = c.iall_reduce(&g, vec![1.0]);
                issued.wait();
                h.wait()
            } else {
                issued.wait();
                thread::sleep(std::time::Duration::from_millis(50));
                c.iall_reduce(&g, vec![1.0]).wait()
            }
        });
        let trace = sinks[0].finish();
        let wait = trace
            .events
            .iter()
            .find(|e| matches!(e.detail, EventDetail::OverlapWait { .. }))
            .expect("rank 0 records its wait");
        let waited_ns = wait.wall_end_ns - wait.wall_start_ns;
        assert!(waited_ns >= 15_000_000, "wait spans {waited_ns} ns");
    }
}
