//! Threaded SPMD runtime for the correctness plane.
//!
//! The original AxoNN launches one process per GPU under MPI/torchrun;
//! here a *rank* is an OS thread holding a [`Comm`]. [`run_spmd`] spawns
//! the world, runs the same closure on every rank (Single Program,
//! Multiple Data) and collects the per-rank results in rank order.
//!
//! A panicking rank **poisons the world** before unwinding: every peer
//! blocked in (or later entering) a collective panics instead of waiting
//! forever for a message that will never come, and the launcher reports
//! the *original* panicking rank rather than the first casualty. Without
//! this, a panic on rank `k` while other ranks sit in a ring collective
//! would deadlock the join loop.

pub mod supervise;
pub mod watchdog;

pub use supervise::{
    run_spmd_fallible, run_spmd_supervised, AttemptSpec, RecoveryLog, SupervisedRun, WorldFailure,
};
pub use watchdog::{
    watchdog_threshold, StallReport, Watchdog, WatchdogConfig, DEFAULT_WATCHDOG_MS,
};

use axonn_collectives::{Comm, CommWorld, CostModel};
use axonn_trace::RankTrace;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

/// Run `body` on `world_size` ranks with no virtual-time tracking.
/// Returns the per-rank results in rank order.
pub fn run_spmd<F, T>(world_size: usize, body: F) -> Vec<T>
where
    F: Fn(Comm) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    launch(CommWorld::builder(world_size).build(), body)
}

/// Run `body` on `world_size` ranks with virtual clocks advanced by
/// `cost`. Returns the per-rank results in rank order.
pub fn run_spmd_timed<F, T>(world_size: usize, cost: Arc<dyn CostModel>, body: F) -> Vec<T>
where
    F: Fn(Comm) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    launch(CommWorld::builder(world_size).cost(cost).build(), body)
}

/// Run `body` on a pre-built world — the escape hatch for callers that
/// configure the world through [`CommWorld::builder`] (cost model, fault
/// plan, live-metrics registry) and still want the launcher's poisoning,
/// flight-dump and schedule-certification behaviour. `comms` must be the
/// complete rank set of one world, in rank order.
pub fn run_spmd_on<F, T>(comms: Vec<Comm>, body: F) -> Vec<T>
where
    F: Fn(Comm) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    assert!(!comms.is_empty(), "empty world");
    launch(comms, body)
}

/// Results and traces of a traced SPMD run, both in rank order.
pub struct TracedRun<T> {
    pub results: Vec<T>,
    pub traces: Vec<RankTrace>,
}

/// Run `body` on `world_size` ranks with virtual clocks advanced by
/// `cost` and every rank recording trace events (collectives are
/// instrumented automatically; `body` can add compute spans through
/// `Comm::tracer`). Returns the per-rank results and finished traces.
pub fn run_spmd_traced<F, T>(world_size: usize, cost: Arc<dyn CostModel>, body: F) -> TracedRun<T>
where
    F: Fn(Comm) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let (comms, sinks) = CommWorld::builder(world_size).cost(cost).build_traced();
    let results = launch(comms, body);
    let traces = sinks.iter().map(|s| s.finish()).collect();
    TracedRun { results, traces }
}

/// The kernel-thread pool one rank of a `world_size`-rank world runs in.
/// Kernel parallelism (the blocked GEMM's row bands) takes its count
/// from the pool the calling thread is installed in, so each rank gets
/// its core share ([`axonn_collectives::rank_core_share`]: `cores /
/// world_size`, at least one, or an explicit `AXONN_THREADS`) instead of
/// every rank spawning one per core and fighting its peers for them —
/// hidden 512, two ranks on two cores: 142–153 vs 161–172 ms per step on
/// grid 2×1×1×1, 169–186 vs 201–225 ms on 1×1×1×2. The pool is per rank
/// thread, so worlds launched concurrently in one process do not race
/// on a global count.
pub(crate) fn rank_kernel_pool(world_size: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(axonn_collectives::rank_core_share(world_size))
        .build()
        .expect("a pool with a fixed worker count")
}

fn launch<F, T>(comms: Vec<Comm>, body: F) -> Vec<T>
where
    F: Fn(Comm) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let world_size = comms.len();
    let body = Arc::new(body);
    // A probe clone lets the join loop read the poison flag after the
    // rank threads are gone.
    let probe = comms[0].clone();
    let handles: Vec<_> = comms
        .into_iter()
        .map(|comm| {
            let body = body.clone();
            let rank = comm.rank();
            let kernels = rank_kernel_pool(world_size);
            std::thread::Builder::new()
                .name(format!("axonn-rank-{rank}"))
                .spawn(move || {
                    let poison_handle = comm.clone();
                    let run = AssertUnwindSafe(|| kernels.install(|| body(comm)));
                    match std::panic::catch_unwind(run) {
                        Ok(v) => v,
                        Err(e) => {
                            // Poison before unwinding so blocked peers
                            // abort instead of deadlocking; secondary
                            // (poison-induced) panics don't overwrite the
                            // original because the first poisoner wins.
                            if !is_poison_panic(&*e) {
                                poison_handle.poison_world(rank, panic_message(&*e));
                            }
                            std::panic::resume_unwind(e);
                        }
                    }
                })
                .expect("failed to spawn rank thread")
        })
        .collect();
    let mut failed = false;
    let results: Vec<Option<T>> = handles
        .into_iter()
        .map(|h| match h.join() {
            Ok(v) => Some(v),
            Err(_) => {
                failed = true;
                None
            }
        })
        .collect();
    if failed {
        match probe.poison_info() {
            Some(info) => {
                // Crash post-mortem: persist every rank's flight
                // recorder before re-raising (the post-hoc tracer never
                // finishes on failed runs, so this is the only data).
                probe.dump_flight_all(&format!(
                    "world poisoned: rank {} panicked: {}",
                    info.origin_rank, info.message
                ));
                panic!("rank {} panicked: {}", info.origin_rank, info.message)
            }
            None => {
                let rank = results.iter().position(Option::is_none).unwrap_or(0);
                probe.dump_flight_all(&format!("rank {rank} panicked: <unknown failure>"));
                panic!("rank {rank} panicked: <unknown failure>");
            }
        }
    }
    // Post-run schedule certification: when recording was on (dry worlds,
    // debug builds, or AXONN_SCHED_VERIFY=1) and all ranks completed
    // cleanly, cross-check the recorded collective streams — cross-rank
    // matching plus the happens-before race and slab-lifetime analyses.
    // Completion already witnesses deadlock freedom, so the deadlock and
    // leak checks stay off. Every world launched here flows through this
    // gate, training and serve alike (`axonn_serve::tp_greedy_spmd` lands
    // on `run_spmd_on`).
    if let Some(streams) = probe.schedule_streams() {
        if probe.schedule_clean() {
            let report = axonn_verify::check_runtime(&streams);
            assert!(
                report.is_ok(),
                "collective schedule verification failed:\n{report}"
            );
        }
    }
    results
        .into_iter()
        .map(|v| v.expect("checked above"))
        .collect()
}

/// True when a panic payload is a secondary, poison-induced abort rather
/// than an original failure.
fn is_poison_panic(e: &(dyn std::any::Any + Send)) -> bool {
    e.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .is_some_and(|m| m.starts_with("world poisoned:"))
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_collectives::ProcessGroup;

    #[test]
    fn each_rank_gets_its_share_of_the_kernel_threads() {
        // An enclosing pool stands in for a host with that many cores.
        let per_rank = |cores: usize, world: usize| {
            let host = rayon::ThreadPoolBuilder::new()
                .num_threads(cores)
                .build()
                .unwrap();
            let seen = host.install(|| run_spmd(world, |_| rayon::current_num_threads()));
            assert!(seen.iter().all(|&n| n == seen[0]), "{seen:?}");
            seen[0]
        };
        let explicit = std::env::var("AXONN_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n > 0);
        for (cores, world, share) in [(8, 1, 8), (8, 2, 4), (2, 2, 1), (2, 4, 1), (6, 4, 1)] {
            assert_eq!(per_rank(cores, world), explicit.unwrap_or(share));
        }
        // The launching thread's own count is untouched by the ranks'.
        let before = rayon::current_num_threads();
        let _ = run_spmd(2, |_| ());
        assert_eq!(rayon::current_num_threads(), before);
    }

    #[test]
    fn results_in_rank_order() {
        let out = run_spmd(6, |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn world_wide_all_reduce() {
        let out = run_spmd(8, |c| {
            let g = ProcessGroup::new((0..8).collect());
            let mut v = vec![c.rank() as f32];
            c.all_reduce(&g, &mut v);
            v[0]
        });
        assert!(out.iter().all(|&x| x == 28.0));
    }

    #[test]
    fn subgroup_collectives_do_not_interfere() {
        let out = run_spmd(8, |c| {
            // Two disjoint groups of 4 reduce independently.
            let mine: Vec<usize> = if c.rank() < 4 {
                (0..4).collect()
            } else {
                (4..8).collect()
            };
            let g = ProcessGroup::new(mine);
            let mut v = vec![c.rank() as f32];
            c.all_reduce(&g, &mut v);
            v[0]
        });
        assert_eq!(out[..4], [6.0, 6.0, 6.0, 6.0]);
        assert_eq!(out[4..], [22.0, 22.0, 22.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "rank 3 panicked: boom")]
    fn rank_panic_is_attributed() {
        run_spmd(4, |c| {
            if c.rank() == 3 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked: deliberate failure")]
    fn rank_panic_does_not_deadlock_peers_blocked_in_collective() {
        // Every rank except 1 enters a world-wide all-reduce and blocks
        // on messages from rank 1, which panics instead of joining the
        // collective. Before world poisoning this deadlocked the join
        // loop (rank 0 never returned); now the poison wakes the blocked
        // ranks and the original panic is attributed to rank 1.
        run_spmd(4, |c| {
            if c.rank() == 1 {
                panic!("deliberate failure");
            }
            let g = ProcessGroup::new((0..4).collect());
            let mut v = vec![c.rank() as f32];
            c.all_reduce(&g, &mut v);
            v[0]
        });
    }

    #[test]
    #[should_panic(expected = "rank 2 panicked: async failure")]
    fn rank_panic_does_not_deadlock_async_waiters() {
        // Peers block in `AsyncHandle::wait` on a collective rank 2
        // never issues; poisoning must reach them through their
        // communication workers.
        run_spmd(4, |c| {
            if c.rank() == 2 {
                panic!("async failure");
            }
            let g = ProcessGroup::new((0..4).collect());
            let h = c.iall_reduce(&g, vec![c.rank() as f32]);
            h.wait()
        });
    }

    #[test]
    fn traced_run_records_collectives_per_rank() {
        use axonn_collectives::RingCostModel;
        let run = run_spmd_traced(4, Arc::new(RingCostModel::new(1e9, 1e9)), |c| {
            let g = ProcessGroup::new((0..4).collect());
            let mut v = vec![c.rank() as f32; 1000];
            c.all_reduce(&g, &mut v);
            let h = c.iall_gather(&g, vec![c.rank() as f32]);
            h.wait().len()
        });
        assert_eq!(run.results, vec![4, 4, 4, 4]);
        assert_eq!(run.traces.len(), 4);
        for (rank, trace) in run.traces.iter().enumerate() {
            assert_eq!(trace.rank, rank);
            let sig = trace.kind_signature();
            assert_eq!(
                sig,
                vec![
                    // Both payloads are small enough that the default
                    // policy selects the tree all-reduce and the
                    // recursive-doubling all-gather.
                    "collective:all_reduce_tree".to_string(),
                    "issue:all_gather_rd".to_string(),
                    "wait:all_gather_rd".to_string(),
                ],
                "rank {rank} signature"
            );
            // The async execution span landed on the comm stream.
            assert_eq!(
                trace
                    .stream_events(axonn_trace::Stream::Comm)
                    .map(|e| e.detail.kind())
                    .collect::<Vec<_>>(),
                vec!["async:all_gather_rd".to_string()]
            );
            assert!(trace.streams_monotone(), "rank {rank} timestamps");
        }
    }
}
