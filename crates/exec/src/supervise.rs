//! Fault-tolerant SPMD launching: fallible worlds and the supervisor
//! relaunch loop.
//!
//! [`run_spmd_fallible`] is the recoverable counterpart of `run_spmd`: a
//! panicking rank is *marked dead* on the transport (instead of poisoning
//! the world), so surviving ranks drain out of their collectives with
//! typed [`CommError::PeerLost`] panics that are caught, classified and
//! returned as a [`WorldFailure`] — the launcher never panics and never
//! deadlocks.
//!
//! [`run_spmd_supervised`] drives attempts of such worlds under a
//! caller-supplied *recovery policy*: after each failure the policy
//! decides whether (and how — world size, fault plan, body) to relaunch.
//! Checkpoint-aware policies live in `axonn-ft`; this layer only knows
//! about worlds and failures, and records the recovery lifecycle
//! (failure detected, restart, give up, completed) through `axonn-trace`.

use axonn_collectives::{
    Comm, CommError, CommWorld, FailureKind, FailureRecord, FaultConfig, InjectedKill,
};
use axonn_trace::{EventDetail, RankTrace, Stream, TraceSink};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

/// Why a fallible world run did not return results.
#[derive(Debug, Clone)]
pub struct WorldFailure {
    /// The failure that started the cascade: the first (lowest-rank)
    /// record that is not a secondary `PeerLost`, or the first record
    /// when every rank merely lost a peer.
    pub origin: FailureRecord,
    /// Every rank's failure record, in rank order.
    pub failures: Vec<FailureRecord>,
}

impl std::fmt::Display for WorldFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "world failed: rank {} ({:?}): {} ({} rank(s) affected)",
            self.origin.rank,
            self.origin.kind,
            self.origin.message,
            self.failures.len()
        )
    }
}

/// Classify a caught panic payload into a failure record.
fn classify_panic(rank: usize, e: &(dyn std::any::Any + Send)) -> FailureRecord {
    if let Some(kill) = e.downcast_ref::<InjectedKill>() {
        return FailureRecord {
            rank,
            kind: FailureKind::Killed,
            message: kill.to_string(),
            step: Some(kill.step),
        };
    }
    if let Some(err) = e.downcast_ref::<CommError>() {
        let kind = match err {
            CommError::PeerLost { .. } => FailureKind::PeerLost,
            // A bad buffer is a caller bug at the origin rank, like any
            // other panic — not a cascading peer failure.
            CommError::Poisoned(_) | CommError::InvalidBuffer { .. } => FailureKind::Panic,
        };
        return FailureRecord {
            rank,
            kind,
            message: err.to_string(),
            step: None,
        };
    }
    let message = e
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| e.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic payload>")
        .to_string();
    // A poison-format panic is also a secondary casualty, not an origin.
    let kind = if message.starts_with("world poisoned:") {
        FailureKind::PeerLost
    } else {
        FailureKind::Panic
    };
    FailureRecord {
        rank,
        kind,
        message,
        step: None,
    }
}

/// Run `body` on `world_size` ranks with fault injection installed.
/// Returns the per-rank results, or a structured [`WorldFailure`] if any
/// rank panicked. Unlike [`run_spmd`](crate::run_spmd), a failure marks
/// the rank dead (surviving ranks observe `CommError::PeerLost`) and the
/// call returns instead of panicking, so a supervisor can decide what to
/// do next.
pub fn run_spmd_fallible<F, T>(
    world_size: usize,
    faults: FaultConfig,
    body: F,
) -> Result<Vec<T>, WorldFailure>
where
    F: Fn(Comm) -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    launch_fallible(
        CommWorld::builder(world_size).faults(faults).build(),
        Arc::new(body),
    )
}

pub(crate) fn launch_fallible<T>(
    comms: Vec<Comm>,
    body: Arc<dyn Fn(Comm) -> T + Send + Sync>,
) -> Result<Vec<T>, WorldFailure>
where
    T: Send + 'static,
{
    let world_size = comms.len();
    let handles: Vec<_> = comms
        .into_iter()
        .map(|comm| {
            let body = body.clone();
            let rank = comm.rank();
            let kernels = crate::rank_kernel_pool(world_size);
            std::thread::Builder::new()
                .name(format!("axonn-rank-{rank}"))
                .spawn(move || {
                    let death_handle = comm.clone();
                    let run = AssertUnwindSafe(|| kernels.install(|| body(comm)));
                    match std::panic::catch_unwind(run) {
                        Ok(v) => Ok(v),
                        Err(e) => {
                            let record = classify_panic(rank, &*e);
                            // Mark (don't poison): peers blocked on this
                            // rank get a typed PeerLost and cascade out;
                            // survivor-to-survivor traffic still works.
                            death_handle.mark_dead(rank, &record.message);
                            Err(record)
                        }
                    }
                })
                .expect("failed to spawn rank thread")
        })
        .collect();
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for h in handles {
        match h.join().expect("rank thread itself cannot panic") {
            Ok(v) => results.push(v),
            Err(record) => failures.push(record),
        }
    }
    if failures.is_empty() {
        return Ok(results);
    }
    let origin = failures
        .iter()
        .find(|f| f.kind != FailureKind::PeerLost)
        .unwrap_or(&failures[0])
        .clone();
    Err(WorldFailure { origin, failures })
}

/// The supervisor's recovery-event recorder: a per-run trace sink on its
/// own monotone wall-clock timeline. The supervisor records lifecycle
/// transitions through it automatically; checkpoint-aware policies add
/// their own ("checkpoint", "resume", "reshard"). Cloning shares the
/// sink and timeline, so policies can hand clones to rank bodies.
#[derive(Clone)]
pub struct RecoveryLog {
    sink: Arc<TraceSink>,
    t0: Instant,
}

impl RecoveryLog {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        RecoveryLog {
            sink: TraceSink::new(0),
            t0: Instant::now(),
        }
    }

    /// Record a recovery lifecycle event (instant marker at the current
    /// wall time, in seconds since the log was created).
    pub fn event(&self, event: &'static str, attempt: u64, step: u64, rank: usize) {
        let t = self.t0.elapsed().as_secs_f64();
        self.sink.mark(
            Stream::Compute,
            t,
            EventDetail::Recovery {
                event,
                attempt,
                step,
                rank,
            },
        );
    }

    /// Snapshot the recorded events as a rank trace (rank 0 = the
    /// supervisor itself), suitable for Chrome-trace export.
    pub fn finish(&self) -> RankTrace {
        self.sink.finish()
    }
}

/// One attempt of a supervised run, produced by the recovery policy.
pub struct AttemptSpec<T> {
    /// Ranks to launch (may shrink across attempts for elastic resume).
    pub world_size: usize,
    /// Fault injection for this attempt (kills already fired are the
    /// policy's responsibility to retire).
    pub faults: FaultConfig,
    /// The per-rank body. `Arc<dyn Fn>` so different attempts can carry
    /// different closures (e.g. "resume from step 4" vs "start fresh").
    pub body: Arc<dyn Fn(Comm) -> T + Send + Sync>,
}

/// Outcome of [`run_spmd_supervised`].
pub struct SupervisedRun<T> {
    /// Per-rank results of the successful attempt, or `None` if the
    /// policy gave up.
    pub results: Option<Vec<T>>,
    /// Number of worlds launched (≥ 1 unless the policy refused even
    /// the first attempt).
    pub attempts: u64,
    /// Every failed attempt's failure, in order.
    pub failures: Vec<WorldFailure>,
}

/// Run SPMD worlds under a recovery policy until one completes or the
/// policy gives up.
///
/// The policy is called before every attempt with the attempt index and
/// the previous failure (`None` on the first attempt); it returns the
/// next [`AttemptSpec`], or `None` to stop. The supervisor records
/// `restart` / `failure_detected` / `completed` / `give_up` events into
/// `log`; policies record their own checkpoint/resume/reshard events.
pub fn run_spmd_supervised<T>(
    log: &RecoveryLog,
    mut policy: impl FnMut(u64, Option<&WorldFailure>) -> Option<AttemptSpec<T>>,
) -> SupervisedRun<T>
where
    T: Send + 'static,
{
    let mut attempt: u64 = 0;
    let mut last_failure: Option<WorldFailure> = None;
    let mut failures = Vec::new();
    loop {
        let Some(spec) = policy(attempt, last_failure.as_ref()) else {
            let (step, rank) = last_failure
                .as_ref()
                .map(|f| (f.origin.step.unwrap_or(0), f.origin.rank))
                .unwrap_or((0, 0));
            log.event("give_up", attempt, step, rank);
            return SupervisedRun {
                results: None,
                attempts: attempt,
                failures,
            };
        };
        if attempt > 0 {
            log.event("restart", attempt, 0, 0);
        }
        match launch_fallible(
            CommWorld::builder(spec.world_size)
                .faults(spec.faults)
                .build(),
            spec.body,
        ) {
            Ok(results) => {
                log.event("completed", attempt, 0, 0);
                return SupervisedRun {
                    results: Some(results),
                    attempts: attempt + 1,
                    failures,
                };
            }
            Err(failure) => {
                log.event(
                    "failure_detected",
                    attempt,
                    failure.origin.step.unwrap_or(0),
                    failure.origin.rank,
                );
                last_failure = Some(failure.clone());
                failures.push(failure);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_collectives::{DropRule, ProcessGroup};
    use std::time::Duration;

    #[test]
    fn fallible_run_returns_results_when_healthy() {
        let out = run_spmd_fallible(4, FaultConfig::none(), |c| c.rank() * 2).unwrap();
        assert_eq!(out, vec![0, 2, 4, 6]);
    }

    #[test]
    fn injected_kill_is_the_origin_and_peers_cascade_out() {
        let err = run_spmd_fallible(4, FaultConfig::none(), |c| {
            if c.rank() == 2 {
                std::panic::panic_any(InjectedKill { rank: 2, step: 7 });
            }
            let g = ProcessGroup::new((0..4).collect());
            let mut v = vec![c.rank() as f32];
            c.all_reduce(&g, &mut v);
            v[0]
        })
        .unwrap_err();
        assert_eq!(err.origin.rank, 2);
        assert_eq!(err.origin.kind, FailureKind::Killed);
        assert_eq!(err.origin.step, Some(7));
        // Every other rank went down as a secondary PeerLost, not a hang.
        assert_eq!(err.failures.len(), 4);
        for f in err.failures.iter().filter(|f| f.rank != 2) {
            assert_eq!(
                f.kind,
                FailureKind::PeerLost,
                "rank {}: {}",
                f.rank,
                f.message
            );
        }
    }

    #[test]
    fn dropped_message_surfaces_as_peer_lost_via_timeout() {
        // Rank 0's first message to rank 1 is lost; with a short recv
        // timeout rank 1 reports PeerLost instead of hanging forever.
        let faults = FaultConfig::none()
            .with_drop(DropRule {
                src: 0,
                dst: 1,
                nth: 1,
            })
            .with_recv_timeout(Duration::from_millis(100));
        let err = run_spmd_fallible(2, faults, |c| {
            if c.rank() == 0 {
                c.send(1, 42, vec![1.0]);
                c.recv(1, 43)
            } else {
                let got = c.recv(0, 42); // the dropped message
                c.send(0, 43, vec![2.0]);
                got
            }
        })
        .unwrap_err();
        let r1 = err.failures.iter().find(|f| f.rank == 1).unwrap();
        assert_eq!(r1.kind, FailureKind::PeerLost);
        assert!(r1.message.contains("timed out"), "{}", r1.message);
    }

    #[test]
    fn genuine_panic_is_classified_as_panic() {
        let err = run_spmd_fallible(2, FaultConfig::none(), |c| {
            if c.rank() == 1 {
                panic!("real bug");
            }
            let g = ProcessGroup::new(vec![0, 1]);
            c.barrier(&g);
        })
        .unwrap_err();
        assert_eq!(err.origin.rank, 1);
        assert_eq!(err.origin.kind, FailureKind::Panic);
        assert_eq!(err.origin.message, "real bug");
    }

    #[test]
    fn supervisor_relaunches_until_success_and_logs_lifecycle() {
        let log = RecoveryLog::new();
        let run = run_spmd_supervised(&log, |attempt, failure| {
            if attempt > 0 {
                assert_eq!(failure.unwrap().origin.kind, FailureKind::Killed);
            }
            let fail_this_attempt = attempt < 2;
            Some(AttemptSpec {
                world_size: 2,
                faults: FaultConfig::none(),
                body: Arc::new(move |c: Comm| {
                    if fail_this_attempt && c.rank() == 1 {
                        std::panic::panic_any(InjectedKill { rank: 1, step: 3 });
                    }
                    let g = ProcessGroup::new(vec![0, 1]);
                    let mut v = vec![1.0f32];
                    c.all_reduce(&g, &mut v);
                    v[0]
                }),
            })
        });
        assert_eq!(run.results.unwrap(), vec![2.0, 2.0]);
        assert_eq!(run.attempts, 3);
        assert_eq!(run.failures.len(), 2);
        let kinds = log.finish().kind_signature();
        assert_eq!(
            kinds,
            vec![
                "recovery:failure_detected".to_string(),
                "recovery:restart".to_string(),
                "recovery:failure_detected".to_string(),
                "recovery:restart".to_string(),
                "recovery:completed".to_string(),
            ]
        );
    }

    #[test]
    fn supervisor_gives_up_when_policy_declines() {
        let log = RecoveryLog::new();
        let run: SupervisedRun<()> = run_spmd_supervised(&log, |attempt, _| {
            if attempt >= 1 {
                return None;
            }
            Some(AttemptSpec {
                world_size: 2,
                faults: FaultConfig::none(),
                body: Arc::new(|c: Comm| {
                    if c.rank() == 0 {
                        std::panic::panic_any(InjectedKill { rank: 0, step: 1 });
                    }
                }),
            })
        });
        assert!(run.results.is_none());
        assert_eq!(run.attempts, 1);
        assert_eq!(run.failures.len(), 1);
        let kinds = log.finish().kind_signature();
        assert_eq!(
            kinds,
            vec![
                "recovery:failure_detected".to_string(),
                "recovery:give_up".to_string(),
            ]
        );
    }

    #[test]
    fn recovery_log_timeline_is_monotone() {
        let log = RecoveryLog::new();
        log.event("failure_detected", 0, 3, 1);
        log.event("restart", 1, 3, 0);
        log.event("completed", 1, 0, 0);
        assert!(log.finish().streams_monotone());
    }
}
