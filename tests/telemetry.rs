//! Workspace-level telemetry-plane integration: the live metrics
//! registry, the straggler/hang watchdog and the crash-surviving flight
//! recorder working together across `collectives`, `exec`, `ft` and
//! `verify`.
//!
//! The headline scenario is the observability acceptance check: a grid
//! whose collective schedule the `verify` plane certified deadlock-free
//! is run with an `ft` FaultPlan that wall-stalls one link. The watchdog
//! must name the stalled rank, the lane and the peer it is waiting on,
//! classify the stall as a *runtime* fault (the schedule cannot be the
//! bug — it was certified), and persist that rank's flight recorder.
//!
//! One metric vocabulary ties the planes together: a world stamping its
//! live registry as it runs and a fold of the same run's finished traces
//! must agree counter for counter and bucket for bucket.

use axonn::collectives::{AsyncOp, CommWorld, ProcessGroup, RingCostModel, WallStallRule};
use axonn::exec::{run_spmd, run_spmd_on, Watchdog, WatchdogConfig};
use axonn::ft::FaultPlan;
use axonn::trace::{flight_dir, fold_traces, LiveRegistry, MetricsSnapshot};
use axonn::verify::check_schedules;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const WORLD: usize = 4;
const ELEMS: usize = 1024;
const STEPS: usize = 3;

/// The training-shaped loop every scenario below runs: a few world-wide
/// all-reduces (tree-selected at this payload size under the default
/// policy: reduce-up + broadcast-down lanes).
fn step_loop(c: &axonn::collectives::Comm, world: usize, steps: usize) {
    let g = ProcessGroup::new((0..world).collect());
    for _ in 0..steps {
        let mut grads = vec![c.rank() as f32; ELEMS];
        c.all_reduce(&g, &mut grads);
    }
}

#[test]
fn watchdog_names_stalled_rank_on_certified_grid() {
    // 1. Certify the schedule on a dry world: same collective sequence,
    //    no data movement. A stall later cannot be a schedule bug.
    let dry = CommWorld::dry(WORLD);
    for c in &dry {
        step_loop(c, WORLD, STEPS);
    }
    let streams = dry[0]
        .schedule_streams()
        .expect("dry worlds record schedules");
    let report = check_schedules(&streams);
    assert!(report.is_ok(), "grid failed certification:\n{report}");

    // 2. Run the certified schedule for real, with the ft plane holding
    //    the 0 -> 1 link for 900 ms (a wall-clock stall: the receiver is
    //    genuinely parked, unlike the virtual-clock StallRule).
    let hold = Duration::from_millis(900);
    let plan = FaultPlan::none().stall_link_wall(
        0,
        WallStallRule {
            src: 0,
            dst: 1,
            hold,
        },
    );
    let registry = LiveRegistry::new();
    let comms = CommWorld::builder(WORLD)
        .faults(plan.transport_config(0))
        .metrics(registry.clone())
        .build();
    let probe = comms[0].clone();
    let dog = Watchdog::spawn(
        probe,
        WatchdogConfig {
            threshold: Duration::from_millis(250),
            poll: Duration::from_millis(25),
            certified: true,
        },
    );
    let handles: Vec<_> = comms
        .into_iter()
        .map(|c| std::thread::spawn(move || step_loop(&c, WORLD, STEPS)))
        .collect();
    for h in handles {
        h.join().expect("stalled run must still complete");
    }
    let reports = dog.stop();

    // The stalled rank is diagnosed with lane, peer and pending op. The
    // hold is on rank 0's tree-broadcast send down to rank 1, so rank 1
    // is the parked receiver.
    let stalled = reports
        .iter()
        .find(|r| r.rank == 1)
        .unwrap_or_else(|| panic!("rank 1 not reported; got {reports:?}"));
    assert_eq!(stalled.op, Some("all_reduce_tree"), "{stalled:?}");
    assert_eq!(stalled.lane, Some("tree_down"), "{stalled:?}");
    assert_eq!(stalled.peer, Some(0), "{stalled:?}");
    assert!(
        stalled.heartbeat_age_ms >= 250,
        "reported too early: {stalled:?}"
    );
    // Certified grid => runtime-fault classification, not schedule bug.
    assert!(
        stalled.classification.contains("runtime fault"),
        "{stalled:?}"
    );
    assert!(stalled.classification.contains("certified"), "{stalled:?}");
    // The flight recorder for the stalled rank was persisted.
    let dump = stalled
        .dump
        .as_ref()
        .unwrap_or_else(|| panic!("no flight dump written: {stalled:?}"));
    let body = std::fs::read_to_string(dump)
        .unwrap_or_else(|e| panic!("flight dump {} unreadable: {e}", dump.display()));
    assert!(body.contains("\"rank\":1"), "{body}");
    assert!(body.contains("lane tree_down"), "{body}");
    assert!(body.contains("enter all_reduce_tree"), "{body}");

    // 3. The live registry saw the run: same metric vocabulary as the
    //    post-hoc trace aggregation (and the sim publisher).
    let snap = registry.snapshot();
    let calls = snap
        .counters
        .get("collective.all_reduce_tree.calls")
        .copied()
        .unwrap_or(0);
    assert_eq!(
        calls,
        (WORLD * STEPS) as u64,
        "counters: {:?}",
        snap.counters
    );
    assert!(snap
        .prometheus_text()
        .contains("axonn_collective_all_reduce_tree_calls"));
}

#[test]
fn merely_slow_rank_is_not_a_watchdog_false_positive() {
    // A rank that is slow (straggling compute, here an explicit sleep)
    // but still making progress must not trip a watchdog whose threshold
    // exceeds the per-step delay.
    const DELAY: Duration = Duration::from_millis(20);
    let comms = CommWorld::builder(2).build();
    let probe = comms[0].clone();
    let dog = Watchdog::spawn(
        probe,
        WatchdogConfig {
            threshold: Duration::from_millis(500),
            poll: Duration::from_millis(20),
            certified: true,
        },
    );
    let handles: Vec<_> = comms
        .into_iter()
        .map(|c| {
            std::thread::spawn(move || {
                let g = ProcessGroup::new((0..2).collect());
                for _ in 0..8 {
                    if c.rank() == 1 {
                        std::thread::sleep(DELAY);
                    }
                    let mut v = vec![1.0f32; 256];
                    c.all_reduce(&g, &mut v);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let reports = dog.stop();
    assert!(
        reports.is_empty(),
        "slow-but-progressing rank misreported: {reports:?}"
    );
}

#[test]
fn flight_recorder_survives_a_rank_panic() {
    // When a rank panics, `exec` marks it dead, lets its peers drain
    // out, and dumps every rank's flight ring before re-raising — the
    // post-mortem artifact for crashes, not just hangs.
    static WID: OnceLock<u64> = OnceLock::new();
    let result = std::panic::catch_unwind(|| {
        run_spmd(2, |c| {
            let _ = WID.set(c.world_id());
            if c.rank() == 1 {
                panic!("telemetry-test crash");
            }
            step_loop(&c, 2, 1);
        })
    });
    assert!(result.is_err(), "the crash must propagate");
    let id = WID.get().expect("world id captured before the crash");
    let dump = flight_dir().join(format!("flight_w{id}_rank1.json"));
    let body = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("no crash dump at {}: {e}", dump.display()));
    assert!(body.contains("telemetry-test crash"), "{body}");
    assert!(body.contains("\"rank\":1"), "{body}");
}

/// A timed, traced world built with a registry stamps exactly what
/// folding its finished traces produces: every `collective.*` and
/// `overlap.*` counter, and every histogram bucket.
#[test]
fn live_registry_matches_the_fold_of_finished_traces() {
    const RANKS: usize = 2;
    let live = LiveRegistry::new();
    let (comms, sinks) = CommWorld::builder(RANKS)
        .cost(Arc::new(RingCostModel::new(1e9, 1e9)))
        .metrics(live.clone())
        .build_traced();
    run_spmd_on(comms, |c| {
        let g = ProcessGroup::new((0..RANKS).collect());
        for step in 0..STEPS {
            // Blocking collectives, then async ones waited on after a
            // short and a long stretch of modelled compute.
            let mut grads = vec![(c.rank() + step) as f32; ELEMS];
            c.all_reduce(&g, &mut grads);
            let shard = c.reduce_scatter(&g, &grads);
            let _ = c.all_gather(&g, &shard);
            let rs = c.start_async(&g, AsyncOp::ReduceScatter(c.pooled_payload(&grads)));
            c.advance_compute(1e3);
            let shard = rs.wait();
            let ag = c.start_async(&g, AsyncOp::AllGather(shard.into()));
            c.advance_compute(1e9);
            let _ = ag.wait();
        }
    });
    let traces: Vec<_> = sinks.iter().map(|s| s.finish()).collect();
    let folded = LiveRegistry::new();
    fold_traces(&traces, &folded);
    let (live, folded) = (live.snapshot(), folded.snapshot());

    let runtime_counters = |snap: &MetricsSnapshot| {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with("collective.") || k.starts_with("overlap."))
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()
    };
    let counters = runtime_counters(&live);
    assert_eq!(counters, runtime_counters(&folded));
    assert!(live.counters["overlap.waits"] > 0, "{counters:?}");
    for op in ["all_reduce", "reduce_scatter", "all_gather"] {
        assert!(
            counters.iter().any(|(k, v)| {
                k.starts_with(&format!("collective.{op}")) && k.ends_with(".calls") && *v > 0
            }),
            "no {op} counted: {counters:?}"
        );
    }

    let buckets = |snap: &MetricsSnapshot| {
        snap.histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.count(), h.bucket_counts().to_vec()))
            .collect::<Vec<_>>()
    };
    assert_eq!(buckets(&live), buckets(&folded));
    // Sums agree up to summation order (ranks stamp separate shards).
    for (name, h) in &live.histograms {
        let (a, b) = (h.sum(), folded.histograms[name].sum());
        assert!((a - b).abs() <= 1e-9 * a.abs(), "{name}: {a} vs {b}");
    }
}
