//! `axonn-verify`: static verification of collective schedules.
//!
//! The 4D-parallel training step is SPMD code over ring collectives; its
//! correctness (and its freedom from distributed deadlock) rests on a
//! contract no type system enforces: *every member of a communicator
//! issues the same collectives, in the same per-communicator order, with
//! agreeing shapes, and completes every handle it opens*. This crate
//! proves that contract for a concrete configuration **before** any rank
//! is spawned, by checking the symbolic schedules extracted from a dry
//! world (`axonn_collectives::CommWorld::dry` — see
//! `axonn_collectives::sched` for the event vocabulary and the canonical
//! lane-key reference).
//!
//! Five checkers run over the per-rank event streams:
//!
//! 1. **Cross-rank matching** ([`matching`]): per-communicator
//!    subsequences must be identical in kind, member list, element
//!    count, root, and reduction. Diagnostics name the first divergent
//!    op per rank pair.
//! 2. **Deadlock simulation** ([`deadlock`]): a conservative fixpoint
//!    execution under the portable blocking contract (any collective
//!    may synchronise its whole group), catching circular blocking
//!    waits across communicator lanes — once with async collectives on
//!    a comm worker and once with them inline at issue, the two
//!    placements a rank's comm stream can take.
//! 3. **Local lints** ([`lints`]): wait-before-issue and double-wait,
//!    handles issued but never waited (and the pooled slabs they keep
//!    reachable), buckets sealed but never reduced, and the static
//!    mirror of the transport's indivisible reduce-scatter rejection —
//!    rendered byte-identically to the runtime `CommError`.
//! 4. **Happens-before races** ([`hb`]): per-rank vector clocks over
//!    main and comm-worker contexts, issue/wait handoff edges, and
//!    collective-completion joins; flags any buffer mutated by the main
//!    context inside a pending nonblocking collective's overlap window
//!    (gradsync buckets, pooled prefetch).
//! 5. **Slab lifetimes** ([`slab`]): proves every pooled `Payload` slab
//!    is recycled only after all readers' clocks pass its last use —
//!    use-after-recycle, double-recycle, and cross-lane aliasing.
//!
//! Entry points: [`check_schedules`] for the full pre-launch
//! certification (`axonnctl verify`, training grids and `--serve` TP
//! decode shapes alike), [`check_runtime`] for the cross-check that
//! `axonn_exec::run_spmd` applies to shadow-recorded schedules at
//! teardown (matching plus the hb/slab analyses — completion already
//! witnesses deadlock freedom, and fire-and-forget handles are legal at
//! runtime, so the lints stay off). [`inject`](mod@inject) seeds defects for
//! negative-path tests.

pub mod deadlock;
pub mod diag;
pub mod hb;
pub mod inject;
pub mod lints;
pub mod matching;
pub mod slab;

pub use deadlock::Placement;
pub use diag::{Diagnostic, Report};
pub use hb::HbAnalysis;
pub use inject::{inject, DefectKind, InjectKind};
pub use lints::{indivisible_message, BUCKET_SEAL};

use axonn_collectives::SchedEvent;
use std::time::Instant;

fn elapsed_us(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn count_issues(streams: &[Vec<SchedEvent>]) -> usize {
    streams
        .iter()
        .flatten()
        .filter(|e| matches!(e, SchedEvent::Issue(_)))
        .count()
}

/// Full pre-launch certification: local lints, cross-rank matching, the
/// deadlock simulation under both comm-stream placements, then — on
/// schedules the worker model completes, where the vector-clock
/// simulation (which keeps that model) is guaranteed to complete — the
/// happens-before race detector and the slab-lifetime analysis.
pub fn check_schedules(streams: &[Vec<SchedEvent>]) -> Report {
    let mut timings_us = Vec::new();
    let t = Instant::now();
    let mut diagnostics = lints::check(streams);
    timings_us.push(("lints", elapsed_us(t)));
    let t = Instant::now();
    diagnostics.extend(matching::check(streams));
    timings_us.push(("matching", elapsed_us(t)));
    let t = Instant::now();
    let worker = deadlock::check(streams, Placement::Worker);
    let deadlock_free = worker.is_empty();
    diagnostics.extend(worker);
    // The inline model is the stricter one: whatever deadlocks on a
    // worker deadlocks inline too, so run it only on a clean schedule.
    if deadlock_free {
        diagnostics.extend(deadlock::check(streams, Placement::Inline));
    }
    timings_us.push(("deadlock", elapsed_us(t)));
    if deadlock_free {
        let t = Instant::now();
        let analysis = hb::analyze(streams);
        if let Some(analysis) = &analysis {
            diagnostics.extend(hb::races(analysis));
        }
        timings_us.push(("hb", elapsed_us(t)));
        let t = Instant::now();
        if let Some(analysis) = &analysis {
            diagnostics.extend(slab::check(analysis));
        }
        timings_us.push(("slab", elapsed_us(t)));
    }
    Report {
        ranks: streams.len(),
        issues: count_issues(streams),
        diagnostics,
        timings_us,
    }
}

/// Runtime cross-check: matching plus the happens-before race and
/// slab-lifetime analyses. Live runs may legally fire-and-forget
/// handles (the worker still completes them) and the run's own
/// completion already witnesses deadlock freedom, so the lints and the
/// deadlock simulation stay off — but overlap-window hygiene is not
/// witnessed by completion, so the hb/slab certification runs here too
/// (covering training *and* serve worlds through `axonn_exec`'s
/// teardown). On non-SPMD recordings the vector-clock simulation can
/// wedge; it then reports nothing and the matching diagnostics own the
/// failure.
pub fn check_runtime(streams: &[Vec<SchedEvent>]) -> Report {
    let mut timings_us = Vec::new();
    let t = Instant::now();
    let mut diagnostics = matching::check(streams);
    timings_us.push(("matching", elapsed_us(t)));
    let t = Instant::now();
    let analysis = hb::analyze(streams);
    if let Some(analysis) = &analysis {
        diagnostics.extend(hb::races(analysis));
    }
    timings_us.push(("hb", elapsed_us(t)));
    let t = Instant::now();
    if let Some(analysis) = &analysis {
        diagnostics.extend(slab::check(analysis));
    }
    timings_us.push(("slab", elapsed_us(t)));
    Report {
        ranks: streams.len(),
        issues: count_issues(streams),
        diagnostics,
        timings_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_collectives::{ReduceOp, SchedKind, SchedOp};

    fn op(kind: SchedKind, ranks: &[usize], elems: usize) -> SchedOp {
        SchedOp {
            kind,
            ranks: ranks.to_vec(),
            group_key: ranks.iter().fold(0xcbf2_9ce4u64, |h, r| {
                (h ^ *r as u64).wrapping_mul(0x0100_0000_01b3)
            }),
            elems,
            root: None,
            reduce: match kind {
                SchedKind::AllGather
                | SchedKind::AllGatherRd
                | SchedKind::Broadcast
                | SchedKind::BroadcastTree => None,
                _ => Some(ReduceOp::Sum),
            },
            blocking: true,
            pooled: false,
            seq: 0,
            buf: None,
            slab: None,
        }
    }

    fn issue(kind: SchedKind, ranks: &[usize], elems: usize, seq: u64) -> SchedEvent {
        let mut o = op(kind, ranks, elems);
        o.seq = seq;
        SchedEvent::Issue(o)
    }

    fn async_issue(
        kind: SchedKind,
        ranks: &[usize],
        elems: usize,
        seq: u64,
        pooled: bool,
    ) -> (SchedEvent, SchedEvent) {
        let mut o = op(kind, ranks, elems);
        o.blocking = false;
        o.pooled = pooled;
        o.seq = seq;
        let wait = SchedEvent::Wait {
            group_key: o.group_key,
            seq,
        };
        (SchedEvent::Issue(o), wait)
    }

    /// Async issue carrying buffer-identity annotations, as the live
    /// issue path records them (`buf` always set, `slab` iff pooled).
    fn tagged_async_issue(
        kind: SchedKind,
        ranks: &[usize],
        elems: usize,
        seq: u64,
        buf: u64,
        pooled: bool,
    ) -> (SchedEvent, SchedEvent) {
        let (mut i, w) = async_issue(kind, ranks, elems, seq, pooled);
        if let SchedEvent::Issue(o) = &mut i {
            o.buf = Some(buf);
            o.slab = pooled.then_some(buf);
        }
        (i, w)
    }

    #[test]
    fn identical_streams_certify() {
        let mk = || {
            vec![
                issue(SchedKind::AllGather, &[0, 1], 8, 0),
                issue(SchedKind::AllReduce, &[0, 1], 16, 1),
            ]
        };
        let report = check_schedules(&[mk(), mk()]);
        assert!(report.is_ok(), "{report}");
        assert_eq!(report.ranks, 2);
        assert_eq!(report.issues, 4);
    }

    #[test]
    fn count_mismatch_names_first_divergent_op() {
        let a = vec![
            issue(SchedKind::AllGather, &[0, 1], 8, 0),
            issue(SchedKind::AllReduce, &[0, 1], 16, 1),
        ];
        let b = vec![
            issue(SchedKind::AllGather, &[0, 1], 8, 0),
            issue(SchedKind::AllReduce, &[0, 1], 17, 1),
        ];
        let report = check_schedules(&[a, b]);
        let m = report
            .diagnostics
            .iter()
            .find_map(|d| match d {
                Diagnostic::Mismatch {
                    index,
                    rank_a,
                    rank_b,
                    ..
                } => Some((*index, *rank_a, *rank_b)),
                _ => None,
            })
            .expect("mismatch diagnostic");
        assert_eq!(m, (1, 0, 1), "{report}");
    }

    #[test]
    fn same_group_reorder_is_a_mismatch_at_op_zero() {
        let a = vec![
            issue(SchedKind::AllGather, &[0, 1], 8, 0),
            issue(SchedKind::ReduceScatter, &[0, 1], 8, 1),
        ];
        let mut b = a.clone();
        b.swap(0, 1);
        let report = check_schedules(&[a, b]);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::Mismatch { index: 0, .. })));
    }

    #[test]
    fn truncated_stream_is_a_mismatch() {
        let a = vec![
            issue(SchedKind::AllGather, &[0, 1], 8, 0),
            issue(SchedKind::AllReduce, &[0, 1], 16, 1),
        ];
        let b = vec![issue(SchedKind::AllGather, &[0, 1], 8, 0)];
        let report = check_schedules(&[a, b]);
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::Mismatch {
                index: 1,
                right: None,
                ..
            }
        )));
    }

    #[test]
    fn opposite_order_groups_deadlock() {
        // Group identity includes member order: [0,1] and [1,0] are
        // distinct communicators over the same ranks. Issuing them in
        // opposite orders is the classic cross-communicator deadlock.
        let fwd = op(SchedKind::AllReduce, &[0, 1], 4);
        let rev = op(SchedKind::AllReduce, &[1, 0], 4);
        let a = vec![
            SchedEvent::Issue(fwd.clone()),
            SchedEvent::Issue(rev.clone()),
        ];
        let b = vec![SchedEvent::Issue(rev), SchedEvent::Issue(fwd)];
        let report = check_schedules(&[a, b]);
        let deadlocks: Vec<_> = report
            .diagnostics
            .iter()
            .filter_map(|d| match d {
                Diagnostic::Deadlock { placement, stuck } => Some((*placement, stuck.len())),
                _ => None,
            })
            .collect();
        // Reported once, by the worker model: the stricter inline model
        // only runs on schedules the worker model completes.
        assert_eq!(
            deadlocks,
            [(Placement::Worker, 2)],
            "both ranks stuck: {report}"
        );
    }

    #[test]
    fn async_issue_wait_pairs_certify_and_overlap() {
        // Async issue on one group overlapping a blocking op on another,
        // waited after: legal, completes, no lints.
        let mk = || {
            let (i, w) = async_issue(SchedKind::ReduceScatterLinear, &[0, 1], 8, 0, true);
            vec![i, issue(SchedKind::AllReduce, &[0, 1], 4, 1), w]
        };
        let report = check_schedules(&[mk(), mk()]);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn missing_wait_flags_handle_and_pooled_leak() {
        let (i, _w) = async_issue(SchedKind::AllGather, &[0, 1], 8, 0, true);
        let stream = vec![i];
        let report = check_schedules(&[stream.clone(), stream]);
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::UnwaitedHandle {
                rank: 0,
                issue_index: 0,
                ..
            }
        )));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::PooledLeak { .. })));
    }

    #[test]
    fn wait_before_issue_flagged() {
        let (i, w) = async_issue(SchedKind::AllGather, &[0, 1], 8, 0, false);
        let early = vec![w.clone(), i.clone()];
        let report = check_schedules(&[early, vec![i, w]]);
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::WaitBeforeIssue {
                rank: 0,
                event_index: 0,
                ..
            }
        )));
    }

    #[test]
    fn double_wait_flagged() {
        let (i, w) = async_issue(SchedKind::AllGather, &[0, 1], 8, 0, false);
        let doubled = vec![i.clone(), w.clone(), w.clone()];
        let report = check_schedules(&[doubled, vec![i, w]]);
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::DoubleWait {
                rank: 0,
                event_index: 2,
                ..
            }
        )));
    }

    #[test]
    fn sealed_bucket_without_reduce_flagged() {
        let seal = SchedEvent::Marker { label: BUCKET_SEAL };
        let mk_good = || {
            let (i, w) = async_issue(SchedKind::ReduceScatterLinear, &[0, 1], 8, 0, true);
            vec![SchedEvent::Marker { label: BUCKET_SEAL }, i, w]
        };
        assert!(check_schedules(&[mk_good(), mk_good()]).is_ok());

        let bad = vec![seal, issue(SchedKind::AllReduce, &[0, 1], 4, 0)];
        let report = check_schedules(&[bad.clone(), bad]);
        assert!(report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::BucketNotReduced {
                rank: 0,
                marker_index: 0
            }
        )));
    }

    #[test]
    fn static_indivisible_matches_runtime_error_text() {
        use axonn_collectives::{CommWorld, ProcessGroup};
        let stream = vec![issue(SchedKind::ReduceScatter, &[0, 1, 2, 3], 10, 0)];
        let report = check_schedules(&[stream.clone(), stream.clone(), stream.clone(), stream]);
        let static_msg = report
            .diagnostics
            .iter()
            .find_map(|d| match d {
                Diagnostic::IndivisibleReduceScatter { message, .. } => Some(message.clone()),
                _ => None,
            })
            .expect("static indivisible diagnostic");

        // The dry world raises the same rejection dynamically.
        let comms = CommWorld::dry(4);
        let g = ProcessGroup::new(vec![0, 1, 2, 3]);
        let err = comms[0]
            .try_reduce_scatter(&g, &[0.0; 10])
            .expect_err("indivisible buffer must be rejected");
        assert_eq!(static_msg, err.to_string());
        assert!(!comms[0].schedule_clean());
    }

    #[test]
    fn runtime_check_skips_lints() {
        // Fire-and-forget is legal at runtime: no diagnostics from the
        // matching-only pass even though a handle is never waited.
        let (i, _w) = async_issue(SchedKind::AllGather, &[0, 1], 8, 0, false);
        let stream = vec![i];
        assert!(check_runtime(&[stream.clone(), stream]).is_ok());
    }

    #[test]
    fn injected_defects_are_detected() {
        // Buffer/slab ids are rank-local in real streams; mirror that
        // with per-rank id bases so only the injected defect fires.
        let mk = |rank: u64| {
            let (i1, w1) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                2,
                10 + rank,
                true,
            );
            let (i2, w2) = tagged_async_issue(SchedKind::AllGather, &[0, 1], 4, 3, 20 + rank, true);
            // A blocking op on another communicator inside i2's window:
            // the site `IssuePastBlocking` moves i2 past.
            vec![
                issue(SchedKind::AllGather, &[0, 1], 8, 0),
                issue(SchedKind::AllReduce, &[0, 1], 16, 1),
                i1,
                w1,
                i2,
                issue(SchedKind::AllReduce, &[1, 0], 4, 0),
                w2,
            ]
        };
        for defect in DefectKind::ALL {
            let mut streams = vec![mk(0), mk(1)];
            assert!(check_schedules(&streams).is_ok());
            assert!(inject(&mut streams, 1, defect), "{defect:?} applicable");
            let report = check_schedules(&streams);
            assert!(!report.is_ok(), "{defect:?} must be rejected");
        }
    }

    #[test]
    fn issue_past_blocking_deadlocks_only_the_inline_model() {
        // Each rank issues on [0,1], blocks on the distinct communicator
        // [1,0], then waits. Rank 1 issuing after the blocking op is
        // fine on a comm worker, but inline its peer blocks at the issue
        // while rank 1 blocks in the other collective.
        let mk = || {
            let (i, w) = async_issue(SchedKind::AllGather, &[0, 1], 8, 0, false);
            vec![i, issue(SchedKind::AllReduce, &[1, 0], 4, 0), w]
        };
        let mut streams = vec![mk(), mk()];
        assert!(check_schedules(&streams).is_ok());
        assert!(inject(&mut streams, 1, DefectKind::IssuePastBlocking));
        assert!(matches!(streams[1][0], SchedEvent::Issue(ref o) if o.blocking));
        assert!(deadlock::check(&streams, Placement::Worker).is_empty());
        let inline = deadlock::check(&streams, Placement::Inline);
        let [Diagnostic::Deadlock { placement, stuck }] = inline.as_slice() else {
            panic!("one inline deadlock expected: {inline:?}");
        };
        assert_eq!(*placement, Placement::Inline);
        assert_eq!(
            stuck,
            &[
                (
                    0,
                    "blocked in all_gather[elems=8, async, seq=0]".to_string()
                ),
                (
                    1,
                    "blocked in all_reduce[elems=4, op=Sum, seq=0]".to_string()
                ),
            ]
        );
        let report = check_schedules(&streams);
        assert!(
            report.to_string().contains(
                "(async collectives inline at issue); stuck: \
                 [rank 0: blocked in all_gather[elems=8, async, seq=0]] \
                 [rank 1: blocked in all_reduce[elems=4, op=Sum, seq=0]]"
            ),
            "{report}"
        );
    }

    #[test]
    fn clean_overlap_pipeline_certifies() {
        // The gradsync shape: write the bucket, seal, issue its pooled
        // linear reduce-scatter; later wait, write the update, gather.
        // Every write is ordered before its op's issue → no race.
        let mk = |rank: u64| {
            let (rs_i, rs_w) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                0,
                30 + rank,
                true,
            );
            let (ag_i, ag_w) =
                tagged_async_issue(SchedKind::AllGather, &[0, 1], 4, 1, 40 + rank, true);
            vec![
                SchedEvent::BufWrite {
                    buf: 30 + rank,
                    label: "bucket_grads",
                },
                SchedEvent::Marker { label: BUCKET_SEAL },
                rs_i,
                rs_w,
                SchedEvent::BufWrite {
                    buf: 40 + rank,
                    label: "zero1_update",
                },
                ag_i,
                ag_w,
            ]
        };
        let report = check_schedules(&[mk(0), mk(1)]);
        assert!(report.is_ok(), "{report}");
        let ran: Vec<&str> = report.timings_us.iter().map(|(n, _)| *n).collect();
        assert_eq!(ran, ["lints", "matching", "deadlock", "hb", "slab"]);
    }

    #[test]
    fn overlap_race_write_in_window_flagged_with_exact_wording() {
        let mk = |rank: u64| {
            let (i, w) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                0,
                7 + rank,
                true,
            );
            vec![
                i,
                SchedEvent::BufWrite {
                    buf: 7 + rank,
                    label: "injected-write",
                },
                w,
            ]
        };
        let report = check_schedules(&[mk(0), mk(1)]);
        let race = report
            .diagnostics
            .iter()
            .find(|d| matches!(d, Diagnostic::OverlapRace { rank: 0, .. }))
            .expect("race diagnostic");
        assert_eq!(
            race.to_string(),
            "rank 0 event #1: write to buffer 7 (injected-write) races with async \
             reduce_scatter_linear[elems=8, op=Sum, async, seq=0] at op #0 (lane lrs, \
             issued at event #0) — the pending collective may still read or write the buffer"
        );
    }

    #[test]
    fn waiting_a_later_op_orders_earlier_windows() {
        // FIFO comm-worker precision: waiting op B also closes op A's
        // window (the worker finished A before B), so a write to A's
        // buffer after B's wait is ordered — not a race.
        let mk = |rank: u64| {
            let (ia, wa) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                0,
                50 + rank,
                true,
            );
            let (ib, wb) = tagged_async_issue(SchedKind::AllGather, &[0, 1], 4, 1, 60 + rank, true);
            vec![
                ia,
                ib,
                wb,
                SchedEvent::BufWrite {
                    buf: 50 + rank,
                    label: "rewrite",
                },
                wa,
            ]
        };
        let report = check_schedules(&[mk(0), mk(1)]);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn early_recycle_flagged_with_exact_wording() {
        let mk = |rank: u64| {
            let (i, w) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                0,
                7 + rank,
                true,
            );
            vec![i, SchedEvent::SlabRecycle { slab: 7 + rank }, w]
        };
        let report = check_schedules(&[mk(0), mk(1)]);
        let diag = report
            .diagnostics
            .iter()
            .find(|d| matches!(d, Diagnostic::EarlyRecycle { rank: 0, .. }))
            .expect("early-recycle diagnostic");
        assert_eq!(
            diag.to_string(),
            "rank 0 event #1: slab 7 recycled before async \
             reduce_scatter_linear[elems=8, op=Sum, async, seq=0] at op #0 (lane lrs, \
             issued at event #0) released it"
        );
        // Recycling after the wait is the legal lifetime — no finding.
        let mk_ok = |rank: u64| {
            let (i, w) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                0,
                7 + rank,
                true,
            );
            vec![i, w, SchedEvent::SlabRecycle { slab: 7 + rank }]
        };
        assert!(check_schedules(&[mk_ok(0), mk_ok(1)]).is_ok());
    }

    #[test]
    fn double_recycle_flagged_with_exact_wording() {
        let mk = |rank: u64| {
            let (i, w) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                0,
                7 + rank,
                true,
            );
            vec![
                i,
                w,
                SchedEvent::SlabRecycle { slab: 7 + rank },
                SchedEvent::SlabRecycle { slab: 7 + rank },
            ]
        };
        let report = check_schedules(&[mk(0), mk(1)]);
        let diag = report
            .diagnostics
            .iter()
            .find(|d| matches!(d, Diagnostic::DoubleRecycle { rank: 0, .. }))
            .expect("double-recycle diagnostic");
        assert_eq!(
            diag.to_string(),
            "rank 0 event #3: slab 7 recycled twice (first recycle at event #2)"
        );
    }

    #[test]
    fn slab_aliasing_flagged_concurrent_and_ordered() {
        // Concurrent windows sharing one slab: cross-lane aliasing.
        let mk = |rank: u64| {
            let (ia, wa) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                0,
                7 + rank,
                true,
            );
            let (mut ib, wb) =
                tagged_async_issue(SchedKind::AllGather, &[0, 1], 4, 1, 7 + rank, true);
            if let SchedEvent::Issue(o) = &mut ib {
                o.buf = Some(90 + rank); // distinct logical buffer, shared slab
            }
            vec![ia, ib, wa, wb]
        };
        let report = check_schedules(&[mk(0), mk(1)]);
        let diag = report
            .diagnostics
            .iter()
            .find(|d| matches!(d, Diagnostic::SlabReuse { rank: 0, .. }))
            .expect("slab-reuse diagnostic");
        assert_eq!(
            diag.to_string(),
            "rank 0: slab 7 aliased by concurrent async ops — op #0 (lane lrs, issued at \
             event #0) and op #1 (lane ag, issued at event #1)"
        );

        // Ordered windows sharing one slab: use-after-recycle.
        let mk = |rank: u64| {
            let (ia, wa) = tagged_async_issue(
                SchedKind::ReduceScatterLinear,
                &[0, 1],
                8,
                0,
                7 + rank,
                true,
            );
            let (mut ib, wb) =
                tagged_async_issue(SchedKind::AllGather, &[0, 1], 4, 1, 7 + rank, true);
            if let SchedEvent::Issue(o) = &mut ib {
                o.buf = Some(90 + rank);
            }
            vec![ia, wa, ib, wb]
        };
        let report = check_schedules(&[mk(0), mk(1)]);
        let diag = report
            .diagnostics
            .iter()
            .find(|d| matches!(d, Diagnostic::SlabReuse { rank: 0, .. }))
            .expect("slab-reuse diagnostic");
        assert_eq!(
            diag.to_string(),
            "rank 0: slab 7 of async op #0 (lane lrs, issued at event #0) reused after \
             recycle by async op #1 (lane ag, issued at event #2)"
        );
    }

    #[test]
    fn lint_negative_paths_cover_algorithm_lanes() {
        // The PR 8 algorithm kinds (tree / recursive halving-doubling
        // lanes) must hit the same lint classes as the ring kinds.

        // Wait-before-issue on the RHD lane.
        let (i, w) = async_issue(SchedKind::AllReduceRhd, &[0, 1], 8, 0, false);
        let report = check_schedules(&[vec![w.clone(), i.clone()], vec![i, w]]);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| matches!(d, Diagnostic::WaitBeforeIssue { rank: 0, .. })),
            "{report}"
        );

        // Double-wait on the tree lanes.
        let (i, w) = async_issue(SchedKind::AllReduceTree, &[0, 1], 8, 0, false);
        let report = check_schedules(&[vec![i.clone(), w.clone(), w.clone()], vec![i, w]]);
        assert!(
            report.diagnostics.iter().any(|d| matches!(
                d,
                Diagnostic::DoubleWait {
                    rank: 0,
                    event_index: 2,
                    ..
                }
            )),
            "{report}"
        );

        // Unwaited handle + pooled leak on the RDAG lane.
        let (i, _w) = async_issue(SchedKind::AllGatherRd, &[0, 1], 8, 0, true);
        let report = check_schedules(&[vec![i.clone()], vec![i]]);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::UnwaitedHandle { rank: 0, .. })));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| matches!(d, Diagnostic::PooledLeak { rank: 0, .. })));

        // Indivisible reduce-scatter on the recursive-halving lane,
        // rendered with the runtime's exact words.
        let stream = vec![issue(SchedKind::ReduceScatterRh, &[0, 1, 2], 10, 0)];
        let report = check_schedules(&[stream.clone(), stream.clone(), stream]);
        let msg = report
            .diagnostics
            .iter()
            .find_map(|d| match d {
                Diagnostic::IndivisibleReduceScatter { message, .. } => Some(message.clone()),
                _ => None,
            })
            .expect("indivisible diagnostic");
        assert_eq!(msg, indivisible_message("reduce_scatter_rh", 10, 3));

        // Root disagreement on the tree broadcast is a first-divergence
        // mismatch like any ring kind.
        let mut a = op(SchedKind::BroadcastTree, &[0, 1], 8);
        a.root = Some(0);
        let mut b = a.clone();
        b.root = Some(1);
        let report = check_schedules(&[vec![SchedEvent::Issue(a)], vec![SchedEvent::Issue(b)]]);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| matches!(d, Diagnostic::Mismatch { index: 0, .. })),
            "{report}"
        );
    }
}
