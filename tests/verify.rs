//! Workspace-level verification integration: negative-path defect
//! seeding against real extracted schedules (exact rank/op-index
//! diagnostics), property-based "verifier-accepted implies run_spmd
//! completes", the dry-extracted schedule pinned event for event to the
//! stream a live world records, and the decode schedule's contract.

use axonn::collectives::{Comm, CommWorld, SchedEvent, SchedKind, SchedOp};
use axonn::engine::{
    default_mlp_shape, default_transformer_shape, extract_mlp_schedules,
    extract_transformer_schedules, transformer_grid_fits, Activation, GridTopology, Network4d,
    OverlapConfig, TransformerShape, TransformerStack,
};
use axonn::exec::{run_spmd, run_spmd_on};
use axonn::perfmodel::Grid4d;
use axonn::serve::extract_tp_decode_schedule;
use axonn::tensor::Matrix;
use axonn::verify::{check_schedules, inject, DefectKind, Diagnostic};
use proptest::prelude::*;

/// The `(group, seq)`-keyed wait and its matching async issue in a clean
/// stream — the pair the reorder/missing-wait defects manipulate.
fn first_wait_and_issue(stream: &[SchedEvent]) -> (usize, usize) {
    let w = stream
        .iter()
        .position(|e| matches!(e, SchedEvent::Wait { .. }))
        .expect("stream has a wait");
    let SchedEvent::Wait { group_key, seq } = &stream[w] else {
        unreachable!()
    };
    let i = (0..w)
        .position(|i| match &stream[i] {
            SchedEvent::Issue(op) => !op.blocking && op.group_key == *group_key && op.seq == *seq,
            _ => false,
        })
        .expect("wait has a matching issue");
    (i, w)
}

#[test]
fn count_mismatch_is_named_at_op_zero_on_the_corrupted_rank() {
    let (dims, batch) = default_mlp_shape(4);
    let mut streams = extract_mlp_schedules(2, 2, 1, 1, &dims, batch, OverlapConfig::all());
    assert!(check_schedules(&streams).is_ok(), "clean schedule rejected");

    assert!(inject(&mut streams, 1, DefectKind::CountMismatch));
    let report = check_schedules(&streams);
    assert!(!report.is_ok());
    // The first issue of a stream is necessarily op #0 of its own
    // communicator, so the diagnostic must name index 0 and rank 1.
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::Mismatch {
                index: 0,
                rank_a,
                rank_b,
                ..
            } if *rank_a == 1 || *rank_b == 1
        )),
        "no op-#0 mismatch naming rank 1: {report}"
    );
}

#[test]
fn missing_wait_is_named_at_the_orphaned_issue_index() {
    let (dims, batch) = default_mlp_shape(4);
    let mut streams = extract_mlp_schedules(2, 2, 1, 1, &dims, batch, OverlapConfig::all());
    let (issue_at, _) = first_wait_and_issue(&streams[1]);

    assert!(inject(&mut streams, 1, DefectKind::MissingWait));
    let report = check_schedules(&streams);
    assert!(!report.is_ok());
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::UnwaitedHandle { rank: 1, issue_index, .. } if *issue_index == issue_at
        )),
        "no unwaited-handle diagnostic at rank 1 event #{issue_at}: {report}"
    );
}

#[test]
fn reorder_without_divergent_pair_becomes_wait_before_issue() {
    // On a pure tensor-parallel grid every communicator repeats one
    // (kind, elems) shape, so the injector falls back to swapping a wait
    // ahead of its own issue; the lint must name the landing index.
    let (dims, batch) = default_mlp_shape(4);
    let mut streams = extract_mlp_schedules(2, 2, 1, 1, &dims, batch, OverlapConfig::all());
    let (issue_at, _) = first_wait_and_issue(&streams[1]);

    assert!(inject(&mut streams, 1, DefectKind::Reorder));
    let report = check_schedules(&streams);
    assert!(!report.is_ok());
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::WaitBeforeIssue { rank: 1, event_index, .. } if *event_index == issue_at
        )),
        "no wait-before-issue diagnostic at rank 1 event #{issue_at}: {report}"
    );
}

#[test]
fn reorder_with_divergent_pair_is_a_matching_mismatch() {
    // With gz = 2 each z-communicator interleaves all-gathers and
    // reduce-scatters, so the injector finds a same-communicator
    // differing pair and the matching checker names the divergence.
    let (dims, batch) = default_mlp_shape(4);
    let mut streams = extract_mlp_schedules(2, 1, 2, 1, &dims, batch, OverlapConfig::all());
    assert!(check_schedules(&streams).is_ok());

    assert!(inject(&mut streams, 1, DefectKind::Reorder));
    let report = check_schedules(&streams);
    assert!(!report.is_ok());
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::Mismatch { rank_a, rank_b, left: Some(_), right: Some(_), .. }
                if *rank_a == 1 || *rank_b == 1
        )),
        "no matching mismatch naming rank 1: {report}"
    );
}

#[test]
fn transformer_defects_are_rejected_too() {
    let shape = default_transformer_shape(4);
    // All six defect families against real extracted streams: the
    // data-parallel dimension gives the gradsync overlap pipeline, whose
    // tagged pooled async issues are the race/slab injection sites.
    for defect in DefectKind::ALL {
        let mut streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
        assert!(check_schedules(&streams).is_ok(), "clean schedule rejected");
        assert!(inject(&mut streams, 1, defect), "{defect:?} applicable");
        assert!(
            !check_schedules(&streams).is_ok(),
            "{defect:?} not rejected"
        );
    }
}

#[test]
fn injected_overlap_race_names_rank_op_lane_and_buffer() {
    let shape = default_transformer_shape(4);
    let mut streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
    assert!(inject(&mut streams, 1, DefectKind::OverlapRace));
    // The injector writes to the first async issue's buffer right after
    // the issue; recover the expected site from the corrupted stream.
    let (write_index, buf) = streams[1]
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e {
            SchedEvent::BufWrite { buf, .. } => Some((i, *buf)),
            _ => None,
        })
        .expect("injected write present");

    let report = check_schedules(&streams);
    let race = report
        .diagnostics
        .iter()
        .find_map(|d| match d {
            Diagnostic::OverlapRace {
                rank,
                write_index: w,
                buf: b,
                ..
            } => Some((*rank, *w, *b)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no overlap-race diagnostic: {report}"));
    assert_eq!(race, (1, write_index, buf));
    // The rendered diagnostic names every coordinate of the defect.
    let text = report.to_string();
    assert!(
        text.contains(&format!(
            "rank 1 event #{write_index}: write to buffer {buf} (injected-write) races with async"
        )) && text.contains("lane ")
            && text.contains("the pending collective may still read or write the buffer"),
        "incomplete race diagnostic: {text}"
    );
}

#[test]
fn injected_early_recycle_names_the_unreleased_slab() {
    let shape = default_transformer_shape(4);
    let mut streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
    assert!(inject(&mut streams, 1, DefectKind::EarlyRecycle));
    let (recycle_index, slab) = streams[1]
        .iter()
        .enumerate()
        .find_map(|(i, e)| match e {
            SchedEvent::SlabRecycle { slab } => Some((i, *slab)),
            _ => None,
        })
        .expect("injected recycle present");

    let report = check_schedules(&streams);
    assert!(
        report.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::EarlyRecycle { rank: 1, recycle_index: r, slab: s, .. }
                if *r == recycle_index && *s == slab
        )),
        "no early-recycle diagnostic at rank 1 event #{recycle_index}: {report}"
    );
    assert!(
        report.to_string().contains(&format!(
            "rank 1 event #{recycle_index}: slab {slab} recycled before async"
        )),
        "wrong wording: {report}"
    );
}

#[test]
fn injected_slab_aliasing_names_both_ops() {
    let shape = default_transformer_shape(4);
    let mut streams = extract_transformer_schedules(1, 2, 1, 2, &shape, OverlapConfig::all());
    assert!(inject(&mut streams, 1, DefectKind::SlabReuse));

    let report = check_schedules(&streams);
    let found = report
        .diagnostics
        .iter()
        .find_map(|d| match d {
            Diagnostic::SlabReuse { rank, slab, .. } => Some((*rank, *slab)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no slab-reuse diagnostic: {report}"));
    assert_eq!(found.0, 1);
    let text = report.to_string();
    assert!(
        text.contains("aliased by concurrent async ops") || text.contains("reused after recycle"),
        "wrong wording: {text}"
    );
}

#[test]
fn serve_decode_schedule_certifies_with_timed_checks() {
    for tp in [1usize, 2, 4] {
        let streams = extract_tp_decode_schedule(tp, 2, 3);
        let report = check_schedules(&streams);
        assert!(report.is_ok(), "tp={tp}: {report}");
        let names: Vec<&str> = report.timings_us.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["lints", "matching", "deadlock", "hb", "slab"]);
    }
}

#[test]
fn serve_decode_schedule_is_two_all_reduces_per_layer_per_token() {
    // `TpShard::decode_token` reduces the attention output and the MLP
    // output across the tensor-parallel group once per layer per token,
    // and nothing else: the extractor's synthetic shape has `dim = 8·tp`.
    let (layers, tokens) = (2usize, 3usize);
    let solo = extract_tp_decode_schedule(1, layers, tokens);
    assert!(
        solo.iter().all(Vec::is_empty),
        "tp=1 communicated: {solo:?}"
    );
    for tp in [2usize, 4] {
        let streams = extract_tp_decode_schedule(tp, layers, tokens);
        assert_eq!(streams.len(), tp);
        let group: Vec<usize> = (0..tp).collect();
        for (rank, stream) in streams.iter().enumerate() {
            let issues: Vec<&SchedOp> = stream
                .iter()
                .filter_map(|e| match e {
                    SchedEvent::Issue(op) => Some(op),
                    _ => None,
                })
                .collect();
            assert_eq!(issues.len(), 2 * layers * tokens, "tp={tp} rank {rank}");
            let kind = issues[0].kind;
            assert!(
                matches!(
                    kind,
                    SchedKind::AllReduce
                        | SchedKind::AllReduceLinear
                        | SchedKind::AllReduceRhd
                        | SchedKind::AllReduceTree
                ),
                "tp={tp} rank {rank}: {kind} is not an all-reduce"
            );
            for op in issues {
                assert!(op.blocking, "tp={tp} rank {rank}: async {op}");
                assert_eq!(op.kind, kind, "tp={tp} rank {rank}: mixed kinds");
                assert_eq!(op.ranks, group, "tp={tp} rank {rank}: {op}");
                assert_eq!(op.elems, 8 * tp, "tp={tp} rank {rank}: {op}");
            }
        }
    }
}

/// Streams with the rank-local buffer and slab ids zeroed: the only
/// fields a dry world and a live one may number differently.
fn zero_local_ids(streams: Vec<Vec<SchedEvent>>) -> Vec<Vec<SchedEvent>> {
    streams
        .into_iter()
        .map(|stream| {
            stream
                .into_iter()
                .map(|e| match e {
                    SchedEvent::Issue(mut op) => {
                        op.buf = op.buf.map(|_| 0);
                        op.slab = op.slab.map(|_| 0);
                        SchedEvent::Issue(op)
                    }
                    SchedEvent::BufWrite { label, .. } => SchedEvent::BufWrite { buf: 0, label },
                    other => other,
                })
                .collect()
        })
        .collect()
}

/// Run `step` on every rank of a live `world`-rank world with schedule
/// recording forced on, and return each rank's recorded stream.
fn live_streams(world: usize, step: impl Fn(Comm) + Send + Sync + 'static) -> Vec<Vec<SchedEvent>> {
    let comms = CommWorld::builder(world).record_schedule(true).build();
    let probe = comms[0].clone();
    run_spmd_on(comms, step);
    probe.schedule_streams().expect("recording was forced on")
}

fn assert_dry_equals_live(case: &str, dry: Vec<Vec<SchedEvent>>, live: Vec<Vec<SchedEvent>>) {
    let (dry, live) = (zero_local_ids(dry), zero_local_ids(live));
    assert_eq!(dry.len(), live.len(), "{case}: rank count");
    for (rank, (d, l)) in dry.iter().zip(&live).enumerate() {
        assert!(!d.is_empty(), "{case}: rank {rank} recorded nothing");
        if let Some(i) = (0..d.len().max(l.len())).find(|&i| d.get(i) != l.get(i)) {
            panic!(
                "{case}: rank {rank} diverges at event #{i} (dry {} / live {} events): dry {:?}, live {:?}",
                d.len(),
                l.len(),
                d.get(i),
                l.get(i)
            );
        }
    }
}

#[test]
fn dry_extracted_schedule_matches_live_recorded_streams() {
    // The dry extractor replays the real step on a world that moves no
    // data; a live world running the same step must record the same
    // per-rank streams, event for event, up to rank-local buffer ids.
    let dims = [8usize, 8, 8];
    let batch = 8usize;
    for (gx, gy, gz, gd) in [(2usize, 1usize, 2usize, 1usize), (1, 2, 2, 2), (2, 2, 1, 1)] {
        for overlap in [OverlapConfig::all(), OverlapConfig::default()] {
            let dry = extract_mlp_schedules(gx, gy, gz, gd, &dims, batch, overlap);
            // The extractor's own model seed and batch seeds.
            let live = live_streams(gx * gy * gz * gd, move |comm| {
                let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
                let mut net =
                    Network4d::new(comm, grid, &dims, Activation::Gelu, 7, overlap, false);
                let x = Matrix::random(batch, dims[0], 1.0, 11);
                let t = Matrix::random(batch, dims[2], 1.0, 13);
                net.train_step(&x, &t, 0.01);
            });
            let case = format!("mlp ({gx},{gy},{gz},{gd}) {overlap:?}");
            assert_dry_equals_live(&case, dry, live);
        }
    }

    let shape = TransformerShape {
        vocab: 16,
        hidden: 16,
        n_heads: 2,
        n_layers: 2,
        seq_len: 2,
        seqs: 8,
    };
    for (gx, gy, gz, gd) in [
        (1usize, 1usize, 2usize, 1usize),
        (2, 1, 1, 1),
        (1, 1, 1, 2),
        (1, 2, 2, 2),
    ] {
        assert!(transformer_grid_fits(gx, gy, gz, gd, &shape));
        let overlap = OverlapConfig::all();
        let dry = extract_transformer_schedules(gx, gy, gz, gd, &shape, overlap);
        let live = live_streams(gx * gy * gz * gd, move |comm| {
            let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
            let n_tokens = shape.seqs * shape.seq_len;
            let tokens: Vec<usize> = (0..n_tokens).map(|i| (i * 5 + 1) % shape.vocab).collect();
            let targets: Vec<usize> = (0..n_tokens).map(|i| (i * 3 + 2) % shape.vocab).collect();
            let mut stack = TransformerStack::new(
                &grid,
                shape.vocab,
                shape.hidden,
                shape.n_heads,
                shape.n_layers,
                shape.seq_len,
                42,
                overlap,
            );
            stack.train_step(&comm, &grid, &tokens, &targets, 0.01);
        });
        assert_dry_equals_live(&format!("transformer ({gx},{gy},{gz},{gd})"), dry, live);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Soundness of the certificate: any randomly chosen grid whose
    /// extracted MLP schedule the verifier accepts must complete a real
    /// `run_spmd` training step (the exec teardown re-checks the live
    /// streams, so a hang or mismatch would fail here).
    #[test]
    fn accepted_mlp_configs_complete_under_run_spmd(
        world_pick in 0usize..3,
        grid_pick in 0u64..1_000,
        seed in 0u64..500,
    ) {
        let world = [2usize, 4, 8][world_pick];
        let grids = Grid4d::enumerate(world);
        let g = grids[(grid_pick as usize) % grids.len()];
        let (dims, batch) = default_mlp_shape(world);

        let streams =
            extract_mlp_schedules(g.gx, g.gy, g.gz, g.gd, &dims, batch, OverlapConfig::all());
        let report = check_schedules(&streams);
        prop_assert!(report.is_ok(), "verifier rejected {g:?}: {report}");

        let dims2 = dims.clone();
        let losses = run_spmd(world, move |comm| {
            let grid = GridTopology::new(g.gx, g.gy, g.gz, g.gd, comm.rank());
            let mut net = Network4d::new(
                comm,
                grid,
                &dims2,
                Activation::Gelu,
                seed,
                OverlapConfig::all(),
                false,
            );
            let x = Matrix::random(batch, dims2[0], 1.0, seed + 1);
            let t = Matrix::random(batch, *dims2.last().unwrap(), 1.0, seed + 2);
            net.train_step(&x, &t, 0.01)
        });
        prop_assert!(losses.iter().all(|l| l.is_finite()));
    }

    /// Same soundness property for the transformer stack.
    #[test]
    fn accepted_transformer_configs_complete_under_run_spmd(
        grid_pick in 0u64..1_000,
        seed in 0u64..500,
    ) {
        let world = 4usize;
        let shape = default_transformer_shape(world);
        let grids: Vec<Grid4d> = Grid4d::enumerate(world)
            .into_iter()
            .filter(|g| transformer_grid_fits(g.gx, g.gy, g.gz, g.gd, &shape))
            .collect();
        let g = grids[(grid_pick as usize) % grids.len()];

        let streams =
            extract_transformer_schedules(g.gx, g.gy, g.gz, g.gd, &shape, OverlapConfig::all());
        let report = check_schedules(&streams);
        prop_assert!(report.is_ok(), "verifier rejected {g:?}: {report}");

        let n_tokens = shape.seqs * shape.seq_len;
        let tokens: Vec<usize> = (0..n_tokens).map(|i| (i * 5 + 1) % shape.vocab).collect();
        let targets: Vec<usize> = (0..n_tokens).map(|i| (i * 3 + 2) % shape.vocab).collect();
        let losses = run_spmd(world, move |comm| {
            let grid = GridTopology::new(g.gx, g.gy, g.gz, g.gd, comm.rank());
            let mut stack = TransformerStack::new(
                &grid,
                shape.vocab,
                shape.hidden,
                shape.n_heads,
                shape.n_layers,
                shape.seq_len,
                seed,
                OverlapConfig::all(),
            );
            stack.train_step(&comm, &grid, &tokens, &targets, 0.01)
        });
        prop_assert!(losses.iter().all(|l| l.is_finite()));
    }
}
