//! Workspace-level tracing integration: a traced 4-rank 4D training step
//! exported as Chrome trace-event JSON, overlap-efficiency accounting,
//! per-rank event-kind agreement, and determinism.

use axonn::collectives::{CostModel, RingCostModel};
use axonn::engine::{
    Activation, GradSyncMode, GridTopology, NetConfig, Network4d, OverlapConfig, TransformerStack,
};
use axonn::exec::{run_spmd_traced, TracedRun};
use axonn::tensor::Matrix;
use axonn::trace::{chrome_trace_json, EventDetail, OverlapReport, Stream};
use std::sync::Arc;

const DIMS: [usize; 3] = [8, 8, 8];
const SEED: u64 = 42;
const BATCH_ROWS: usize = 8;

fn batch() -> (Matrix, Matrix) {
    (
        Matrix::random(BATCH_ROWS, DIMS[0], 1.0, 1),
        Matrix::random(BATCH_ROWS, DIMS[2], 1.0, 2),
    )
}

fn cost() -> Arc<dyn CostModel> {
    Arc::new(RingCostModel::new(1e8, 1e8))
}

/// One traced training step on the correctness plane.
fn traced_step(
    (gx, gy, gz, gd): (usize, usize, usize, usize),
    overlap: OverlapConfig,
    kernel_tuning: bool,
    activation_checkpointing: bool,
) -> TracedRun<f32> {
    let world = gx * gy * gz * gd;
    run_spmd_traced(world, cost(), move |comm| {
        let grid = GridTopology::new(gx, gy, gz, gd, comm.rank());
        let mut net = Network4d::with_config(
            comm,
            grid,
            &DIMS,
            Activation::Gelu,
            SEED,
            NetConfig {
                overlap,
                kernel_tuning,
                activation_checkpointing,
                ..NetConfig::default()
            },
        );
        let (x, t) = batch();
        net.train_step(&x, &t, 0.01)
    })
}

#[test]
fn traced_step_exports_chrome_json_with_spans_per_rank() {
    let run = traced_step((2, 1, 2, 1), OverlapConfig::all(), true, false);
    assert_eq!(run.traces.len(), 4);

    // Acceptance (1): the export parses, and every rank recorded at least
    // one collective span and one compute span.
    let chrome = chrome_trace_json(&run.traces);
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("valid chrome JSON");
    match doc {
        serde_json::Value::Object(fields) => {
            let events = fields
                .iter()
                .find(|(k, _)| k == "traceEvents")
                .map(|(_, v)| v)
                .expect("traceEvents key");
            match events {
                serde_json::Value::Array(evs) => assert!(evs.len() > run.traces.len()),
                other => panic!("traceEvents is not an array: {other:?}"),
            }
        }
        other => panic!("chrome export is not an object: {other:?}"),
    }
    for trace in &run.traces {
        assert!(
            trace.events.iter().any(|e| matches!(
                e.detail,
                EventDetail::Collective { .. } | EventDetail::Issue { .. }
            )),
            "rank {} recorded no collective events",
            trace.rank
        );
        assert!(
            trace
                .events
                .iter()
                .any(|e| matches!(e.detail, EventDetail::Gemm { .. })),
            "rank {} recorded no compute spans",
            trace.rank
        );
        assert!(
            trace.streams_monotone(),
            "rank {} stream disorder",
            trace.rank
        );
    }
}

#[test]
fn overlap_hides_comm_without_changing_numerics() {
    // Acceptance (2): with OAR/ORS/OAG the hidden-communication fraction
    // is strictly greater than with overlap off, at identical numerics.
    let grid = (2, 1, 2, 1);
    let off = traced_step(grid, OverlapConfig::default(), false, false);
    let on = traced_step(grid, OverlapConfig::all(), false, false);
    assert_eq!(off.results, on.results, "overlap changed training numerics");

    let rep_off = OverlapReport::from_traces(&off.traces);
    let rep_on = OverlapReport::from_traces(&on.traces);
    assert!(rep_off.total_issued_seconds > 0.0);
    assert_eq!(
        rep_off.total_hidden_seconds, 0.0,
        "blocking schedule cannot hide communication"
    );
    assert!(
        rep_on.total_hidden_seconds > 0.0,
        "overlapped schedule hid nothing"
    );
    assert!(
        rep_on.overlap_efficiency > rep_off.overlap_efficiency,
        "efficiency on {} <= off {}",
        rep_on.overlap_efficiency,
        rep_off.overlap_efficiency
    );
    // Per-layer attribution exists for every layer.
    for layer in 0..DIMS.len() - 1 {
        assert!(
            rep_on.per_layer.iter().any(|l| l.layer == Some(layer)),
            "layer {layer} missing from the overlap report"
        );
    }
}

#[test]
fn every_rank_records_the_same_event_kinds() {
    // Acceptance (3): a training step is SPMD, so every rank records the
    // same ordered sequence of compute-stream event kinds, and the
    // overlap and checkpointing switches change that sequence the way
    // Algorithm 1 says they do.
    let cases = [
        ((2, 1, 2, 1), OverlapConfig::all(), false),
        ((2, 1, 2, 1), OverlapConfig::all(), true),
        ((2, 1, 2, 1), OverlapConfig::default(), false),
        ((2, 2, 1, 1), OverlapConfig::all(), false),
        ((1, 2, 2, 2), OverlapConfig::all(), true),
    ];
    let mut signatures = Vec::new();
    for (grid, overlap, ckpt) in cases {
        let run = traced_step(grid, overlap, true, ckpt);
        let case = format!("grid {grid:?} overlap {overlap:?} ckpt {ckpt}");
        let sig = run.traces[0].kind_signature();
        assert!(!sig.is_empty(), "{case}: rank 0 recorded nothing");
        for trace in &run.traces {
            assert_eq!(
                trace.kind_signature(),
                sig,
                "{case}: rank {} diverges from rank 0",
                trace.rank
            );
        }
        // Only an overlapped step issues asynchronously: with every
        // overlap off there are no issue/wait kinds and nothing runs on
        // the communication stream.
        let overlap_on = overlap.oar || overlap.ors || overlap.oag;
        let async_kinds = sig
            .iter()
            .any(|k| k.starts_with("issue:") || k.starts_with("wait:"));
        let comm_stream_used = run
            .traces
            .iter()
            .any(|t| t.stream_events(Stream::Comm).next().is_some());
        assert_eq!(
            (async_kinds, comm_stream_used),
            (overlap_on, overlap_on),
            "{case}: async kinds / comm stream"
        );
        signatures.push(sig);
    }

    // Grid (2,1,2,1) with every overlap on: OAG prefetches both layers'
    // Z all-gathers (tiny, so the default policy picks recursive
    // doubling) before layer 0 waits on its own; layer 0's row group has
    // one rank, so its forward has no all-reduce, while transposed
    // layer 1 ends with a blocking all-reduce over X (tree at this size).
    let overlapped = &signatures[0];
    assert_eq!(
        overlapped[..5],
        [
            "issue:all_gather_rd",
            "issue:all_gather_rd",
            "layer_fwd",
            "wait:all_gather_rd",
            "gemm"
        ],
        "{overlapped:?}"
    );
    assert!(
        overlapped.iter().any(|k| k == "collective:all_reduce_tree"),
        "{overlapped:?}"
    );
    // Activation checkpointing adds the recompute spans.
    assert!(
        signatures[1].len() > overlapped.len(),
        "checkpointing added no events: {} vs {}",
        signatures[1].len(),
        overlapped.len()
    );
}

#[test]
fn bucketed_pipeline_overlaps_data_group_collectives() {
    // Acceptance: the bucketed gradient pipeline's data-group collectives
    // (the only unattributed async reduce-scatters/all-gathers) show
    // hidden time — their reduce-scatters stream under the remaining ORS
    // drain and the blocking norm/embedding Z reductions — while the
    // serial per-tensor oracle's data-group traffic is all blocking, so
    // its data-parallel overlap efficiency is identically zero. Numerics
    // are bit-identical either way.
    let run_mode = |mode: GradSyncMode| {
        run_spmd_traced(8, cost(), move |comm| {
            let grid = GridTopology::new(1, 2, 2, 2, comm.rank());
            let mut stack = TransformerStack::new(&grid, 8, 8, 2, 2, 4, SEED, OverlapConfig::all());
            stack.set_grad_sync(mode);
            // Tiny buckets so several seal (and issue) mid-drain.
            stack.set_grad_bucket_elems(8);
            let tokens: Vec<usize> = (0..16).map(|i| (i * 5 + 1) % 8).collect();
            let targets: Vec<usize> = (0..16).map(|i| (i * 3 + 2) % 8).collect();
            stack.train_step(&comm, &grid, &tokens, &targets, 0.01)
        })
    };
    let bucketed = run_mode(GradSyncMode::Bucketed);
    let oracle = run_mode(GradSyncMode::PerTensor);
    assert_eq!(
        bucketed.results, oracle.results,
        "sync modes diverged numerically"
    );

    let dp_bucketed = OverlapReport::data_parallel_overlap(&bucketed.traces);
    let dp_oracle = OverlapReport::data_parallel_overlap(&oracle.traces);
    assert!(
        dp_bucketed.total_issued_seconds > 0.0,
        "bucketed pipeline issued no data-group collectives"
    );
    assert!(
        dp_bucketed.overlap_efficiency > 0.0,
        "bucketed data-group collectives hid nothing: {dp_bucketed:?}"
    );
    assert_eq!(
        dp_oracle.total_issued_seconds, 0.0,
        "oracle has no async data-group collectives"
    );
    assert_eq!(dp_oracle.overlap_efficiency, 0.0);
}

#[test]
fn traced_runs_are_byte_identical_and_monotone() {
    // Determinism: two identical seeded runs produce byte-identical
    // canonical event streams (wall time excluded by construction), with
    // per-stream virtual timestamps monotone. Kernel tuning stays off:
    // its decisions depend on real wall-clock measurements.
    let run = || traced_step((2, 1, 2, 1), OverlapConfig::all(), false, true);
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.canonical_json(), tb.canonical_json(), "rank {}", ta.rank);
        assert!(ta.streams_monotone());
        // The async stream, when present, is monotone too (covered by
        // streams_monotone) and pairs one wait per issue.
        let issues = ta
            .events
            .iter()
            .filter(|e| matches!(e.detail, EventDetail::Issue { .. }))
            .count();
        let waits = ta
            .events
            .iter()
            .filter(|e| matches!(e.detail, EventDetail::OverlapWait { .. }))
            .count();
        let async_spans = ta
            .stream_events(Stream::Comm)
            .filter(|e| {
                matches!(
                    e.detail,
                    EventDetail::Collective {
                        blocking: false,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(issues, waits, "rank {} unmatched async ops", ta.rank);
        assert_eq!(issues, async_spans, "rank {} orphan async spans", ta.rank);
    }
}
