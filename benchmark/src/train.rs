//! The four training workloads: one `core::TransformerStack` per rank
//! under `exec::run_spmd`, stepped on seeded batches for a fixed time.

use crate::load::Rng;
use crate::report::{Check, Outcome};
use crate::spans::Spans;
use crate::spec::train::*;
use crate::spec::{Sizing, Workload};
use crate::stats::{iqr_over_median, median, ms, percentile};
use crate::{heap, sys};
use axonn_collectives::{Comm, NullCost, PoolStats, ProcessGroup};
use axonn_core::{GridTopology, OverlapConfig, TransformerStack};
use axonn_tensor::{take_gemm_phase, GemmPhase};
use axonn_trace::{EventDetail, RankTrace, Stream};
use std::sync::Arc;
use std::time::Instant;

type Grid = (usize, usize, usize, usize);
type Batch = (Vec<usize>, Vec<usize>);

/// The seeded data: a small pool of global batches, cycled. Every rank
/// holds the same pool and slices its own rows inside `train_step`.
fn batches(seed: u64) -> Arc<Vec<Batch>> {
    let mut rng = Rng::new(seed);
    let mut draw = |_| (0..TOKENS_PER_STEP).map(|_| rng.below(VOCAB)).collect();
    Arc::new(
        (0..BATCH_POOL)
            .map(|i| (draw(i), draw(i)))
            .collect::<Vec<Batch>>(),
    )
}

#[derive(Clone, Copy)]
enum Stop {
    Steps(usize),
    Seconds(f64),
}

/// What one rank measured over its timed steps.
struct RankOut {
    /// `run_spmd` call → this rank past the first barrier.
    launch_s: f64,
    /// `run_spmd` call → model built and warmed up.
    setup_s: f64,
    losses: Vec<f32>,
    /// Step start (seconds after the `run_spmd` call) and duration.
    step_start_s: Vec<f64>,
    step_s: Vec<f64>,
    lap_s: Vec<f64>,
    /// Step windows on the rank's trace clock (traced worlds only).
    windows: Vec<(u64, u64)>,
    gemm: GemmPhase,
    pool: PoolStats,
}

struct World {
    t_call: Instant,
    ranks: Vec<RankOut>,
    traces: Vec<RankTrace>,
}

fn rank_body(
    comm: Comm,
    grid: Grid,
    data: &[Batch],
    warmup: usize,
    stop: Stop,
    t_call: Instant,
) -> RankOut {
    let world = ProcessGroup::new((0..comm.world_size()).collect());
    comm.barrier(&world);
    let launch_s = t_call.elapsed().as_secs_f64();
    let topo = GridTopology::new(grid.0, grid.1, grid.2, grid.3, comm.rank());
    let mut stack = TransformerStack::new(
        &topo,
        VOCAB,
        HIDDEN,
        HEADS,
        LAYERS,
        SEQ_LEN,
        MODEL_SEED,
        OverlapConfig::all(),
    );
    let mut step = 0usize;
    let mut train_step = |stack: &mut TransformerStack| {
        let (tokens, targets) = &data[step % data.len()];
        step += 1;
        stack.train_step(&comm, &topo, tokens, targets, LR)
    };
    for _ in 0..warmup {
        train_step(&mut stack);
    }
    let mut out = RankOut {
        launch_s,
        setup_s: t_call.elapsed().as_secs_f64(),
        losses: Vec::new(),
        step_start_s: Vec::new(),
        step_s: Vec::new(),
        lap_s: Vec::new(),
        windows: Vec::new(),
        gemm: GemmPhase::default(),
        pool: PoolStats::default(),
    };
    let pool0 = comm.pool_stats();
    let _ = take_gemm_phase();
    let t_timed = Instant::now();
    loop {
        let lap_steps = match stop {
            Stop::Steps(n) => LAP_STEPS.min(n - out.step_s.len()),
            Stop::Seconds(_) => LAP_STEPS,
        };
        let t_lap = Instant::now();
        for _ in 0..lap_steps {
            let w0 = comm.tracer().map(|t| t.now_ns());
            let t0 = Instant::now();
            let loss = train_step(&mut stack);
            out.step_s.push(t0.elapsed().as_secs_f64());
            out.step_start_s
                .push(t0.duration_since(t_call).as_secs_f64());
            out.losses.push(loss);
            if let (Some(w0), Some(t)) = (w0, comm.tracer()) {
                out.windows.push((w0, t.now_ns()));
            }
        }
        if lap_steps == LAP_STEPS {
            out.lap_s.push(t_lap.elapsed().as_secs_f64());
        }
        // Rank 0's clock decides; a collective carries the decision so
        // that a panicked peer poisons this wait instead of hanging it.
        let done = match stop {
            Stop::Steps(n) => out.step_s.len() >= n,
            Stop::Seconds(s) => t_timed.elapsed().as_secs_f64() >= s,
        };
        let mut flag = [if comm.rank() == 0 && done { 1.0 } else { 0.0 }];
        comm.all_reduce_max(&world, &mut flag);
        if flag[0] > 0.0 {
            break;
        }
    }
    out.gemm = take_gemm_phase();
    let pool1 = comm.pool_stats();
    out.pool = PoolStats {
        hits: pool1.hits - pool0.hits,
        misses: pool1.misses - pool0.misses,
        alloc_bytes: pool1.alloc_bytes - pool0.alloc_bytes,
    };
    out
}

/// Launch one world. A panicking rank poisons its peers and `run_spmd`
/// re-raises it here; the caller reports that as failed operations.
fn run_world(
    grid: Grid,
    data: &Arc<Vec<Batch>>,
    warmup: usize,
    stop: Stop,
    traced: bool,
) -> Result<World, String> {
    let size = grid.0 * grid.1 * grid.2 * grid.3;
    let data = data.clone();
    let t_call = Instant::now();
    let body = move |comm: Comm| rank_body(comm, grid, &data, warmup, stop, t_call);
    let run = std::panic::catch_unwind(move || {
        if traced {
            let r = axonn_exec::run_spmd_traced(size, Arc::new(NullCost), body);
            (r.results, r.traces)
        } else {
            (axonn_exec::run_spmd(size, body), Vec::new())
        }
    });
    match run {
        Ok((ranks, traces)) => Ok(World {
            t_call,
            ranks,
            traces,
        }),
        Err(e) => Err(e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "a rank panicked".into())),
    }
}

/// Loss of the serial grid after the same warm-up and `CHECK_STEP` timed
/// steps on the same batches, and its median step time over `steps`.
fn serial_reference(
    data: &Arc<Vec<Batch>>,
    warmup: usize,
    steps: usize,
) -> Result<(f32, f64), String> {
    let w = run_world((1, 1, 1, 1), data, warmup, Stop::Steps(steps), false)?;
    let r = &w.ranks[0];
    Ok((r.losses[CHECK_STEP - 1], percentile(&r.step_s, 0.5)))
}

fn check_losses(world: &World, reference_loss: f32, outcome: &mut Outcome) {
    let r0 = &world.ranks[0];
    let non_finite = r0.losses.iter().filter(|l| !l.is_finite()).count();
    outcome.attempted = r0.losses.len();
    outcome.failed = non_finite;
    outcome.check(Check {
        name: "loss_finite",
        passed: non_finite == 0,
        detail: format!("{non_finite} of {} steps not finite", r0.losses.len()),
    });
    let agree = world.ranks.iter().all(|r| r.losses == r0.losses);
    outcome.check(Check {
        name: "ranks_agree",
        passed: agree,
        detail: format!("{} ranks, {} steps", world.ranks.len(), r0.losses.len()),
    });
    let got = r0.losses[CHECK_STEP - 1] as f64;
    let want = reference_loss as f64;
    let rel = ((got - want) / want).abs();
    outcome.check(Check {
        name: "loss_step10",
        passed: rel <= CHECK_REL_TOL,
        detail: format!("{got:.6} vs serial {want:.6} (rel {rel:.2e})"),
    });
    outcome.note("check.loss_step10", format!("{got:.6}"));
}

/// Tokens per second of each whole lap.
fn lap_rates(r: &RankOut) -> Vec<f64> {
    r.lap_s
        .iter()
        .map(|s| (LAP_STEPS * TOKENS_PER_STEP) as f64 / s)
        .collect()
}

/// The end-to-end run: tracing off, `sizing.setups` set-ups, then
/// `seconds` of timed steps on the last world.
pub fn run_untraced(w: &Workload, grid: Grid, seed: u64, seconds: f64, sizing: Sizing) -> Outcome {
    let data = batches(seed);
    let mut outcome = Outcome::new(w.name);
    let warmup = sizing.train_warmup_steps;
    let mut setups = Vec::new();
    // The timed world is the last set-up; the ones before it are worlds
    // that warm up and exit.
    while sizing.wants_setup(setups.len() + 1, setups.iter().sum()) {
        match run_world(grid, &data, warmup, Stop::Steps(0), false) {
            Ok(world) => setups.push(world.ranks[0].setup_s),
            Err(e) => return outcome.panicked(e),
        }
    }
    let world = match run_world(grid, &data, warmup, Stop::Seconds(seconds), false) {
        Ok(world) => world,
        Err(e) => return outcome.panicked(e),
    };
    // Before the checks, which build a second model.
    let peak_heap_mb = heap::peak_mb();
    let r0 = &world.ranks[0];
    setups.push(r0.setup_s);
    let rates = lap_rates(r0);
    let good = r0
        .step_s
        .iter()
        .filter(|s| ms(**s) <= w.limits_ms.0)
        .count();

    let m = &mut outcome.metrics;
    m.set("tokens_per_s", median(&rates));
    m.set("latency_ms_p50", ms(percentile(&r0.step_s, 0.5)));
    m.set("slo_goodput", good as f64 / r0.step_s.len() as f64);
    m.set("peak_heap_mb", peak_heap_mb);
    m.set("setup_s", median(&setups));
    outcome.note("laps", r0.lap_s.len().to_string());
    outcome.note("steps", r0.step_s.len().to_string());
    outcome.note("lap_spread", format!("{:.4}", iqr_over_median(&rates)));

    match serial_reference(&data, warmup, CHECK_STEP) {
        Ok((loss, _)) => check_losses(&world, loss, &mut outcome),
        Err(e) => return outcome.panicked(e),
    }
    outcome
}

/// Rank 0's trace events that fall inside the timed step windows.
#[derive(Default)]
struct Breakdown {
    fc_gemm_s: f64,
    fc_gemm_flops: f64,
    blocking_s: f64,
    async_s: f64,
    calls: u64,
    bytes: u64,
    fwd_s: f64,
    bwd_s: f64,
    events: u64,
}

fn breakdown(trace: &RankTrace, windows: &[(u64, u64)]) -> Breakdown {
    let mut b = Breakdown::default();
    for e in &trace.events {
        // Windows are disjoint and ascending: find the last one starting
        // at or before the event.
        let i = windows.partition_point(|w| w.0 <= e.wall_start_ns);
        if i == 0 || e.wall_start_ns > windows[i - 1].1 {
            continue; // warm-up, or the lap-boundary flag exchange
        }
        b.events += 1;
        let wall_s = e.wall_end_ns.saturating_sub(e.wall_start_ns) as f64 * 1e-9;
        match &e.detail {
            EventDetail::Gemm { flops, .. } => {
                b.fc_gemm_s += wall_s;
                b.fc_gemm_flops += flops;
            }
            EventDetail::Collective { bytes, .. } => {
                b.calls += 1;
                b.bytes += bytes;
                if e.stream == Stream::Compute {
                    b.blocking_s += wall_s;
                } else {
                    b.async_s += wall_s;
                }
            }
            EventDetail::LayerFwd { .. } => b.fwd_s += wall_s,
            EventDetail::LayerBwd { .. } => b.bwd_s += wall_s,
            _ => {}
        }
    }
    b
}

/// The per-layer run: a short untraced world for the tracing-overhead
/// base, then a traced world whose rank-0 trace is broken down by step.
pub fn run_traced(
    w: &Workload,
    grid: Grid,
    seed: u64,
    seconds: f64,
    sizing: Sizing,
    spans: &mut Spans,
) -> Outcome {
    let data = batches(seed);
    let mut outcome = Outcome::new(w.name);
    let warmup = sizing.train_warmup_steps;

    let span = spans.begin("untraced_base", None);
    let base = run_world(grid, &data, warmup, Stop::Seconds(0.3 * seconds), false);
    spans.end(span);
    let base = match base {
        Ok(world) => world,
        Err(e) => return outcome.panicked(e),
    };
    let span = spans.begin("timed", None);
    let world = run_world(grid, &data, warmup, Stop::Seconds(0.7 * seconds), true);
    let world = match world {
        Ok(world) => world,
        Err(e) => return outcome.panicked(e),
    };
    let peak_rss_mb = sys::peak_rss_mb();
    let r0 = &world.ranks[0];
    for (start, dur) in r0.step_start_s.iter().zip(&r0.step_s) {
        let ns = |s: f64| (s * 1e9) as u64;
        spans.push_measured("train_step", world.t_call, ns(*start), ns(start + dur));
    }
    spans.end(span);

    let steps = r0.step_s.len() as f64;
    let step_total_s: f64 = r0.step_s.iter().sum();
    let b = breakdown(&world.traces[0], &r0.windows);
    let per_step_ms = |s: f64| ms(s) / steps;
    let p50 = percentile(&r0.step_s, 0.5);
    let base_p50 = percentile(&base.ranks[0].step_s, 0.5);
    let lookups = (r0.pool.hits + r0.pool.misses).max(1);

    let m = &mut outcome.metrics;
    m.set(
        "tensor.gemm_ms_per_step",
        per_step_ms(r0.gemm.total_seconds()),
    );
    m.set(
        "tensor.gemm_nn_ms_per_step",
        per_step_ms(r0.gemm.nn_seconds),
    );
    m.set(
        "tensor.gemm_nt_ms_per_step",
        per_step_ms(r0.gemm.nt_seconds),
    );
    m.set(
        "tensor.gemm_tn_ms_per_step",
        per_step_ms(r0.gemm.tn_seconds),
    );
    m.set("tensor.gemm_calls_per_step", r0.gemm.calls as f64 / steps);
    m.set(
        "tensor.packed_mb_per_step",
        r0.gemm.packed_bytes as f64 / 1e6 / steps,
    );
    if b.fc_gemm_s > 0.0 {
        m.set("tensor.fc_gemm_gflops", b.fc_gemm_flops / b.fc_gemm_s / 1e9);
    }
    m.set(
        "collectives.blocking_ms_per_step",
        per_step_ms(b.blocking_s),
    );
    m.set("collectives.async_busy_ms_per_step", per_step_ms(b.async_s));
    m.set("collectives.calls_per_step", b.calls as f64 / steps);
    m.set("collectives.bytes_per_step", b.bytes as f64 / steps);
    m.set(
        "collectives.pool_miss_ratio",
        r0.pool.misses as f64 / lookups as f64,
    );
    m.set(
        "collectives.alloc_mb_per_step",
        r0.pool.alloc_bytes as f64 / 1e6 / steps,
    );
    m.set("core.layer_fwd_ms_per_step", per_step_ms(b.fwd_s));
    m.set("core.layer_bwd_ms_per_step", per_step_ms(b.bwd_s));
    m.set(
        "core.unattributed_share",
        1.0 - (r0.gemm.total_seconds() + b.blocking_s) / step_total_s,
    );
    let launches = [base.ranks[0].launch_s, r0.launch_s];
    m.set("exec.world_launch_ms", ms(median(&launches)));
    m.set("trace.overhead_share", (p50 - base_p50) / base_p50);
    m.set("trace.events_per_step", b.events as f64 / steps);
    m.set("harness.step_ms_p95", ms(percentile(&r0.step_s, 0.95)));
    m.set("harness.lap_spread", iqr_over_median(&lap_rates(r0)));
    m.set("harness.peak_rss_mb", peak_rss_mb);
    outcome.note("steps", r0.step_s.len().to_string());
    outcome.note(
        "untraced_base_steps",
        base.ranks[0].step_s.len().to_string(),
    );

    match serial_reference(&data, warmup, 3 * CHECK_STEP) {
        Ok((loss, serial_p50)) => {
            let ranks = world.ranks.len() as f64;
            // Both sides untraced: tokens/s of this grid over `ranks`
            // times the serial grid's.
            outcome
                .metrics
                .set("core.scaling_efficiency", serial_p50 / base_p50 / ranks);
            check_losses(&world, loss, &mut outcome);
        }
        Err(e) => return outcome.panicked(e),
    }
    outcome
}

/// The training model's full weights, for the checkpoint probe.
pub fn serial_weights() -> Vec<axonn_tensor::Matrix> {
    let topo = GridTopology::new(1, 1, 1, 1, 0);
    let mut stack = TransformerStack::new(
        &topo,
        VOCAB,
        HIDDEN,
        HEADS,
        LAYERS,
        SEQ_LEN,
        MODEL_SEED,
        OverlapConfig::all(),
    );
    let mut layers: Vec<axonn_tensor::Matrix> = Vec::new();
    for b in &mut stack.blocks {
        for fc in b.fc_layers_mut() {
            layers.push(fc.weight_shard().clone());
        }
    }
    layers.push(stack.head.weight_shard().clone());
    layers.push(stack.emb.table.clone());
    layers
}
