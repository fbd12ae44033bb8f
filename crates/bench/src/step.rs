//! Wall-clock training-step benchmark backing the CI perf-regression
//! gate.
//!
//! Unlike the figure binaries (which report *virtual* seconds from the
//! cost model), this module measures real elapsed time of
//! `Network4d::train_step` on a live thread world, plus a pooled
//! all-reduce microbenchmark, and compares the medians against a
//! committed baseline (`results/bench_step_baseline.json`). The CI
//! `perf-gate` job fails the build when the median step time regresses
//! by more than the threshold.

use std::time::Instant;

use axonn_collectives::{PoolStats, ProcessGroup};
use axonn_core::{Activation, GradSyncMode, GridTopology, NetConfig, Network4d, OverlapConfig};
use axonn_exec::run_spmd;
use axonn_tensor::{gemm_into_stats, take_gemm_phase, MatMode, Matrix};
use serde::{Deserialize, Serialize};

/// Grid and workload for the gate benchmark. Small enough to finish in
/// seconds on a CI runner, large enough that the transport (pooled
/// all-gathers/all-reduces across the 2×1×2×1 grid) dominates noise.
pub struct StepBenchConfig {
    /// Grid shape `(gx, gy, gz, gd)`; world size is the product.
    pub grid: (usize, usize, usize, usize),
    /// Global feature sizes (`dims.len() - 1` layers).
    pub dims: Vec<usize>,
    /// Global batch rows.
    pub batch: usize,
    /// Timed iterations.
    pub iters: usize,
    /// Untimed warmup iterations (fills the buffer pool).
    pub warmup: usize,
    /// Element count for the all-reduce microbenchmark.
    pub allreduce_elems: usize,
    /// Gradient-sync schedule to benchmark: the bucketed ZeRO-1
    /// pipeline (default) or the serial per-tensor oracle — useful for
    /// measuring the pipeline's win on the same grid.
    pub grad_sync: GradSyncMode,
}

impl Default for StepBenchConfig {
    fn default() -> Self {
        StepBenchConfig {
            // gd = 2 so the gate also covers the data-parallel tail —
            // the bucketed gradient pipeline and ZeRO-1 sharded step.
            // Per-rank compute is identical to the old 2×1×2×1 grid
            // (same world size, same local batch rows).
            grid: (2, 1, 1, 2),
            // Large enough (~30 ms/step) that scheduler jitter amortizes;
            // a smaller step makes the gate median too noisy to compare
            // across runs.
            dims: vec![256, 512, 256],
            batch: 64,
            iters: 30,
            warmup: 5,
            allreduce_elems: 1 << 20,
            grad_sync: GradSyncMode::default(),
        }
    }
}

/// One benchmark run, as written to `results/BENCH_step_time.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepBenchReport {
    /// Median wall time of one `train_step`, milliseconds.
    pub median_step_ms: f64,
    /// Fastest / slowest timed iteration, milliseconds.
    pub min_step_ms: f64,
    pub max_step_ms: f64,
    /// Median wall time of one pooled all-reduce of
    /// `allreduce_elems` f32s, milliseconds.
    pub median_allreduce_ms: f64,
    /// Median wall time of the ORS-drain + data-parallel gradient phase
    /// inside `train_step` (the bucketed pipeline, or the per-tensor
    /// oracle), milliseconds.
    pub median_grad_sync_ms: f64,
    /// Median wall time rank 0 spent inside GEMM kernels per step
    /// (the compute phase the blocked/packed rewrite attacks),
    /// milliseconds.
    pub median_compute_ms: f64,
    /// Gate statistics: median of the *fastest half* of iterations.
    /// The raw median absorbs scheduler contention spikes (slow-tail
    /// outliers on loaded runners); the fast-half median tracks the
    /// achievable step time and is what the CI gate compares.
    pub gate_step_ms: f64,
    pub gate_allreduce_ms: f64,
    pub gate_grad_sync_ms: f64,
    /// Fast-half medians of the per-step GEMM phase, total and split by
    /// transposition mode.
    pub gate_compute_ms: f64,
    pub gate_compute_nn_ms: f64,
    pub gate_compute_nt_ms: f64,
    pub gate_compute_tn_ms: f64,
    /// Pack-buffer traffic of one step on rank 0 (bytes written into the
    /// thread-local operand panels).
    pub packed_bytes_per_step: u64,
    /// Whether a vector GEMM micro-kernel ran (the `simd` build on a
    /// machine with AVX-512F and FMA).
    pub simd_active: bool,
    /// World size and iteration count the medians were taken over.
    pub world_size: usize,
    pub iters: usize,
    /// Transport buffer-pool counters over the whole run (warmup
    /// included): recycled checkouts vs fresh allocations.
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_alloc_bytes: u64,
}

/// What rank 0 returns from the benchmark world (the other ranks return
/// `None`).
struct RankTimings {
    step_ms: Vec<f64>,
    sync_ms: Vec<f64>,
    ar_ms: Vec<f64>,
    /// Per-iteration GEMM phase on rank 0: (total, NN, NT, TN) ms.
    compute_ms: Vec<(f64, f64, f64, f64)>,
    packed_bytes: u64,
    pool: PoolStats,
}

fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Median of the fastest half of the samples (sorts in place).
fn fast_half_median(samples: &mut [f64]) -> f64 {
    let _ = median(samples); // sorts
    let half = samples.len().div_ceil(2);
    median(&mut samples[..half].to_vec())
}

/// Artificial slowdown multiplier for gate self-tests: every measured
/// duration is scaled by `AXONN_BENCH_SLOWDOWN` (e.g. `2.0`). Lets CI
/// changes to the gate be exercised without a real regression.
fn slowdown() -> f64 {
    std::env::var("AXONN_BENCH_SLOWDOWN")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Run the benchmark: `warmup + iters` barrier-bracketed training steps
/// and an all-reduce microbench on a fresh world, timings taken on
/// rank 0.
pub fn run_step_bench(cfg: &StepBenchConfig) -> StepBenchReport {
    let (gx, gy, gz, gd) = cfg.grid;
    let world_size = gx * gy * gz * gd;
    let dims = cfg.dims.clone();
    let batch = cfg.batch;
    let iters = cfg.iters;
    let warmup = cfg.warmup;
    let ar_elems = cfg.allreduce_elems;
    let grad_sync = cfg.grad_sync;

    let results: Vec<Option<RankTimings>> = run_spmd(world_size, move |comm| {
        let rank = comm.rank();
        let grid = GridTopology::new(gx, gy, gz, gd, rank);
        let mut net = Network4d::with_config(
            comm.clone(),
            grid,
            &dims,
            Activation::Gelu,
            7,
            NetConfig {
                overlap: OverlapConfig::all(),
                grad_sync,
                ..NetConfig::default()
            },
        );
        let x = Matrix::random(batch, dims[0], 1.0, 11);
        let t = Matrix::random(batch, dims[dims.len() - 1], 1.0, 13);
        let world = ProcessGroup::new((0..world_size).collect());

        let mut step_ms = Vec::with_capacity(iters);
        let mut sync_ms = Vec::with_capacity(iters);
        let mut compute_ms = Vec::with_capacity(iters);
        let mut packed_bytes = 0u64;
        let _ = take_gemm_phase(); // drop any stale accumulation
        for i in 0..warmup + iters {
            comm.barrier(&world);
            let t0 = Instant::now();
            net.train_step(&x, &t, 0.01);
            comm.barrier(&world);
            // Drain every iteration so each sample covers one step.
            let phase = take_gemm_phase();
            if i >= warmup {
                step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                sync_ms.push(net.last_grad_sync_seconds() * 1e3);
                compute_ms.push((
                    phase.total_seconds() * 1e3,
                    phase.nn_seconds * 1e3,
                    phase.nt_seconds * 1e3,
                    phase.tn_seconds * 1e3,
                ));
                packed_bytes = phase.packed_bytes;
            }
        }

        let buf = vec![1.0f32; ar_elems];
        let mut ar_ms = Vec::with_capacity(iters);
        for i in 0..warmup + iters {
            let mut work = buf.clone();
            comm.barrier(&world);
            let t0 = Instant::now();
            comm.all_reduce(&world, &mut work);
            comm.barrier(&world);
            if i >= warmup {
                ar_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }

        if rank == 0 {
            Some(RankTimings {
                step_ms,
                sync_ms,
                ar_ms,
                compute_ms,
                packed_bytes,
                pool: comm.pool_stats(),
            })
        } else {
            None
        }
    });

    let RankTimings {
        mut step_ms,
        mut sync_ms,
        mut ar_ms,
        compute_ms,
        packed_bytes,
        pool,
    } = results
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 must report timings");
    let scale = slowdown();
    // The per-mode samples gate on the iterations whose *total* compute
    // phase was fastest, so the four compute numbers describe the same
    // steps rather than a mix of different iterations' best cases.
    let mut by_total = compute_ms.clone();
    by_total.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sample"));
    let fast = &by_total[..by_total.len().div_ceil(2)];
    let gate_component = |pick: fn(&(f64, f64, f64, f64)) -> f64| {
        median(&mut fast.iter().map(pick).collect::<Vec<_>>())
    };
    let mut compute_total: Vec<f64> = compute_ms.iter().map(|c| c.0).collect();
    let simd_active = {
        let a = Matrix::random(32, 32, 1.0, 17);
        let b = Matrix::random(32, 32, 1.0, 19);
        let mut c = Matrix::zeros(32, 32);
        gemm_into_stats(MatMode::NN, &a, &b, &mut c).simd
    };
    StepBenchReport {
        median_step_ms: median(&mut step_ms) * scale,
        min_step_ms: step_ms.first().copied().unwrap_or(0.0) * scale,
        max_step_ms: step_ms.last().copied().unwrap_or(0.0) * scale,
        median_allreduce_ms: median(&mut ar_ms) * scale,
        median_grad_sync_ms: median(&mut sync_ms) * scale,
        median_compute_ms: median(&mut compute_total) * scale,
        gate_step_ms: fast_half_median(&mut step_ms) * scale,
        gate_allreduce_ms: fast_half_median(&mut ar_ms) * scale,
        gate_grad_sync_ms: fast_half_median(&mut sync_ms) * scale,
        gate_compute_ms: gate_component(|c| c.0) * scale,
        gate_compute_nn_ms: gate_component(|c| c.1) * scale,
        gate_compute_nt_ms: gate_component(|c| c.2) * scale,
        gate_compute_tn_ms: gate_component(|c| c.3) * scale,
        packed_bytes_per_step: packed_bytes,
        simd_active,
        world_size,
        iters,
        pool_hits: pool.hits,
        pool_misses: pool.misses,
        pool_alloc_bytes: pool.alloc_bytes,
    }
}

/// Outcome of comparing a fresh report against the committed baseline.
#[derive(Debug, Clone, Serialize)]
pub struct GateVerdict {
    /// Relative change of the median step time vs baseline
    /// (`0.2` = 20% slower, negative = faster).
    pub step_delta: f64,
    /// Relative change of the all-reduce microbench median.
    pub allreduce_delta: f64,
    /// Relative change of the per-step GEMM compute phase — the number
    /// the blocked/packed kernel rewrite moves. Zero when the baseline
    /// predates the compute-phase fields.
    pub compute_delta: f64,
    /// Allowed regression before the gate fails.
    pub threshold: f64,
    /// Absolute ceiling on the all-reduce gate median, when one is set.
    /// A ratchet: unlike the relative threshold it cannot drift upward
    /// across baseline refreshes.
    pub allreduce_ceiling_ms: Option<f64>,
    /// `true` when the ceiling is set and `gate_allreduce_ms` exceeds it.
    pub allreduce_over_ceiling: bool,
    /// Absolute ceiling on the step gate median, when one is set — the
    /// same ratchet, pinned below the pre-rewrite baseline so the
    /// blocked-kernel win cannot silently erode.
    pub step_ceiling_ms: Option<f64>,
    /// `true` when the step ceiling is set and `gate_step_ms` exceeds it.
    pub step_over_ceiling: bool,
    /// `true` when `step_delta > threshold` or a ceiling is breached.
    pub regressed: bool,
}

/// Compare `current` against `baseline` with the given regression
/// threshold (fraction, e.g. `0.2` for 20%). The end-to-end step median
/// gates relatively; `max_allreduce_ms`, when set, additionally gates
/// the all-reduce microbench against an absolute ceiling so the
/// collective fast path can only ratchet forward.
pub fn compare(
    current: &StepBenchReport,
    baseline: &StepBenchReport,
    threshold: f64,
    max_allreduce_ms: Option<f64>,
    max_step_ms: Option<f64>,
) -> GateVerdict {
    let rel = |now: f64, then: f64| {
        if then > 0.0 {
            (now - then) / then
        } else {
            0.0
        }
    };
    let step_delta = rel(current.gate_step_ms, baseline.gate_step_ms);
    let ar_over = max_allreduce_ms.is_some_and(|cap| current.gate_allreduce_ms > cap);
    let step_over = max_step_ms.is_some_and(|cap| current.gate_step_ms > cap);
    GateVerdict {
        step_delta,
        allreduce_delta: rel(current.gate_allreduce_ms, baseline.gate_allreduce_ms),
        compute_delta: rel(current.gate_compute_ms, baseline.gate_compute_ms),
        threshold,
        allreduce_ceiling_ms: max_allreduce_ms,
        allreduce_over_ceiling: ar_over,
        step_ceiling_ms: max_step_ms,
        step_over_ceiling: step_over,
        regressed: step_delta > threshold || ar_over || step_over,
    }
}

/// Load a previously emitted report from a JSON file.
pub fn load_report(path: &std::path::Path) -> Result<StepBenchReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(step: f64, ar: f64) -> StepBenchReport {
        StepBenchReport {
            median_step_ms: step,
            min_step_ms: step,
            max_step_ms: step,
            median_allreduce_ms: ar,
            median_grad_sync_ms: step / 10.0,
            median_compute_ms: step / 2.0,
            gate_step_ms: step,
            gate_allreduce_ms: ar,
            gate_grad_sync_ms: step / 10.0,
            gate_compute_ms: step / 2.0,
            gate_compute_nn_ms: step / 4.0,
            gate_compute_nt_ms: step / 8.0,
            gate_compute_tn_ms: step / 8.0,
            packed_bytes_per_step: 0,
            simd_active: false,
            world_size: 4,
            iters: 5,
            pool_hits: 0,
            pool_misses: 0,
            pool_alloc_bytes: 0,
        }
    }

    #[test]
    fn gate_passes_within_threshold_and_fails_beyond() {
        let base = report(10.0, 2.0);
        let ok = compare(&report(11.5, 2.0), &base, 0.2, None, None);
        assert!(!ok.regressed, "15% slower must pass a 20% gate");
        let bad = compare(&report(25.0, 2.0), &base, 0.2, None, None);
        assert!(bad.regressed, "2.5x slower must fail");
        assert!(bad.step_delta > 1.4 && bad.step_delta < 1.6);
        // report() scales compute with step, so the delta tracks it.
        assert!(bad.compute_delta > 1.4 && bad.compute_delta < 1.6);
    }

    #[test]
    fn allreduce_ceiling_gates_independently_of_step_delta() {
        let base = report(10.0, 2.0);
        // Step within threshold but all-reduce above the absolute cap:
        // the ceiling must fail the gate on its own.
        let capped = compare(&report(10.5, 3.0), &base, 0.2, Some(2.5), None);
        assert!(capped.allreduce_over_ceiling);
        assert!(capped.regressed, "ceiling breach must fail the gate");
        assert_eq!(capped.allreduce_ceiling_ms, Some(2.5));
        // Same run under the cap passes; no ceiling means no ceiling gate.
        let under = compare(&report(10.5, 2.4), &base, 0.2, Some(2.5), None);
        assert!(!under.allreduce_over_ceiling && !under.regressed);
        let uncapped = compare(&report(10.5, 99.0), &base, 0.2, None, None);
        assert!(!uncapped.allreduce_over_ceiling && !uncapped.regressed);
    }

    #[test]
    fn step_ceiling_ratchets_the_blocked_kernel_win() {
        // The baseline itself sits *under* the cap (post-rewrite world);
        // a run that drifts back above it must fail even when the
        // relative threshold would tolerate the drift.
        let base = report(10.0, 2.0);
        let drifted = compare(&report(11.0, 2.0), &base, 0.2, None, Some(10.5));
        assert!(drifted.step_over_ceiling);
        assert!(drifted.regressed, "step ceiling breach must fail");
        assert_eq!(drifted.step_ceiling_ms, Some(10.5));
        let held = compare(&report(10.2, 2.0), &base, 0.2, None, Some(10.5));
        assert!(!held.step_over_ceiling && !held.regressed);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(12.25, 3.5);
        let text = serde_json::to_string(&r).unwrap();
        let back: StepBenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.median_step_ms, r.median_step_ms);
        assert_eq!(back.pool_alloc_bytes, r.pool_alloc_bytes);
    }

    #[test]
    fn median_of_even_and_odd_sample_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn fast_half_median_ignores_slow_tail() {
        // Fastest half of [1,2,3,100] is [1,2] -> 1.5; the contention
        // spike at 100 must not move the gate statistic.
        assert_eq!(fast_half_median(&mut [100.0, 2.0, 1.0, 3.0]), 1.5);
    }

    #[test]
    fn tiny_bench_run_produces_sane_report() {
        let cfg = StepBenchConfig {
            grid: (2, 1, 1, 1),
            dims: vec![16, 32, 16],
            batch: 8,
            iters: 2,
            warmup: 1,
            allreduce_elems: 4096,
            grad_sync: GradSyncMode::default(),
        };
        let r = run_step_bench(&cfg);
        assert_eq!(r.world_size, 2);
        assert!(r.median_step_ms > 0.0);
        assert!(r.median_allreduce_ms > 0.0);
        assert!(
            r.median_compute_ms > 0.0 && r.median_compute_ms < r.median_step_ms,
            "GEMM phase must be timed and lie inside the step, got {r:?}"
        );
        assert!(
            r.gate_compute_nn_ms > 0.0 && r.gate_compute_nt_ms > 0.0 && r.gate_compute_tn_ms > 0.0,
            "a training step exercises all three GEMM modes, got {r:?}"
        );
        assert!(
            r.packed_bytes_per_step > 0,
            "blocked kernels must report pack traffic, got {r:?}"
        );
        assert!(
            r.median_grad_sync_ms > 0.0 && r.median_grad_sync_ms < r.median_step_ms,
            "grad-sync phase must be timed and lie inside the step, got {r:?}"
        );
        assert!(
            r.pool_hits > 0,
            "repeated steps must recycle pooled slabs, got {r:?}"
        );
    }
}
