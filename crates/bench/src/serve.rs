//! Closed-loop serving benchmark backing the CI `serve` gate.
//!
//! Pushes a fixed number of simulated client requests through the
//! continuous-batching [`axonn_serve::ServeEngine`] with the
//! [`axonn_serve::load`] generator and reports wall-clock TTFT and
//! per-request decode-throughput percentiles. The CI job compares the
//! medians against a committed baseline
//! (`results/bench_serve_baseline.json`) and fails when either regresses
//! by more than the threshold, or when aggregate throughput falls under
//! an absolute floor (a ratchet, like `bench_step`'s ceilings).
//!
//! Every run also sweeps `max_active` over [`SWEEP_MAX_ACTIVE`] with the
//! same traffic: since the engine decodes all live streams in one
//! batched forward, GEMM calls per token fall as `1 / batch` and
//! aggregate tokens/s rises until the GEMMs are compute-bound.

use axonn_lm::{Gpt, GptModelConfig};
use axonn_serve::{run_load, LoadConfig, LoadOutcome, Sampling, ServeConfig, ServeEngine};
use axonn_tensor::{take_gemm_phase, GemmPhase};
use axonn_trace::LiveRegistry;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Model and traffic shape for the serving benchmark. The model is an
/// untrained toy GPT — the scheduler and decode math cost the same
/// whether the weights are trained, and greedy decode is deterministic
/// either way.
pub struct ServeBenchConfig {
    pub model: GptModelConfig,
    pub engine: ServeConfig,
    pub load: LoadConfig,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            model: GptModelConfig {
                vocab: 64,
                seq_len: 32,
                dim: 32,
                n_heads: 4,
                n_layers: 2,
                seed: 17,
            },
            engine: ServeConfig {
                max_queue: 64,
                max_active: 8,
                max_batch_tokens: 64,
                sampling: Sampling::Greedy,
                seed: 0,
            },
            load: LoadConfig {
                clients: 16,
                total_requests: 1000,
                mean_think_steps: 1.5,
                prompt_len: (4, 12),
                max_new_tokens: (4, 12),
                deadline_steps: None,
                seed: 7,
                max_steps: 5_000_000,
            },
        }
    }
}

/// One serving-benchmark run, as written to `results/BENCH_serve.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBenchReport {
    /// Requests pushed through the scheduler to completion.
    pub completed: usize,
    pub evicted: usize,
    /// Overload rejections absorbed by client retry.
    pub rejected_retries: usize,
    pub engine_steps: u64,
    pub wall_s: f64,
    pub total_tokens: u64,
    /// Wall-clock time-to-first-token percentiles, milliseconds.
    pub ttft_p50_ms: f64,
    pub ttft_p99_ms: f64,
    /// Per-request decode throughput percentiles, tokens/second.
    pub tokens_per_s_p50: f64,
    pub tokens_per_s_p99: f64,
    /// Completed tokens over the whole run.
    pub aggregate_tokens_per_s: f64,
    pub clients: usize,
    pub max_active: usize,
    /// The same traffic at each `max_active` of [`SWEEP_MAX_ACTIVE`].
    pub sweep: Vec<SweepPoint>,
}

/// Decode-slot counts the sweep visits.
pub const SWEEP_MAX_ACTIVE: [usize; 5] = [1, 2, 4, 8, 16];

/// One `max_active` setting of the sweep. The per-token figures are
/// exact counts (`tensor::take_gemm_phase` over the run, prefill
/// included) and repeat for a seed; the rate is wall-clock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    pub max_active: usize,
    pub aggregate_tokens_per_s: f64,
    pub tokens_per_step: f64,
    pub gemm_calls_per_token: f64,
    pub packed_bytes_per_token: f64,
}

/// Artificial slowdown multiplier for gate self-tests
/// (`AXONN_BENCH_SLOWDOWN`, same hook as `bench_step`): latencies are
/// scaled up, throughputs down.
fn slowdown() -> f64 {
    std::env::var("AXONN_BENCH_SLOWDOWN")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// One load run on a fresh engine with `max_active` decode slots, and
/// the GEMM work it did on this thread.
fn run_once(cfg: &ServeBenchConfig, max_active: usize) -> (LoadOutcome, GemmPhase) {
    let model = Arc::new(Gpt::new(cfg.model.clone()));
    let engine_cfg = ServeConfig {
        max_active,
        ..cfg.engine.clone()
    };
    let mut engine = ServeEngine::new(model, engine_cfg, &LiveRegistry::new_enabled(true));
    let _ = take_gemm_phase();
    let out = run_load(&mut engine, &cfg.load);
    assert_eq!(
        out.completed + out.evicted,
        cfg.load.total_requests,
        "load run did not resolve every request"
    );
    (out, take_gemm_phase())
}

/// Run the closed-loop benchmark, then the `max_active` sweep.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> ServeBenchReport {
    let (out, _) = run_once(cfg, cfg.engine.max_active);
    let scale = slowdown();
    let sweep = SWEEP_MAX_ACTIVE
        .iter()
        .map(|&max_active| {
            let (out, gemm) = run_once(cfg, max_active);
            let tokens = out.total_tokens.max(1) as f64;
            SweepPoint {
                max_active,
                aggregate_tokens_per_s: out.aggregate_tokens_per_s / scale,
                tokens_per_step: tokens / out.steps.max(1) as f64,
                gemm_calls_per_token: gemm.calls as f64 / tokens,
                packed_bytes_per_token: gemm.packed_bytes as f64 / tokens,
            }
        })
        .collect();
    ServeBenchReport {
        completed: out.completed,
        evicted: out.evicted,
        rejected_retries: out.rejected,
        engine_steps: out.steps,
        wall_s: out.wall_s * scale,
        total_tokens: out.total_tokens,
        ttft_p50_ms: out.ttft_p50_s * 1e3 * scale,
        ttft_p99_ms: out.ttft_p99_s * 1e3 * scale,
        tokens_per_s_p50: out.tokens_per_s_p50 / scale,
        tokens_per_s_p99: out.tokens_per_s_p99 / scale,
        aggregate_tokens_per_s: out.aggregate_tokens_per_s / scale,
        clients: cfg.load.clients,
        max_active: cfg.engine.max_active,
        sweep,
    }
}

/// Outcome of comparing a fresh serving report against the baseline.
#[derive(Debug, Clone, Serialize)]
pub struct ServeGateVerdict {
    /// Relative change of median TTFT (`0.2` = 20% slower).
    pub ttft_delta: f64,
    /// Relative *drop* of median per-request throughput
    /// (`0.2` = 20% slower decode).
    pub rate_delta: f64,
    pub threshold: f64,
    /// Absolute floor on aggregate tokens/s, when one was asked for.
    pub min_tokens_per_s: Option<f64>,
    /// `true` when aggregate tokens/s fell under that floor.
    pub under_floor: bool,
    /// `true` when either delta exceeds the threshold or the floor broke.
    pub regressed: bool,
}

/// Gate on both medians: TTFT must not rise and per-request decode
/// throughput must not fall by more than `threshold`. `min_tokens_per_s`
/// is the ratchet: an absolute floor on aggregate tokens/s that holds
/// even after the baseline is refreshed.
pub fn compare_serve(
    current: &ServeBenchReport,
    baseline: &ServeBenchReport,
    threshold: f64,
    min_tokens_per_s: Option<f64>,
) -> ServeGateVerdict {
    let ttft_delta = if baseline.ttft_p50_ms > 0.0 {
        (current.ttft_p50_ms - baseline.ttft_p50_ms) / baseline.ttft_p50_ms
    } else {
        0.0
    };
    // Throughput gates on the *drop*: positive when current is slower.
    let rate_delta = if baseline.tokens_per_s_p50 > 0.0 {
        (baseline.tokens_per_s_p50 - current.tokens_per_s_p50) / baseline.tokens_per_s_p50
    } else {
        0.0
    };
    let under_floor = min_tokens_per_s.is_some_and(|floor| current.aggregate_tokens_per_s < floor);
    ServeGateVerdict {
        ttft_delta,
        rate_delta,
        threshold,
        min_tokens_per_s,
        under_floor,
        regressed: ttft_delta > threshold || rate_delta > threshold || under_floor,
    }
}

/// Load a previously emitted serving report.
pub fn load_serve_report(path: &std::path::Path) -> Result<ServeBenchReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ttft_ms: f64, rate: f64) -> ServeBenchReport {
        ServeBenchReport {
            completed: 100,
            evicted: 0,
            rejected_retries: 0,
            engine_steps: 500,
            wall_s: 1.0,
            total_tokens: 800,
            ttft_p50_ms: ttft_ms,
            ttft_p99_ms: ttft_ms * 3.0,
            tokens_per_s_p50: rate,
            tokens_per_s_p99: rate * 2.0,
            aggregate_tokens_per_s: rate * 8.0,
            clients: 16,
            max_active: 8,
            sweep: Vec::new(),
        }
    }

    #[test]
    fn gate_trips_on_ttft_or_throughput_regression() {
        let base = report(2.0, 1000.0);
        assert!(!compare_serve(&report(2.2, 1000.0), &base, 0.2, None).regressed);
        assert!(compare_serve(&report(2.5, 1000.0), &base, 0.2, None).regressed);
        assert!(compare_serve(&report(2.0, 700.0), &base, 0.2, None).regressed);
        assert!(!compare_serve(&report(1.5, 1200.0), &base, 0.2, None).regressed);
    }

    #[test]
    fn floor_holds_against_a_refreshed_baseline() {
        // Aggregate is 8× the per-request rate in `report`. A run that
        // matches a (slow, refreshed) baseline still fails the floor.
        let slow = report(2.0, 500.0);
        let held = compare_serve(&slow, &slow, 0.2, Some(3000.0));
        assert!(!held.under_floor && !held.regressed);
        let broke = compare_serve(&slow, &slow, 0.2, Some(5000.0));
        assert!(broke.under_floor && broke.regressed);
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report(1.25, 512.0);
        let text = serde_json::to_string(&r).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.ttft_p50_ms, r.ttft_p50_ms);
        assert_eq!(back.completed, r.completed);
    }

    #[test]
    fn tiny_serve_bench_resolves_all_requests() {
        let mut cfg = ServeBenchConfig::default();
        cfg.load.total_requests = 40;
        cfg.load.clients = 4;
        let r = run_serve_bench(&cfg);
        assert_eq!(r.completed, 40);
        assert!(r.ttft_p50_ms > 0.0 && r.ttft_p99_ms >= r.ttft_p50_ms);
        assert!(r.tokens_per_s_p50 > 0.0);
        assert!(r.total_tokens >= 40 * 4);
        // The sweep: more slots, more tokens per engine step and fewer
        // GEMM calls per token (one batched forward per step), and no
        // weight packing beyond prefill's activations at any point.
        let slots: Vec<usize> = r.sweep.iter().map(|p| p.max_active).collect();
        assert_eq!(slots, SWEEP_MAX_ACTIVE);
        let (one, four) = (&r.sweep[0], &r.sweep[2]);
        assert!(four.tokens_per_step > one.tokens_per_step);
        assert!(four.gemm_calls_per_token < one.gemm_calls_per_token);
        assert!(r.sweep.iter().all(|p| p.aggregate_tokens_per_s > 0.0));
    }

    #[test]
    fn slowdown_hook_scales_the_gate_metrics() {
        let mut cfg = ServeBenchConfig::default();
        cfg.load.total_requests = 20;
        cfg.load.clients = 2;
        std::env::set_var("AXONN_BENCH_SLOWDOWN", "4.0");
        let slow = run_serve_bench(&cfg);
        std::env::remove_var("AXONN_BENCH_SLOWDOWN");
        let fast = run_serve_bench(&cfg);
        assert!(
            slow.ttft_p50_ms > fast.ttft_p50_ms * 2.0,
            "slowdown hook must inflate TTFT: {} vs {}",
            slow.ttft_p50_ms,
            fast.ttft_p50_ms
        );
    }
}
