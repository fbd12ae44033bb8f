//! Perfmodel drift report: measured collective latencies vs. the ring
//! model's Eq. 1–5 predictions, bucketed by message size.
//!
//! ROADMAP item 5 asks for the estimator to be validated against real
//! counters. This module produces the falsifiable artifact: it runs the
//! actual thread-backed collectives at several message sizes, takes
//! wall-clock medians, calibrates an effective bandwidth `β̂` from the
//! largest all-reduce (the bandwidth-dominated regime), then predicts
//! every other (op, size) point with `RingCostModel` under that `β̂`.
//! The measured/predicted ratio per point is the drift — near 1.0 in
//! the bandwidth regime, systematically above 1.0 at small sizes where
//! the α latency term (Assumption-3 sets it to zero) dominates reality.
//!
//! The report is written as `results/DRIFT_perfmodel.json` by the
//! `drift` binary.
//!
//! The same falsifiability discipline now covers the compute terms: the
//! GEMM drift sweep times this host's real `axonn-tensor` kernels across
//! modes and shapes, fits a [`CalibratedGemm`] saturating-rate curve to
//! the NN points, and reports the measured/predicted ratio of every
//! other point — plus a kernel table (portable vs best-ISA blocked
//! GF/s) that documents what the vector micro-kernel buys.

use axonn_cluster::{CalibratedGemm, GemmMode, GemmSample};
use axonn_collectives::{AlgoPolicy, CostModel, ProcessGroup, RingCostModel, SchedKind};
use axonn_exec::run_spmd;
use axonn_tensor::{gemm_into, gemm_into_stats, gemm_into_with, BlockSizes, Isa, MatMode, Matrix};
use axonn_trace::{Histogram, SECONDS_BOUNDS};
use serde::{Serialize, Value};
use std::time::Instant;

/// Configuration of the drift sweep.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// World size (ring group spans all ranks).
    pub world: usize,
    /// Per-rank element counts to sweep (f32 elements).
    pub elems: Vec<usize>,
    /// Timed iterations per (op, size) point.
    pub iters: usize,
    /// Warmup iterations per point (discarded).
    pub warmup: usize,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            world: 4,
            elems: vec![1 << 10, 1 << 14, 1 << 18, 1 << 20],
            iters: 7,
            warmup: 2,
        }
    }
}

/// One measured-vs-predicted point.
#[derive(Debug, Clone)]
pub struct DriftEntry {
    /// Collective name (`all_gather`, `reduce_scatter`, `all_reduce`).
    pub op: &'static str,
    /// Algorithm the runtime's [`AlgoPolicy`] selects at this size
    /// (`ring`, `rh`, `rd`, `rhd`, `tree`) — the prediction is priced
    /// with the same algorithm's cost curve.
    pub algo: &'static str,
    /// Per-rank input elements.
    pub elems: usize,
    /// Bytes as charged to the cost model (the `n` of Eq. 1–5).
    pub bytes: u64,
    /// Group size `g`.
    pub group: usize,
    /// Median measured wall seconds.
    pub measured_s: f64,
    /// Eq. 1–5 prediction under the calibrated bandwidth.
    pub predicted_s: f64,
    /// measured / predicted (> 1 means the model is optimistic).
    pub ratio: f64,
}

impl Serialize for DriftEntry {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("op".into(), self.op.serialize()),
            ("algo".into(), self.algo.serialize()),
            ("elems".into(), self.elems.serialize()),
            ("bytes".into(), self.bytes.serialize()),
            ("group".into(), self.group.serialize()),
            ("measured_s".into(), self.measured_s.serialize()),
            ("predicted_s".into(), self.predicted_s.serialize()),
            ("ratio".into(), self.ratio.serialize()),
        ])
    }
}

/// The full drift report.
#[derive(Debug, Clone)]
pub struct DriftReport {
    /// World size the sweep ran on.
    pub world: usize,
    /// Effective link bandwidth (bytes/s) calibrated from the largest
    /// all-reduce point.
    pub bandwidth_estimate: f64,
    /// Every (op, size) point.
    pub entries: Vec<DriftEntry>,
    /// Per-op measured-latency histograms over the standard seconds
    /// buckets — the "per-collective measured latency histogram" the
    /// live plane also publishes, here in committed-artifact form.
    pub latency_hists: Vec<(String, Histogram)>,
    /// Compute-side drift: measured GEMM kernel rates vs the fitted
    /// [`CalibratedGemm`] curve. `None` until the caller runs
    /// [`run_gemm_drift`] and attaches it (the collective sweep and the
    /// GEMM sweep are independently configurable).
    pub gemm: Option<GemmDriftReport>,
}

impl Serialize for DriftReport {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("world".into(), self.world.serialize()),
            (
                "bandwidth_estimate".into(),
                self.bandwidth_estimate.serialize(),
            ),
            ("entries".into(), self.entries.serialize()),
            (
                "latency_hists".into(),
                Value::Object(
                    self.latency_hists
                        .iter()
                        .map(|(k, v)| (k.clone(), v.serialize()))
                        .collect(),
                ),
            ),
            ("gemm".into(), self.gemm.serialize()),
        ])
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// The measured collectives, by the ring kind the runtime's selection
/// starts from; an entry's `op` is the kind's label.
const OPS: [SchedKind; 3] = [
    SchedKind::AllGather,
    SchedKind::ReduceScatter,
    SchedKind::AllReduce,
];

/// The short name of the algorithm `kind` runs for the ring collective
/// `ring`: its label's suffix (`all_reduce_rhd` → `rhd`), or `ring`.
fn algo_name(ring: SchedKind, kind: SchedKind) -> &'static str {
    kind.label()
        .strip_prefix(ring.label())
        .and_then(|rest| rest.strip_prefix('_'))
        .unwrap_or("ring")
}

/// Run the sweep and assemble the report.
pub fn run_drift(cfg: &DriftConfig) -> DriftReport {
    let g = cfg.world;
    let iters = cfg.iters;
    let warmup = cfg.warmup;
    // (op, elems) -> median measured seconds.
    let mut measured: Vec<(SchedKind, usize, f64)> = Vec::new();
    for &elems in &cfg.elems {
        // One world per size; all three ops measured in it, each
        // barrier-bracketed so ranks start together and a slow rank
        // cannot smear into the next op's timing.
        let timings = run_spmd(g, move |c| {
            let group = ProcessGroup::new((0..g).collect());
            let mut out = Vec::new();
            for op in OPS {
                let mut samples = Vec::new();
                for i in 0..warmup + iters {
                    c.barrier(&group);
                    let t0 = Instant::now();
                    match op {
                        SchedKind::AllGather => {
                            let shard = vec![1.0f32; elems];
                            let _ = c.all_gather(&group, &shard);
                        }
                        SchedKind::ReduceScatter => {
                            let buf = vec![1.0f32; elems];
                            let _ = c.reduce_scatter(&group, &buf);
                        }
                        _ => {
                            let mut buf = vec![1.0f32; elems];
                            c.all_reduce(&group, &mut buf);
                        }
                    }
                    let dt = t0.elapsed().as_secs_f64();
                    if i >= warmup {
                        samples.push(dt);
                    }
                }
                out.push(median(samples));
            }
            out
        });
        // Per (op, size): the slowest rank's median — a collective is
        // only done when its last rank is done.
        for (k, op) in OPS.iter().enumerate() {
            let worst = timings.iter().map(|r| r[k]).fold(f64::MIN, f64::max);
            measured.push((*op, elems, worst));
        }
    }

    // Calibrate β̂ from the largest all-reduce: t = 2(g-1)/g · n/β.
    let (_, cal_elems, cal_t) = *measured
        .iter()
        .filter(|(op, _, _)| *op == SchedKind::AllReduce)
        .max_by_key(|(_, elems, _)| *elems)
        .expect("all_reduce measured");
    let gf = g as f64;
    let cal_bytes = SchedKind::AllReduce.charged_bytes(cal_elems, g) as f64;
    // The ring and halving/doubling all-reduces move the same
    // 2(g-1)/g · n bytes, so this calibration holds whichever of the two
    // the policy selects at the largest size.
    let bandwidth = (2.0 * (gf - 1.0) / gf * cal_bytes) / cal_t.max(1e-12);
    let model = RingCostModel::new(1e12, bandwidth);
    let policy = AlgoPolicy::from_env();

    let mut hists: Vec<(String, Histogram)> = OPS
        .iter()
        .map(|op| {
            (
                format!("collective.{}.measured_seconds_hist", op.label()),
                Histogram::new(SECONDS_BOUNDS.to_vec()),
            )
        })
        .collect();
    let entries = measured
        .into_iter()
        .map(|(op, elems, t)| {
            // The algorithm, charged bytes and cost curve are the
            // runtime's own: `elems` is the per-rank input (the
            // contributed shard for all-gather), as at a live issue.
            let kind = policy.select(op, elems, g);
            let bytes = kind.charged_bytes(elems, g);
            let predicted = model.collective_seconds(kind, g, bytes as f64, 1);
            let hist_idx = OPS.iter().position(|o| *o == op).expect("known op");
            hists[hist_idx].1.observe(t);
            DriftEntry {
                op: op.label(),
                algo: algo_name(op, kind),
                elems,
                bytes,
                group: g,
                measured_s: t,
                predicted_s: predicted,
                ratio: if predicted > 0.0 {
                    t / predicted
                } else {
                    f64::NAN
                },
            }
        })
        .collect();

    DriftReport {
        world: g,
        bandwidth_estimate: bandwidth,
        entries,
        latency_hists: hists,
        gemm: None,
    }
}

// ---------------------------------------------------------------------
// GEMM drift: measured kernel rates vs the calibrated compute model.
// ---------------------------------------------------------------------

/// Configuration of the GEMM drift sweep.
#[derive(Debug, Clone)]
pub struct GemmDriftConfig {
    /// `(m, k, n)` logical GEMM shapes, swept for every mode.
    pub shapes: Vec<(usize, usize, usize)>,
    /// Timed iterations per (mode, shape) point.
    pub iters: usize,
    /// Warmup iterations per point (discarded; also primes the
    /// thread-local pack buffers).
    pub warmup: usize,
}

impl Default for GemmDriftConfig {
    fn default() -> GemmDriftConfig {
        GemmDriftConfig {
            // Distinct smallest dimensions so the two-point NN fit has
            // leverage; big enough that the blocked kernel saturates.
            shapes: vec![(48, 48, 48), (128, 128, 128), (288, 288, 288)],
            iters: 5,
            warmup: 2,
        }
    }
}

/// One measured-vs-predicted GEMM point (the auto kernel: blocked, on
/// the best ISA compiled in and available).
#[derive(Debug, Clone, Serialize)]
pub struct GemmDriftEntry {
    /// Mode label (`NN`, `NT`, `TN`).
    pub mode: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Median measured wall seconds.
    pub measured_s: f64,
    /// Sustained throughput of the measured point, Gflop/s.
    pub measured_gflops: f64,
    /// Seconds the fitted [`CalibratedGemm`] predicts for this point.
    pub predicted_s: f64,
    /// measured / predicted (> 1 means the model is optimistic).
    pub ratio: f64,
}

/// Throughput of the blocked engine at one (mode, shape) point on the
/// portable micro-kernel and on the auto kernel (the best vector
/// micro-kernel available).
#[derive(Debug, Clone, Serialize)]
pub struct GemmKernelEntry {
    pub mode: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub portable_gflops: f64,
    pub auto_gflops: f64,
}

/// The GEMM drift report, written alongside the collective drift in
/// `results/DRIFT_perfmodel.json`.
#[derive(Debug, Clone, Serialize)]
pub struct GemmDriftReport {
    /// Fitted NN curve: asymptotic flop/s and half-saturation size.
    pub peak_flops: f64,
    pub half_sat: f64,
    /// Fitted per-mode throughput factors relative to the NN curve.
    pub nt_factor: f64,
    pub tn_factor: f64,
    /// Whether a vector (AVX-512) micro-kernel ran for the auto tier.
    pub simd_active: bool,
    /// Accepted measured/predicted band for the sweep points.
    pub tolerance_low: f64,
    pub tolerance_high: f64,
    pub entries: Vec<GemmDriftEntry>,
    pub kernels: Vec<GemmKernelEntry>,
}

impl GemmDriftReport {
    /// `true` when every sweep point's ratio lies inside the tolerance
    /// band — the acceptance criterion the perf gate prints.
    pub fn all_within_tolerance(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.ratio >= self.tolerance_low && e.ratio <= self.tolerance_high)
    }
}

const GEMM_MODES: [(MatMode, GemmMode, &str); 3] = [
    (MatMode::NN, GemmMode::NN, "NN"),
    (MatMode::NT, GemmMode::NT, "NT"),
    (MatMode::TN, GemmMode::TN, "TN"),
];

/// Operand matrices for a logical `m×k×n` product in `mode` (C is
/// `m×n`, contraction `k`), seeded deterministically.
fn gemm_operands(mode: MatMode, m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    let seed_a = (m * 31 + k) as u64;
    let seed_b = (k * 31 + n) as u64 + 1;
    match mode {
        MatMode::NN => (
            Matrix::random(m, k, 1.0, seed_a),
            Matrix::random(k, n, 1.0, seed_b),
        ),
        MatMode::NT => (
            Matrix::random(m, k, 1.0, seed_a),
            Matrix::random(n, k, 1.0, seed_b),
        ),
        MatMode::TN => (
            Matrix::random(k, m, 1.0, seed_a),
            Matrix::random(k, n, 1.0, seed_b),
        ),
    }
}

/// Median wall seconds of `f` over `iters` timed runs after `warmup`.
fn time_kernel<F: FnMut()>(iters: usize, warmup: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        if i >= warmup {
            samples.push(dt);
        }
    }
    median(samples)
}

/// Run the GEMM sweep, fit the compute model, and assemble the report.
/// Returns `None` when the configured shapes cannot pin the NN curve
/// (fewer than two distinct smallest dimensions).
pub fn run_gemm_drift(cfg: &GemmDriftConfig) -> Option<GemmDriftReport> {
    let mut samples: Vec<GemmSample> = Vec::new();
    let mut points: Vec<(&'static str, GemmMode, usize, usize, usize, f64)> = Vec::new();
    let mut kernels: Vec<GemmKernelEntry> = Vec::new();
    let mut simd_active = false;

    for &(mat_mode, gemm_mode, label) in &GEMM_MODES {
        for &(m, k, n) in &cfg.shapes {
            let (a, b) = gemm_operands(mat_mode, m, k, n);
            let mut c = Matrix::zeros(m, n);
            let flops = 2.0 * m as f64 * k as f64 * n as f64;

            simd_active |= gemm_into_stats(mat_mode, &a, &b, &mut c).simd;
            let auto_s = time_kernel(cfg.iters, cfg.warmup, || {
                gemm_into(mat_mode, &a, &b, &mut c);
            });
            let portable_s = time_kernel(cfg.iters, cfg.warmup, || {
                let _ =
                    gemm_into_with(mat_mode, &a, &b, &mut c, BlockSizes::default(), Isa::Scalar);
            });

            let rate = flops / auto_s.max(1e-12);
            samples.push(GemmSample {
                mode: gemm_mode,
                dim: m.min(k).min(n),
                rate,
            });
            points.push((label, gemm_mode, m, k, n, auto_s));
            kernels.push(GemmKernelEntry {
                mode: label,
                m,
                k,
                n,
                portable_gflops: flops / portable_s.max(1e-12) / 1e9,
                auto_gflops: rate / 1e9,
            });
        }
    }

    let cal = CalibratedGemm::fit(&samples)?;
    let entries = points
        .into_iter()
        .map(|(mode, gemm_mode, m, k, n, measured_s)| {
            let flops = 2.0 * m as f64 * k as f64 * n as f64;
            let predicted_s = cal.seconds(m, k, n, gemm_mode);
            GemmDriftEntry {
                mode,
                m,
                k,
                n,
                measured_s,
                measured_gflops: flops / measured_s.max(1e-12) / 1e9,
                predicted_s,
                ratio: if predicted_s > 0.0 {
                    measured_s / predicted_s
                } else {
                    f64::NAN
                },
            }
        })
        .collect();
    Some(GemmDriftReport {
        peak_flops: cal.peak_flops,
        half_sat: cal.half_sat,
        nt_factor: cal.nt_factor,
        tn_factor: cal.tn_factor,
        simd_active,
        tolerance_low: 0.5,
        tolerance_high: 2.0,
        entries,
        kernels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algo_names_follow_the_selected_kind() {
        use SchedKind as K;
        let names: Vec<&str> = [
            (K::AllGather, K::AllGather),
            (K::AllGather, K::AllGatherRd),
            (K::ReduceScatter, K::ReduceScatter),
            (K::ReduceScatter, K::ReduceScatterRh),
            (K::AllReduce, K::AllReduce),
            (K::AllReduce, K::AllReduceRhd),
            (K::AllReduce, K::AllReduceTree),
        ]
        .into_iter()
        .map(|(ring, kind)| algo_name(ring, kind))
        .collect();
        assert_eq!(names, ["ring", "rd", "ring", "rh", "ring", "rhd", "tree"]);
    }

    #[test]
    fn drift_report_shape() {
        // A tiny sweep: structure and calibration sanity, not accuracy.
        let cfg = DriftConfig {
            world: 2,
            elems: vec![256, 4096],
            iters: 3,
            warmup: 1,
        };
        let report = run_drift(&cfg);
        assert_eq!(report.entries.len(), 6); // 3 ops × 2 sizes
        assert!(report.bandwidth_estimate > 0.0);
        for e in &report.entries {
            assert!(e.measured_s > 0.0, "{e:?}");
            assert!(e.predicted_s > 0.0, "{e:?}");
        }
        // Calibration makes the largest all-reduce ratio exactly 1.
        let cal = report
            .entries
            .iter()
            .filter(|e| e.op == "all_reduce")
            .max_by_key(|e| e.elems)
            .unwrap();
        assert!((cal.ratio - 1.0).abs() < 1e-9, "ratio {}", cal.ratio);
        // Histograms saw every point.
        let total: u64 = report.latency_hists.iter().map(|(_, h)| h.count()).sum();
        assert_eq!(total, 6);
        // Serializes to JSON.
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("bandwidth_estimate"));
    }

    #[test]
    fn gemm_drift_report_shape() {
        let cfg = GemmDriftConfig {
            shapes: vec![(24, 24, 24), (96, 96, 96)],
            iters: 3,
            warmup: 1,
        };
        let report = run_gemm_drift(&cfg).expect("two distinct NN dims");
        assert_eq!(report.entries.len(), 6); // 3 modes × 2 shapes
        assert_eq!(report.kernels.len(), 6);
        assert!(report.peak_flops > 0.0);
        for e in &report.entries {
            assert!(e.measured_s > 0.0, "{e:?}");
            assert!(e.predicted_s > 0.0, "{e:?}");
            assert!(e.measured_gflops > 0.0, "{e:?}");
        }
        // The fit passes exactly through the largest point of each mode,
        // so at least those three ratios are 1 and inside any band.
        let largest_nn = report
            .entries
            .iter()
            .filter(|e| e.mode == "NN")
            .max_by_key(|e| e.m)
            .unwrap();
        assert!(
            (largest_nn.ratio - 1.0).abs() < 1e-9,
            "calibration point ratio {}",
            largest_nn.ratio
        );
        for t in &report.kernels {
            assert!(t.portable_gflops > 0.0 && t.auto_gflops > 0.0);
        }
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("tn_factor") && json.contains("portable_gflops"));
    }

    #[test]
    fn gemm_drift_needs_two_distinct_sizes() {
        let cfg = GemmDriftConfig {
            shapes: vec![(32, 32, 32)],
            iters: 1,
            warmup: 0,
        };
        assert!(run_gemm_drift(&cfg).is_none());
    }
}
