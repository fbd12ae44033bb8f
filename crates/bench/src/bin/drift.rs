//! Perfmodel drift report: measured vs predicted collective latencies
//! and GEMM times on this host, plus the GEMM kernel table.
//!
//! Usage:
//!   drift
//!
//! Prints the three tables and writes `results/DRIFT_perfmodel.json`
//! (collective sweep, GEMM drift entries, GEMM kernel table).

use axonn_bench::drift::{run_drift, run_gemm_drift, DriftConfig, GemmDriftConfig};
use axonn_bench::{emit_json, print_table};

fn main() {
    let mut drift = run_drift(&DriftConfig::default());
    drift.gemm = run_gemm_drift(&GemmDriftConfig::default());
    let rows: Vec<Vec<String>> = drift
        .entries
        .iter()
        .map(|e| {
            vec![
                e.op.to_string(),
                e.algo.to_string(),
                format!("{}", e.elems),
                format!("{:.3}", e.measured_s * 1e3),
                format!("{:.3}", e.predicted_s * 1e3),
                format!("{:.2}", e.ratio),
            ]
        })
        .collect();
    print_table(
        "perfmodel drift — measured vs Eq. 1–5 (calibrated β̂)",
        &[
            "op",
            "algo",
            "elems/rank",
            "measured ms",
            "predicted ms",
            "ratio",
        ],
        &rows,
    );
    println!(
        "[drift] calibrated bandwidth {:.2} MiB/s over {} ranks",
        drift.bandwidth_estimate / (1024.0 * 1024.0),
        drift.world
    );
    if let Some(gemm) = &drift.gemm {
        let kernel_rows: Vec<Vec<String>> = gemm
            .kernels
            .iter()
            .map(|t| {
                vec![
                    t.mode.to_string(),
                    format!("{}x{}x{}", t.m, t.k, t.n),
                    format!("{:.2}", t.portable_gflops),
                    format!("{:.2}", t.auto_gflops),
                ]
            })
            .collect();
        print_table(
            "gemm kernels — sustained Gflop/s",
            &["mode", "shape", "portable", "best isa"],
            &kernel_rows,
        );
        let gemm_rows: Vec<Vec<String>> = gemm
            .entries
            .iter()
            .map(|e| {
                vec![
                    e.mode.to_string(),
                    format!("{}x{}x{}", e.m, e.k, e.n),
                    format!("{:.3}", e.measured_s * 1e3),
                    format!("{:.3}", e.predicted_s * 1e3),
                    format!("{:.2}", e.ratio),
                ]
            })
            .collect();
        print_table(
            "gemm drift — measured vs calibrated compute model",
            &["mode", "shape", "measured ms", "predicted ms", "ratio"],
            &gemm_rows,
        );
        println!(
            "[drift] gemm fit: peak {:.2} Gflop/s, half-sat {:.0}, NT x{:.2}, TN x{:.2}, \
             simd {} — ratios {} within [{}, {}]",
            gemm.peak_flops / 1e9,
            gemm.half_sat,
            gemm.nt_factor,
            gemm.tn_factor,
            if gemm.simd_active { "on" } else { "off" },
            if gemm.all_within_tolerance() {
                "all"
            } else {
                "NOT all"
            },
            gemm.tolerance_low,
            gemm.tolerance_high
        );
    }
    emit_json("DRIFT_perfmodel", &drift);
}
