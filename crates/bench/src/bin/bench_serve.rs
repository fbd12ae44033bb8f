//! CI serving-regression gate: push simulated client traffic through the
//! continuous-batching engine and compare latency/throughput medians
//! against the committed baseline.
//!
//! Usage:
//!   bench_serve [--requests N] [--clients N] [--check BASELINE.json]
//!               [--threshold F] [--min-tokens-per-s F] [--write-baseline]
//!
//! Always writes `results/BENCH_serve.json`, including the `max_active`
//! sweep (aggregate tokens/s, GEMM calls and packed bytes per token at
//! 1, 2, 4, 8 and 16 decode slots). With `--check`, exits non-zero when
//! the median TTFT rises or the median per-request decode throughput
//! falls by more than the threshold (default 20%) relative to the
//! baseline file. `--min-tokens-per-s` adds an absolute floor on
//! aggregate tokens/s (a ratchet: refreshing the baseline cannot lower
//! it). With `--write-baseline`, also refreshes
//! `results/bench_serve_baseline.json` (commit that file to move the
//! gate).

use std::path::PathBuf;
use std::process::ExitCode;

use axonn_bench::serve::{compare_serve, load_serve_report, run_serve_bench, ServeBenchConfig};
use axonn_bench::{emit_json, print_table};

const DEFAULT_THRESHOLD: f64 = 0.20;

fn main() -> ExitCode {
    let mut cfg = ServeBenchConfig::default();
    let mut check: Option<PathBuf> = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut min_tokens_per_s: Option<f64> = None;
    let mut write_baseline = false;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--requests" => {
                cfg.load.total_requests = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--requests needs a positive integer");
            }
            "--clients" => {
                cfg.load.clients = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients needs a positive integer");
            }
            "--check" => {
                check = Some(PathBuf::from(argv.next().expect("--check needs a path")));
            }
            "--threshold" => {
                threshold = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold needs a fraction, e.g. 0.2");
            }
            "--min-tokens-per-s" => {
                min_tokens_per_s = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--min-tokens-per-s needs a rate, e.g. 5000"),
                );
            }
            "--write-baseline" => write_baseline = true,
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: bench_serve [--requests N] [--clients N] [--check BASELINE.json] \
                     [--threshold F] [--min-tokens-per-s F] [--write-baseline]"
                );
                return ExitCode::FAILURE;
            }
        }
    }

    let report = run_serve_bench(&cfg);
    print_table(
        "bench_serve — closed-loop continuous-batching engine",
        &["metric", "value"],
        &[
            vec![
                "requests completed / evicted".into(),
                format!("{} / {}", report.completed, report.evicted),
            ],
            vec![
                "overload rejections (retried)".into(),
                format!("{}", report.rejected_retries),
            ],
            vec![
                "engine steps / wall".into(),
                format!("{} / {:.2} s", report.engine_steps, report.wall_s),
            ],
            vec![
                "TTFT p50 / p99".into(),
                format!("{:.3} / {:.3} ms", report.ttft_p50_ms, report.ttft_p99_ms),
            ],
            vec![
                "per-request tokens/s p50 / p99".into(),
                format!(
                    "{:.0} / {:.0}",
                    report.tokens_per_s_p50, report.tokens_per_s_p99
                ),
            ],
            vec![
                "aggregate tokens/s".into(),
                format!("{:.0}", report.aggregate_tokens_per_s),
            ],
            vec![
                "clients / active slots".into(),
                format!("{} / {}", report.clients, report.max_active),
            ],
        ],
    );
    print_table(
        "max_active sweep — same traffic, one batched forward per engine step",
        &[
            "max_active",
            "aggregate tok/s",
            "tokens/step",
            "GEMM calls/token",
            "packed B/token",
        ],
        &report
            .sweep
            .iter()
            .map(|p| {
                vec![
                    format!("{}", p.max_active),
                    format!("{:.0}", p.aggregate_tokens_per_s),
                    format!("{:.2}", p.tokens_per_step),
                    format!("{:.2}", p.gemm_calls_per_token),
                    format!("{:.0}", p.packed_bytes_per_token),
                ]
            })
            .collect::<Vec<_>>(),
    );
    emit_json("BENCH_serve", &report);
    if write_baseline {
        emit_json("bench_serve_baseline", &report);
    }

    if let Some(baseline_path) = check {
        let baseline = match load_serve_report(&baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("[serve-gate] {e}");
                eprintln!(
                    "[serve-gate] regenerate with: cargo run --release -p axonn-bench \
                     --bin bench_serve -- --write-baseline"
                );
                return ExitCode::FAILURE;
            }
        };
        let verdict = compare_serve(&report, &baseline, threshold, min_tokens_per_s);
        println!(
            "[serve-gate] TTFT {:+.1}%, tokens/s drop {:+.1}% (gate {:+.0}%) vs {}",
            verdict.ttft_delta * 100.0,
            verdict.rate_delta * 100.0,
            verdict.threshold * 100.0,
            baseline_path.display(),
        );
        if verdict.under_floor {
            eprintln!(
                "[serve-gate] FAIL: aggregate {:.0} tokens/s is under the {:.0} tokens/s floor \
                 (batched decode / pre-packed weights regressed)",
                report.aggregate_tokens_per_s,
                min_tokens_per_s.unwrap_or_default()
            );
        }
        if verdict.regressed {
            eprintln!(
                "[serve-gate] FAIL: median TTFT or decode throughput regressed beyond {:.0}%, \
                 or the floor broke",
                verdict.threshold * 100.0
            );
            return ExitCode::FAILURE;
        }
        println!("[serve-gate] PASS");
    }
    ExitCode::SUCCESS
}
