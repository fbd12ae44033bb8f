//! `axonnctl bench`: check a benchmark run (`benchmark/out/latest.json`)
//! against the committed exact counts (`results/bench_counts.json`).
//!
//! The counts file maps workload → metric → value. A gated metric is one
//! the benchmark README marks exact: it repeats bit for bit for a seed,
//! however long the run lasts, so any difference is a change in what the
//! program does, not noise. Timing claims do not go through this gate;
//! they go through the benchmark's alternating-pairs protocol.

use std::path::Path;

use serde_json::Value;

/// Run file `axonnctl bench` reads when none is named.
pub const DEFAULT_RUN: &str = "benchmark/out/latest.json";
/// Committed counts file `axonnctl bench` checks against by default.
pub const DEFAULT_COUNTS: &str = "results/bench_counts.json";

/// Relative difference at or above which a count fails. Per-step counts
/// are float averages whose last digit may differ between runs.
const COUNT_TOLERANCE: f64 = 1e-9;

/// Closed serving loops: their counts are exact only when read at the
/// engine step of a fixed request, which the run records as `snapshot`.
const SNAPSHOT_WORKLOADS: [&str; 2] = ["serve_decode", "serve_prefill"];

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::F32(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(e) => e,
        _ => &[],
    }
}

/// `workloads.<w>.<section>.<metric>.value` of a run file.
fn metric(workload: &Value, section: &str, name: &str) -> Option<f64> {
    number(
        workload
            .field(section)
            .ok()?
            .field(name)
            .ok()?
            .field("value")
            .ok()?,
    )
}

/// A looked-up field as JSON text, or `missing`.
fn json(v: Result<&Value, serde_json::Error>) -> String {
    v.map_or("missing".into(), |v| {
        serde_json::to_string(v).expect("a Value always serializes")
    })
}

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Check `run` against `counts`. Returns the report to print (each
/// workload's end-to-end values, when the run has them, and its gated
/// counts) and the failures, each naming its workload, metric, run value
/// and expected value.
pub fn check(run: &Value, counts: &Value) -> (String, Vec<String>) {
    let mut report = String::new();
    let mut failures = Vec::new();
    let workloads = match run.field("workloads") {
        Ok(w) => w,
        Err(e) => return (report, vec![format!("not a benchmark run file: {e}")]),
    };
    for (name, w) in entries(workloads) {
        report.push_str(&format!("{name}\n"));
        for (section, r) in entries(w.field("runs").unwrap_or(&Value::Null)) {
            let correct = json(r.field("correct"));
            if correct != "true" {
                failures.push(format!(
                    "{name}: correct is {correct} in the {section} run, true expected"
                ));
            }
        }
        if SNAPSHOT_WORKLOADS.contains(&name.as_str()) {
            let from = json(
                w.field("runs")
                    .and_then(|r| r.field("per_layer"))
                    .and_then(|r| r.field("notes"))
                    .and_then(|n| n.field("exact_counts_from")),
            );
            if from != "\"snapshot\"" {
                failures.push(format!(
                    "{name}: exact_counts_from is {from} in the run, \"snapshot\" expected"
                ));
            }
        }
        for (metric_name, _) in entries(w.field("end_to_end").unwrap_or(&Value::Null)) {
            if let Some(v) = metric(w, "end_to_end", metric_name) {
                report.push_str(&format!("  {metric_name:<32} {v:>16.4}\n"));
            }
        }
        let gated = counts.field(name).map(entries).unwrap_or(&[]);
        for (metric_name, want) in gated {
            let Some(want) = number(want) else {
                failures.push(format!(
                    "{name}: {metric_name} is not a number in the counts file"
                ));
                continue;
            };
            let got = metric(w, "per_layer", metric_name);
            let exact =
                got.is_some_and(|g| g == want || (g - want).abs() < COUNT_TOLERANCE * want.abs());
            let got = got.map_or("missing".into(), |g| g.to_string());
            if !exact {
                failures.push(format!(
                    "{name}: {metric_name} is {got} in the run, {want} committed"
                ));
            }
            let verdict = if exact { "exact" } else { "DIFFERS" };
            report.push_str(&format!("  {metric_name:<32} {got:>20} {verdict}\n"));
        }
    }
    for (name, _) in entries(counts) {
        if workloads.field(name).is_err() {
            failures.push(format!("{name}: workload is missing from the run"));
        }
    }
    (report, failures)
}

/// `axonnctl bench [run.json] [counts.json]`.
pub fn run(run_path: &str, counts_path: &str) -> Result<(), String> {
    let run = read(Path::new(run_path)).map_err(|e| {
        format!(
            "no benchmark run to check: {e}\n\
             write one with `bash benchmark/run.sh --traced --seconds 3 --seed 1`, \
             or pass a run file: axonnctl bench <run.json> [counts.json]"
        )
    })?;
    let counts = read(Path::new(counts_path))?;
    let seed = json(run.field("environment").and_then(|e| e.field("seed")));
    println!("{run_path} (seed {seed}) against {counts_path}:");
    let (report, failures) = check(&run, &counts);
    print!("{report}");
    if !failures.is_empty() {
        return Err(format!(
            "{} check(s) failed against {counts_path}:\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    println!("every run correct, every gated count equals {counts_path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run file with one traced training workload and one closed and
    /// one open serving loop, shaped like the benchmark's aggregate.
    fn run_file(gemm_calls: &str, correct: bool, closed_from: &str, packed: &str) -> Value {
        serde_json::from_str(&format!(
            r#"{{"comparable": true, "workloads": {{
              "train_zshard": {{
                "per_layer": {{
                  "tensor.gemm_calls_per_step": {{"value": {gemm_calls}, "unit": "count"}},
                  "tensor.packed_mb_per_step": {{"value": {packed}, "unit": "MB"}}
                }},
                "runs": {{"per_layer": {{"correct": {correct}, "notes": {{}}}}}}
              }},
              "serve_decode": {{
                "per_layer": {{"serve.completed": {{"value": 64.0, "unit": "count"}}}},
                "runs": {{"per_layer": {{"correct": true,
                  "notes": {{"exact_counts_from": "{closed_from}"}}}}}}
              }},
              "serve_open": {{
                "per_layer": {{"serve.completed": {{"value": 37.0, "unit": "count"}}}},
                "runs": {{"per_layer": {{"correct": true,
                  "notes": {{"exact_counts_from": "whole run"}}}}}}
              }}
            }}}}"#
        ))
        .unwrap()
    }

    fn counts() -> Value {
        serde_json::from_str(
            r#"{
              "train_zshard": {"tensor.gemm_calls_per_step": 219, "tensor.packed_mb_per_step": 6.750208},
              "serve_decode": {"serve.completed": 64},
              "serve_open": {}
            }"#,
        )
        .unwrap()
    }

    fn good() -> Value {
        run_file("219.0", true, "snapshot", "6.750208")
    }

    fn assert_names(e: &str, parts: &[&str]) {
        for p in parts {
            assert!(e.contains(p), "{p:?} missing from: {e}");
        }
    }

    /// The report of a run that must pass.
    fn passes(run: &Value, counts: &Value) -> String {
        let (report, failures) = check(run, counts);
        assert!(failures.is_empty(), "{failures:?}");
        report
    }

    /// The one failure of a run that must fail.
    fn fails(run: &Value, counts: &Value) -> String {
        let (_, failures) = check(run, counts);
        assert_eq!(failures.len(), 1, "{failures:?}");
        failures[0].clone()
    }

    #[test]
    fn matching_run_passes_and_an_open_loop_is_checked_for_correct_only() {
        // `serve_open` has an empty entry: its whole-run counts differ
        // from the closed loop's and are not compared.
        let report = passes(&good(), &counts());
        assert_names(
            &report,
            &[
                "train_zshard",
                "tensor.gemm_calls_per_step",
                "219",
                "serve_open",
            ],
        );
    }

    #[test]
    fn last_digit_of_a_float_average_is_tolerated() {
        let run = run_file("219", true, "snapshot", "6.750208000000001");
        passes(&run, &counts());
    }

    #[test]
    fn a_count_off_by_one_fails() {
        let e = fails(&run_file("220", true, "snapshot", "6.750208"), &counts());
        assert_names(
            &e,
            &["train_zshard", "tensor.gemm_calls_per_step", "220", "219"],
        );
    }

    #[test]
    fn an_incorrect_run_fails() {
        let e = fails(&run_file("219", false, "snapshot", "6.750208"), &counts());
        assert_names(&e, &["train_zshard", "correct", "false", "true"]);
    }

    #[test]
    fn a_closed_loop_counted_over_the_whole_run_fails() {
        let e = fails(&run_file("219", true, "whole run", "6.750208"), &counts());
        assert_names(
            &e,
            &["serve_decode", "exact_counts_from", "whole run", "snapshot"],
        );
    }

    #[test]
    fn a_count_missing_from_the_run_fails() {
        let mut c = counts();
        let Value::Object(entries) = &mut c else {
            panic!()
        };
        entries[0].1 = serde_json::from_str(r#"{"trace.events_per_step": 88}"#).unwrap();
        let e = fails(&good(), &c);
        assert_names(
            &e,
            &["train_zshard", "trace.events_per_step", "missing", "88"],
        );
    }
}
