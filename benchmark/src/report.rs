//! What a run produces and how it is printed, written and compared.

use crate::spec::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::sys;
use axonn_tensor::{gemm_into_stats, MatMode, Matrix};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Metric values by name. Names are checked against the spec tables so a
/// typo fails the first run instead of reporting a silent 0.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric `{name}` is not in the spec tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub metrics: Metrics,
    pub checks: Vec<Check>,
    /// Values recorded for diffing two commits, not for timing.
    pub notes: Vec<(&'static str, String)>,
    /// Operations attempted (training steps / requests sent) and failed
    /// (non-finite loss or panicked rank / rejected, evicted or wrong).
    pub attempted: usize,
    pub failed: usize,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Outcome {
        Outcome {
            workload,
            metrics: Metrics::default(),
            checks: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn check(&mut self, check: Check) {
        self.checks.push(check);
    }

    pub fn note(&mut self, key: &'static str, value: String) {
        self.notes.push((key, value));
    }

    /// A rank or the engine panicked: nothing measured can be trusted.
    pub fn panicked(mut self, message: String) -> Outcome {
        self.attempted = self.attempted.max(1);
        self.failed = self.attempted;
        self.check(Check {
            name: "no_panic",
            passed: false,
            detail: message,
        });
        self
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.passed)
    }
}

fn metric_object(defs: &[MetricDef], metrics: &Metrics) -> Value {
    Value::Object(
        defs.iter()
            .map(|d| {
                let value = metrics.get(d.name).unwrap_or(0.0);
                let entry = Value::Object(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(d.unit.into())),
                ]);
                (d.name.to_string(), entry)
            })
            .collect(),
    )
}

/// The tables a run with this `--trace` value must report in full.
pub fn defs_for(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let v = Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.correct())),
        ("attempted".into(), Value::UInt(outcome.attempted as u64)),
        ("failed".into(), Value::UInt(outcome.failed as u64)),
        (
            "metrics".into(),
            metric_object(defs_for(trace), &outcome.metrics),
        ),
    ]);
    serde_json::to_string(&v).expect("a Value always serializes")
}

pub fn print_outcome(outcome: &Outcome, trace: bool, comparable: bool) {
    let kind = if trace { "per-layer" } else { "end-to-end" };
    let tag = if comparable {
        ""
    } else {
        "  [smoke: not comparable]"
    };
    println!("== {} ({kind}){tag}", outcome.workload);
    if let Some(w) = crate::spec::workload(outcome.workload) {
        println!("   {}", w.why);
    }
    for d in defs_for(trace) {
        let v = outcome.metrics.get(d.name).unwrap_or(0.0);
        println!("  {:<44} {:>14.4} {}", d.name, v, d.unit);
    }
    println!("  {:<44} {:>14} count", "ops_attempted", outcome.attempted);
    println!("  {:<44} {:>14} count", "ops_failed", outcome.failed);
    for (k, v) in &outcome.notes {
        println!("  {k:<44} {v:>14}");
    }
    for c in &outcome.checks {
        let verdict = if c.passed { "ok" } else { "FAILED" };
        println!("  check {:<38} {verdict:>14}  {}", c.name, c.detail);
    }
}

/// The full record of a run, written beside the trace for the aggregate.
pub fn outcome_json(
    outcome: &Outcome,
    trace: bool,
    seed: u64,
    seconds: f64,
    comparable: bool,
) -> Value {
    Value::Object(vec![
        ("workload".into(), Value::Str(outcome.workload.into())),
        ("trace".into(), Value::Bool(trace)),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::F64(seconds)),
        ("comparable".into(), Value::Bool(comparable)),
        ("correct".into(), Value::Bool(outcome.correct())),
        (
            "ops_attempted".into(),
            Value::UInt(outcome.attempted as u64),
        ),
        ("ops_failed".into(), Value::UInt(outcome.failed as u64)),
        (
            "metrics".into(),
            metric_object(defs_for(trace), &outcome.metrics),
        ),
        (
            "notes".into(),
            Value::Object(
                outcome
                    .notes
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Str(v.clone())))
                    .collect(),
            ),
        ),
        (
            "checks".into(),
            Value::Array(
                outcome
                    .checks
                    .iter()
                    .map(|c| {
                        Value::Object(vec![
                            ("name".into(), Value::Str(c.name.into())),
                            ("passed".into(), Value::Bool(c.passed)),
                            ("detail".into(), Value::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub fn write_json(path: &Path, v: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {dir:?}: {e}"))?;
    }
    let text = serde_json::to_string_pretty(v).expect("a Value always serializes");
    std::fs::write(path, text).map_err(|e| format!("write {path:?}: {e}"))
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path:?}: {e}"))
}

/// Where and on what the numbers were taken. A result without it cannot
/// be compared with another.
pub fn environment(
    repo_dir: &Path,
    scrubbed: &[String],
    seed: u64,
    seconds: f64,
    loadavg_start: f64,
) -> Value {
    let load = loadavg_start;
    let nproc = sys::nproc();
    // Ask the kernels themselves whether the AVX2 path runs here.
    let (a, b) = (Matrix::full(4, 16, 1.0), Matrix::full(16, 16, 1.0));
    let simd = gemm_into_stats(MatMode::NN, &a, &b, &mut Matrix::zeros(4, 16)).simd;
    let strs = |xs: &[String]| Value::Array(xs.iter().cloned().map(Value::Str).collect());
    Value::Object(vec![
        ("git_commit".into(), Value::Str(sys::git_commit(repo_dir))),
        ("rustc".into(), Value::Str(sys::rustc_version())),
        ("cpu".into(), Value::Str(sys::cpu_model())),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("loadavg_start".into(), Value::F64(load)),
        ("noisy_host".into(), Value::Bool(load > 0.5 * nproc as f64)),
        ("tensor.simd_active".into(), Value::Bool(simd)),
        ("scrubbed_env".into(), strs(scrubbed)),
        ("seed".into(), Value::UInt(seed)),
        ("run_seconds".into(), Value::F64(seconds)),
        (
            "train_lap_steps".into(),
            Value::UInt(crate::spec::train::LAP_STEPS as u64),
        ),
        (
            "serve_slices".into(),
            Value::UInt(crate::spec::serve::SLICES as u64),
        ),
    ])
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::F32(x) => Some(*x as f64),
        Value::Int(x) => Some(*x as f64),
        Value::UInt(x) => Some(*x as f64),
        _ => None,
    }
}

/// `workloads.<name>.<section>.<metric>.value` of an aggregate file.
fn lookup(file: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    let m = file
        .field("workloads")
        .ok()?
        .field(workload)
        .ok()?
        .field(section)
        .ok()?
        .field(metric)
        .ok()?;
    as_f64(m.field("value").ok()?)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The laps of one side spread wider than the bound: the difference
    /// cannot be told from noise, so it is neither ok nor a regression.
    Unresolved,
}

/// How `b` stands against the base `a` for one metric.
pub fn verdict(def: &MetricDef, a: f64, b: f64, spread: f64) -> Verdict {
    if spread > def.bound {
        return Verdict::Unresolved;
    }
    let worse_by = if def.better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if worse_by > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Print, per workload and end-to-end metric, both files' values, the
/// ratio with its base, the bound and the verdict. Returns how many
/// pairings regressed.
pub fn compare(a: &Value, b: &Value) -> usize {
    let mut regressed = 0;
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>18} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for w in WORKLOADS {
        let spread = [a, b]
            .iter()
            .filter_map(|f| lookup(f, w.name, "per_layer", "harness.lap_spread"))
            .fold(0.0, f64::max);
        for d in END_TO_END {
            let (Some(va), Some(vb)) = (
                lookup(a, w.name, "end_to_end", d.name),
                lookup(b, w.name, "end_to_end", d.name),
            ) else {
                println!("{:<14} {:<16} missing in one file", w.name, d.name);
                continue;
            };
            // Lap spread says nothing about a share or a byte count.
            let timed = matches!(d.name, "tokens_per_s" | "latency_ms_p50" | "setup_s");
            let v = verdict(d, va, vb, if timed { spread } else { 0.0 });
            regressed += usize::from(v == Verdict::Regressed);
            let word = match v {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{:<14} {:<16} {:>12.4} {:>12.4} {:>9.4} of {:<8.4} {:>5.0}%  {word}",
                w.name,
                d.name,
                va,
                vb,
                vb / va,
                va,
                d.bound * 100.0
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn verdict_respects_direction_bound_and_spread() {
        let def = |better| MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        };
        let tps = def("higher");
        assert_eq!(verdict(&tps, 1000.0, 950.0, 0.01), Verdict::Ok);
        assert_eq!(verdict(&tps, 1000.0, 1200.0, 0.01), Verdict::Ok);
        assert_eq!(verdict(&tps, 1000.0, 880.0, 0.01), Verdict::Regressed);
        let lat = def("lower");
        assert_eq!(verdict(&lat, 10.0, 10.5, 0.01), Verdict::Ok);
        assert_eq!(verdict(&lat, 10.0, 11.5, 0.01), Verdict::Regressed);
        // Laps that spread wider than the bound resolve nothing.
        assert_eq!(verdict(&lat, 10.0, 11.5, 0.2), Verdict::Unresolved);
        assert_eq!(verdict(&lat, 10.0, 10.0, 0.2), Verdict::Unresolved);
    }

    #[test]
    fn a_failed_check_or_operation_makes_the_run_incorrect() {
        let mut o = Outcome::new("serve_decode");
        o.attempted = 10;
        assert!(o.correct());
        o.check(Check {
            name: "redecode",
            passed: false,
            detail: String::new(),
        });
        assert!(!o.correct());
        let mut o = Outcome::new("serve_decode");
        o.attempted = 10;
        o.failed = 1;
        assert!(!o.correct());
        assert!(result_line(&o, false).starts_with("{\"correct\":false"));
        let p = Outcome::new("train_data").panicked("rank 1 panicked".into());
        assert!(!p.correct());
        assert_eq!((p.attempted, p.failed), (1, 1));
    }

    #[test]
    fn result_line_holds_every_metric_of_its_table() {
        let o = Outcome::new("train_serial");
        let v: Value = serde_json::from_str(&result_line(&o, true)).unwrap();
        let Value::Object(fields) = &v else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Value::Object(metrics) = v.field("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }
}
