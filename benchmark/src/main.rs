//! `benchmark/run.sh` builds this and passes its arguments through.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! run.sh [--seed N] [--seconds S] [--smoke] [--traced]       every workload, each in a fresh process
//! run.sh --compare A.json B.json                             two aggregate files, metric by metric
//! ```

mod heap;
mod load;
mod probes;
mod report;
mod serve;
mod spans;
mod spec;
mod stats;
mod sys;
mod train;

use report::Outcome;
use serde::Value;
use spans::Spans;
use spec::{Kind, Sizing, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Default `--seconds`: `run_seconds` of BENCHMARK.json.
const RUN_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    /// Set by `run_all` on the processes it starts: the parent reports
    /// the host and reads the run file, so the child prints neither the
    /// host warning nor the result line.
    child: bool,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
     [--smoke] [--out-dir DIR] | --compare A.json B.json"
        .into()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        child: false,
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or(format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => args.trace = Some(true),
            "--smoke" => args.smoke = true,
            "--child" => args.child = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS
        })
    }
}

/// Load average at start, with a warning when other work is likely to
/// disturb the timings.
fn host_load() -> f64 {
    let load = sys::loadavg();
    if load > 0.5 * sys::nproc() as f64 {
        eprintln!(
            "warning: noisy_host: load average {load:.2} on {} cores",
            sys::nproc()
        );
    }
    load
}

fn run_file(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("run_{workload}_trace{}.json", u8::from(trace)))
}

/// One workload in this process.
fn run_one(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let trace = args.trace.unwrap_or(false);
    let sizing = if args.smoke {
        Sizing::SMOKE
    } else {
        Sizing::FULL
    };
    let seconds = args.seconds();
    let load = if args.child {
        sys::loadavg()
    } else {
        host_load()
    };
    let mut spans = if trace {
        Spans::enabled()
    } else {
        Spans::disabled()
    };
    let (steal0, t0) = (sys::steal_seconds(), std::time::Instant::now());
    let root = spans.begin("run", None);
    let mut outcome = match (w.kind, trace) {
        (Kind::Train { grid }, false) => train::run_untraced(w, grid, args.seed, seconds, sizing),
        (Kind::Train { grid }, true) => {
            train::run_traced(w, grid, args.seed, seconds, sizing, &mut spans)
        }
        (_, false) => serve::run_untraced(w, args.seed, seconds, sizing),
        (_, true) => serve::run_traced(w, args.seed, seconds, sizing, &mut spans),
    };
    // Share of the cores' time a neighbour took during the run. On the
    // reference box an episode of it slowed the 2-rank grids fivefold.
    let stolen =
        (sys::steal_seconds() - steal0) / (t0.elapsed().as_secs_f64() * sys::nproc() as f64);
    outcome.note("host_steal_share", format!("{stolen:.4}"));
    if stolen > 0.02 {
        eprintln!(
            "warning: disturbed_host: {:.1} % of CPU time was stolen during this run",
            100.0 * stolen
        );
    }
    if trace {
        outcome.metrics.set("harness.steal_share", stolen);
        outcome.metrics.set("harness.loadavg_start", load);
        probes::run_all(&mut outcome.metrics, &mut spans, &args.out_dir)?;
    }
    spans.end(root);
    if trace {
        let path = args.out_dir.join(format!("trace_{}.json", w.name));
        report::write_json(&path, &spans.to_json())?;
        outcome.note("harness_spans", spans.len().to_string());
    }
    let record = report::outcome_json(&outcome, trace, args.seed, seconds, !args.smoke);
    report::write_json(&run_file(&args.out_dir, w.name, trace), &record)?;
    report::print_outcome(&outcome, trace, !args.smoke);
    Ok(outcome)
}

/// Every workload, each in a fresh child process of this binary, for the
/// untraced and/or the traced pass (`--smoke`: untraced unless `--traced`
/// asks); then the aggregate file.
fn run_all(args: &Args, scrubbed: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let load = host_load();
    let passes = match (args.trace, args.smoke) {
        (Some(t), _) => vec![t],
        (None, true) => vec![false],
        (None, false) => vec![false, true],
    };
    let mut all_ok = true;
    let mut workloads: Vec<(String, Value)> = Vec::new();
    for w in WORKLOADS {
        let mut metrics = Vec::new();
        let mut runs = Vec::new();
        for &trace in &passes {
            let mut cmd = Command::new(&exe);
            cmd.args(["--child", "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds().to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&args.out_dir);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // A child that dies must not be reported with an older run's file.
            let _ = std::fs::remove_file(run_file(&args.out_dir, w.name, trace));
            let status = cmd.status().map_err(|e| format!("spawn {exe:?}: {e}"))?;
            all_ok &= status.success();
            let Ok(Value::Object(mut record)) =
                report::read_json(&run_file(&args.out_dir, w.name, trace))
            else {
                continue;
            };
            let section = if trace { "per_layer" } else { "end_to_end" };
            if let Some(i) = record.iter().position(|(k, _)| k == "metrics") {
                metrics.push((section.to_string(), record.remove(i).1));
            }
            runs.push((section.to_string(), Value::Object(record)));
        }
        metrics.push(("runs".into(), Value::Object(runs)));
        workloads.push((w.name.to_string(), Value::Object(metrics)));
    }
    let env = report::environment(&args.out_dir, scrubbed, args.seed, args.seconds(), load);
    let aggregate = Value::Object(vec![
        ("comparable".into(), Value::Bool(!args.smoke)),
        ("environment".into(), env),
        ("workloads".into(), Value::Object(workloads)),
    ]);
    let path = args.out_dir.join("latest.json");
    report::write_json(&path, &aggregate)?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    // Before any thread exists: the program must run at its defaults.
    let scrubbed = sys::scrub_axonn_env();
    if !scrubbed.is_empty() {
        eprintln!("scrubbed from the environment: {}", scrubbed.join(" "));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        report::read_json(a).and_then(|a| {
            let b = report::read_json(b)?;
            Ok(report::compare(&a, &b) == 0)
        })
    } else if let Some(name) = &args.workload {
        let Some(w) = spec::workload(name) else {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("unknown workload {name}; one of: {}", names.join(" "));
            return ExitCode::from(2);
        };
        run_one(w, &args).map(|outcome| {
            if !args.child {
                // Last line of stdout: what the driver reads.
                println!(
                    "{}",
                    report::result_line(&outcome, args.trace.unwrap_or(false))
                );
            }
            outcome.correct()
        })
    } else {
        run_all(&args, &scrubbed)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{END_TO_END, PER_LAYER};

    fn names_units(v: &Value) -> Vec<(String, String, String)> {
        let Value::Array(items) = v else {
            panic!("expected an array")
        };
        items
            .iter()
            .map(|m| {
                let s = |k| m.field(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver and later PRs read; the tables
    /// in `spec.rs` are what the binary reports. They must not drift.
    #[test]
    fn benchmark_json_mirrors_the_spec_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file = report::read_json(&path).unwrap();
        let Value::Object(fields) = &file else {
            panic!()
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let defs = |d: &[spec::MetricDef]| -> Vec<(String, String, String)> {
            d.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(
            names_units(file.field("end_to_end").unwrap()),
            defs(END_TO_END)
        );
        assert_eq!(
            names_units(file.field("per_layer").unwrap()),
            defs(PER_LAYER)
        );
        let Value::Array(e2e) = file.field("end_to_end").unwrap() else {
            panic!()
        };
        for (m, d) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                m.field("bound").unwrap(),
                &Value::F64(d.bound),
                "{}",
                d.name
            );
            assert!(d.bound > 0.0 && d.bound <= 0.25);
        }
        let Value::Array(ws) = file.field("workloads").unwrap() else {
            panic!()
        };
        assert_eq!(ws.len(), WORKLOADS.len());
        for (j, w) in ws.iter().zip(WORKLOADS) {
            assert_eq!(j.field("name").unwrap().as_str().unwrap(), w.name);
            assert_eq!(j.field("why").unwrap().as_str().unwrap(), w.why);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(
            file.field("run_seconds").unwrap(),
            &Value::UInt(RUN_SECONDS as u64)
        );
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["higher", "lower"].contains(&d.better));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }
}
