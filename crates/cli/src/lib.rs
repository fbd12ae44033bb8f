//! Library backing `axonnctl`: argument parsing and subcommand
//! execution, kept in a library so the logic is unit-testable.

use std::sync::Arc;

use axonn_cluster::{BandwidthDb, Machine};
use axonn_collectives::{Comm, CommWorld, ProcessGroup, RingCostModel};
use axonn_core::{
    default_mlp_shape, default_transformer_shape, extract_mlp_schedules,
    extract_transformer_schedules, transformer_grid_fits, OverlapConfig,
};
use axonn_ft::{grid_fits, legal_resume_grids, CheckpointStore};
use axonn_gpt::{table2_models, GptConfig, HEADLINE_BATCH_TOKENS};
use axonn_lm::{Gpt, GptModelConfig};
use axonn_perfmodel::{rank_configs, Grid4d};
use axonn_serve::{
    run_load, tp_greedy_spmd, LoadConfig, Sampling, ServeConfig, ServeEngine, ServeRequest,
};
use axonn_sim::{
    pick_best_config, publish_live_metrics, simulate_batch, simulate_batch_traced, SimOptions,
};
use axonn_trace::{chrome_trace_json, LiveRegistry, MetricsSnapshot, TraceSink, TraceSummary};
use axonn_verify::{check_schedules, inject, DefectKind};

mod bench;

/// Usage text shown on parse errors.
pub const USAGE: &str = "usage:
  axonnctl machines
  axonnctl models
  axonnctl plan <machine> <model-billions> <gpus> [batch-tokens]
  axonnctl simulate <machine> <model-billions> <gx> <gy> <gz> <gd> [batch-tokens]
  axonnctl trace <machine> <model-billions> <gx> <gy> <gz> <gd> [batch-tokens] [out-prefix]
  axonnctl profile <machine>
  axonnctl resume <checkpoint-dir> [target-gpus] [step]
  axonnctl bench [run.json] [counts.json]
  axonnctl serve <checkpoint> [max-new-tokens] [--tp N] [--prompt t0,t1,...]
  axonnctl load [requests] [clients]
  axonnctl monitor [refreshes] [--sim]
  axonnctl verify <gx> <gy> <gz> <gd> [mlp|transformer] [--inject <defect>]
  axonnctl verify --all-grids <gpus> [mlp|transformer]
  axonnctl verify --serve <tp> [<layers> <tokens>] [--inject <defect>]
  (defects: reorder, missing-wait, count-mismatch, overlap-race, slab-reuse, early-recycle,
   issue-past-blocking)";

/// A parsed subcommand.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Machines,
    Models,
    Plan {
        machine: String,
        billions: usize,
        gpus: usize,
        batch_tokens: usize,
    },
    Simulate {
        machine: String,
        billions: usize,
        grid: Grid4d,
        batch_tokens: usize,
    },
    Trace {
        machine: String,
        billions: usize,
        grid: Grid4d,
        batch_tokens: usize,
        /// Output files are `<prefix>.trace.json` and `<prefix>.summary.json`.
        prefix: String,
    },
    Profile {
        machine: String,
    },
    /// Inspect a fault-tolerance checkpoint store and print the legal
    /// grids a resume could use on `gpus` ranks (default: the grid size
    /// that wrote the checkpoint).
    Resume {
        dir: String,
        gpus: Option<usize>,
        /// Specific step to inspect (default: the latest durable one).
        step: Option<u64>,
    },
    /// Check a benchmark run file (default `benchmark/out/latest.json`)
    /// against the committed exact counts (default
    /// `results/bench_counts.json`).
    Bench {
        run: String,
        counts: String,
    },
    /// Decode a continuation from a trained checkpoint through the
    /// KV-cached serving path — a single `lm::Checkpoint` file or an
    /// `ft`-style sharded directory, optionally tensor-parallel over
    /// `tp` simulated ranks.
    Serve {
        checkpoint: String,
        prompt: Vec<usize>,
        max_new: usize,
        tp: usize,
    },
    /// Closed-loop load run against an in-process engine (untrained toy
    /// model): N clients with Poisson think times, continuous batching,
    /// serving-plane metrics table at the end.
    Load {
        requests: usize,
        clients: usize,
    },
    /// Live per-rank telemetry table. The default mode runs a small
    /// in-process job on the thread-backed runtime and refreshes a table
    /// of step rate, collective counts, bytes moved, heartbeat age and
    /// pending receives from the live registry + transport heartbeats.
    /// `--sim` publishes a simulated batch through the same registry —
    /// same metric names, no running job needed.
    Monitor {
        refreshes: usize,
        sim: bool,
    },
    /// Statically certify the collective schedule of one training step
    /// on a specific grid: extract per-rank streams on a dry world, then
    /// run cross-rank matching, the deadlock simulation, the leak lints,
    /// and the happens-before race + slab-lifetime analyses. `--inject`
    /// seeds a defect into rank 1's stream first and expects the
    /// verifier to reject it.
    Verify {
        grid: Grid4d,
        model: VerifyModel,
        inject: Option<DefectKind>,
    },
    /// Verify every legal grid for a GPU budget (the same enumeration
    /// elastic restart uses) and print a summary table.
    VerifyAll {
        gpus: usize,
        model: VerifyModel,
    },
    /// Certify the serving plane: extract the per-rank schedule of a
    /// `tp`-way tensor-parallel greedy decode (`layers` transformer
    /// blocks, `tokens` decode steps) and run the full checker stack
    /// over it.
    VerifyServe {
        tp: usize,
        layers: usize,
        tokens: usize,
        inject: Option<DefectKind>,
    },
}

/// Which model family `axonnctl verify` extracts a schedule from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyModel {
    Mlp,
    Transformer,
}

impl VerifyModel {
    fn parse(s: &str) -> Result<VerifyModel, String> {
        match s {
            "mlp" => Ok(VerifyModel::Mlp),
            "transformer" => Ok(VerifyModel::Transformer),
            other => Err(format!(
                "unknown model '{other}' (expected mlp or transformer)"
            )),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            VerifyModel::Mlp => "mlp",
            VerifyModel::Transformer => "transformer",
        }
    }
}

impl Command {
    /// Parse CLI arguments (without the program name).
    pub fn parse(args: &[String]) -> Result<Command, String> {
        let mut it = args.iter();
        let sub = it.next().ok_or("missing subcommand")?;
        let parse_num = |s: Option<&String>, what: &str| -> Result<usize, String> {
            s.ok_or(format!("missing {what}"))?
                .parse::<usize>()
                .map_err(|_| format!("invalid {what}: '{}'", s.unwrap()))
        };
        match sub.as_str() {
            "machines" => Ok(Command::Machines),
            "models" => Ok(Command::Models),
            "plan" => {
                let machine = it.next().ok_or("missing machine")?.clone();
                let billions = parse_num(it.next(), "model size (billions)")?;
                let gpus = parse_num(it.next(), "gpu count")?;
                let batch_tokens = match it.next() {
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("invalid batch tokens: '{s}'"))?,
                    None => HEADLINE_BATCH_TOKENS,
                };
                Ok(Command::Plan {
                    machine,
                    billions,
                    gpus,
                    batch_tokens,
                })
            }
            "simulate" => {
                let machine = it.next().ok_or("missing machine")?.clone();
                let billions = parse_num(it.next(), "model size (billions)")?;
                let gx = parse_num(it.next(), "gx")?;
                let gy = parse_num(it.next(), "gy")?;
                let gz = parse_num(it.next(), "gz")?;
                let gd = parse_num(it.next(), "gd")?;
                let batch_tokens = match it.next() {
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("invalid batch tokens: '{s}'"))?,
                    None => HEADLINE_BATCH_TOKENS,
                };
                Ok(Command::Simulate {
                    machine,
                    billions,
                    grid: Grid4d::new(gx, gy, gz, gd),
                    batch_tokens,
                })
            }
            "trace" => {
                let machine = it.next().ok_or("missing machine")?.clone();
                let billions = parse_num(it.next(), "model size (billions)")?;
                let gx = parse_num(it.next(), "gx")?;
                let gy = parse_num(it.next(), "gy")?;
                let gz = parse_num(it.next(), "gz")?;
                let gd = parse_num(it.next(), "gd")?;
                let batch_tokens = match it.next() {
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("invalid batch tokens: '{s}'"))?,
                    None => HEADLINE_BATCH_TOKENS,
                };
                let prefix = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| format!("axonn-{machine}-{billions}b"));
                Ok(Command::Trace {
                    machine,
                    billions,
                    grid: Grid4d::new(gx, gy, gz, gd),
                    batch_tokens,
                    prefix,
                })
            }
            "profile" => Ok(Command::Profile {
                machine: it.next().ok_or("missing machine")?.clone(),
            }),
            "resume" => {
                let dir = it.next().ok_or("missing checkpoint dir")?.clone();
                let gpus = match it.next() {
                    Some(s) => Some(
                        s.parse()
                            .map_err(|_| format!("invalid target gpus: '{s}'"))?,
                    ),
                    None => None,
                };
                let step = match it.next() {
                    Some(s) => Some(s.parse().map_err(|_| format!("invalid step: '{s}'"))?),
                    None => None,
                };
                Ok(Command::Resume { dir, gpus, step })
            }
            "bench" => Ok(Command::Bench {
                run: it.next().map_or(bench::DEFAULT_RUN, |s| s).to_string(),
                counts: it.next().map_or(bench::DEFAULT_COUNTS, |s| s).to_string(),
            }),
            "serve" => {
                let checkpoint = it.next().ok_or("missing checkpoint path")?.clone();
                let mut max_new = 16usize;
                let mut tp = 1usize;
                let mut prompt = vec![0usize, 1, 2];
                let mut saw_max_new = false;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--tp" => {
                            let v = it.next().ok_or("missing rank count after --tp")?;
                            tp = v
                                .parse()
                                .ok()
                                .filter(|t| *t > 0)
                                .ok_or(format!("invalid tp rank count: '{v}'"))?;
                        }
                        "--prompt" => {
                            let v = it.next().ok_or("missing tokens after --prompt")?;
                            prompt = v
                                .split(',')
                                .map(|t| {
                                    t.trim()
                                        .parse::<usize>()
                                        .map_err(|_| format!("invalid prompt token: '{t}'"))
                                })
                                .collect::<Result<Vec<usize>, String>>()?;
                        }
                        other if !saw_max_new => {
                            max_new = other
                                .parse()
                                .map_err(|_| format!("invalid max new tokens: '{other}'"))?;
                            saw_max_new = true;
                        }
                        other => return Err(format!("unexpected serve argument '{other}'")),
                    }
                }
                Ok(Command::Serve {
                    checkpoint,
                    prompt,
                    max_new,
                    tp,
                })
            }
            "load" => {
                let requests = match it.next() {
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("invalid request count: '{s}'"))?,
                    None => 200,
                };
                let clients = match it.next() {
                    Some(s) => s
                        .parse()
                        .map_err(|_| format!("invalid client count: '{s}'"))?,
                    None => 8,
                };
                Ok(Command::Load { requests, clients })
            }
            "monitor" => {
                let mut refreshes = 3usize;
                let mut sim = false;
                for arg in it {
                    if arg == "--sim" {
                        sim = true;
                    } else {
                        refreshes = arg
                            .parse()
                            .map_err(|_| format!("invalid refresh count: '{arg}'"))?;
                    }
                }
                Ok(Command::Monitor { refreshes, sim })
            }
            "verify" => {
                let first = it.next().ok_or("missing grid (or --all-grids/--serve)")?;
                if first == "--all-grids" {
                    let gpus = parse_num(it.next(), "gpu count")?;
                    let model = match it.next() {
                        Some(s) => VerifyModel::parse(s)?,
                        None => VerifyModel::Mlp,
                    };
                    return Ok(Command::VerifyAll { gpus, model });
                }
                if first == "--serve" {
                    let tp = parse_num(it.next(), "tp degree")?;
                    let mut shape = Vec::new();
                    let mut inject = None;
                    while let Some(arg) = it.next() {
                        if arg == "--inject" {
                            inject = Some(parse_defect(it.next())?);
                        } else {
                            shape.push(
                                arg.parse::<usize>()
                                    .map_err(|_| format!("invalid serve shape arg: '{arg}'"))?,
                            );
                        }
                    }
                    let (layers, tokens) = match shape.as_slice() {
                        [] => (2, 3),
                        [l, t] => (*l, *t),
                        _ => return Err("--serve takes <tp> [<layers> <tokens>]".to_string()),
                    };
                    return Ok(Command::VerifyServe {
                        tp,
                        layers,
                        tokens,
                        inject,
                    });
                }
                let gx = first
                    .parse::<usize>()
                    .map_err(|_| format!("invalid gx: '{first}'"))?;
                let gy = parse_num(it.next(), "gy")?;
                let gz = parse_num(it.next(), "gz")?;
                let gd = parse_num(it.next(), "gd")?;
                let mut model = VerifyModel::Mlp;
                let mut inject = None;
                while let Some(arg) = it.next() {
                    if arg == "--inject" {
                        inject = Some(parse_defect(it.next())?);
                    } else {
                        model = VerifyModel::parse(arg)?;
                    }
                }
                Ok(Command::Verify {
                    grid: Grid4d::new(gx, gy, gz, gd),
                    model,
                    inject,
                })
            }
            other => Err(format!("unknown subcommand '{other}'")),
        }
    }
}

/// Run the full checker stack over extracted streams, optionally
/// seeding a defect into rank 1 first, and print the report plus the
/// per-check timing summary. Shared by `verify <grid>` and
/// `verify --serve`.
fn certify(
    mut streams: Vec<Vec<axonn_collectives::SchedEvent>>,
    defect: Option<DefectKind>,
) -> Result<(), String> {
    if let Some(kind) = defect {
        if streams.len() < 2 {
            return Err("--inject needs a world of at least 2 ranks".to_string());
        }
        if !inject(&mut streams, 1, kind) {
            return Err(format!(
                "could not inject '{}' into rank 1's stream",
                kind.label()
            ));
        }
        println!("injected defect '{}' into rank 1", kind.label());
    }
    let report = check_schedules(&streams);
    println!("{report}");
    println!("per-check timing: {}", timing_line(&report.timings_us));
    match defect {
        None if report.is_ok() => Ok(()),
        None => Err("schedule verification failed".to_string()),
        Some(kind) if report.is_ok() => Err(format!(
            "injected defect '{}' was not detected",
            kind.label()
        )),
        Some(kind) => {
            println!("defect '{}' correctly rejected", kind.label());
            Ok(())
        }
    }
}

/// Render `Report::timings_us` as `lints 3µs, matching 10µs, ...`.
fn timing_line(timings: &[(&'static str, u64)]) -> String {
    timings
        .iter()
        .map(|(name, us)| format!("{name} {us}µs"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Parse the argument of `--inject`, listing every known defect family
/// on error.
fn parse_defect(arg: Option<&String>) -> Result<DefectKind, String> {
    let kind = arg.ok_or("missing defect after --inject")?;
    DefectKind::parse(kind).ok_or_else(|| {
        format!(
            "unknown defect '{kind}' (expected {})",
            DefectKind::ALL.map(|k| k.label()).join(", ")
        )
    })
}

/// Look up a machine by name, with a friendly error.
fn machine(name: &str) -> Result<Machine, String> {
    match name.to_ascii_lowercase().as_str() {
        "perlmutter" | "frontier" | "alps" => Ok(Machine::by_name(name)),
        other => Err(format!(
            "unknown machine '{other}' (expected perlmutter, frontier or alps)"
        )),
    }
}

fn model(billions: usize) -> Result<GptConfig, String> {
    table2_models()
        .into_iter()
        .find(|m| m.name == format!("GPT-{billions}B"))
        .ok_or_else(|| {
            let names: Vec<String> = table2_models().iter().map(|m| m.name.clone()).collect();
            format!(
                "no GPT-{billions}B in Table II (have: {})",
                names.join(", ")
            )
        })
}

/// Execute a parsed command, printing to stdout.
pub fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Machines => {
            println!(
                "{:<12} {:>9} {:>14} {:>14} {:>12} {:>10}",
                "machine", "gpus/node", "adv Tflop/s", "emp Tflop/s", "mem/GPU", "β_inter"
            );
            for m in Machine::all() {
                println!(
                    "{:<12} {:>9} {:>14.1} {:>14.1} {:>9.0} GB {:>7.0} GB/s",
                    m.name,
                    m.gpus_per_node,
                    m.advertised_peak_tflops,
                    m.empirical_peak_tflops,
                    m.mem_per_gpu / 1e9,
                    m.beta_inter / 1e9
                );
            }
            Ok(())
        }
        Command::Models => {
            println!(
                "{:<10} {:>7} {:>8} {:>7} {:>14} {:>18}",
                "model", "layers", "hidden", "heads", "params", "model Tflop/seq"
            );
            for m in table2_models() {
                println!(
                    "{:<10} {:>7} {:>8} {:>7} {:>13.1}B {:>18.2}",
                    m.name,
                    m.num_layers,
                    m.hidden_size,
                    m.num_heads,
                    m.num_parameters() as f64 / 1e9,
                    m.model_flops_per_iter(m.seq_len) / 1e12
                );
            }
            Ok(())
        }
        Command::Plan {
            machine: mname,
            billions,
            gpus,
            batch_tokens,
        } => {
            let mach = machine(&mname)?;
            let db = BandwidthDb::profile(&mach);
            let model = model(billions)?;
            let ranked = rank_configs(
                &mach,
                &db,
                &model,
                batch_tokens,
                gpus,
                Some(mach.mem_per_gpu * 0.8),
            );
            if ranked.is_empty() {
                return Err(format!(
                    "{} does not fit on {gpus} GPUs of {}",
                    model.name, mach.name
                ));
            }
            println!(
                "{} on {gpus} GPUs of {}, batch {:.2}M tokens — top configurations:",
                model.name,
                mach.name,
                batch_tokens as f64 / 1e6
            );
            for (i, rc) in ranked.iter().take(10).enumerate() {
                println!(
                    "{:>3}. {:<24} predicted comm {:>8.3} s",
                    i + 1,
                    format!("{}", rc.grid),
                    rc.predicted_comm_seconds
                );
            }
            let (best, b) = pick_best_config(
                &mach,
                &db,
                &model,
                batch_tokens,
                gpus,
                SimOptions::full(),
                10,
            );
            let rate = model.model_flops_per_iter(batch_tokens) / b.total_seconds;
            println!(
                "\nsimulated best: {best} -> {:.2} s/iter, {:.1} Pflop/s ({:.1}% of advertised peak)",
                b.total_seconds,
                rate / 1e15,
                100.0 * rate / (gpus as f64 * mach.advertised_peak())
            );
            Ok(())
        }
        Command::Simulate {
            machine: mname,
            billions,
            grid,
            batch_tokens,
        } => {
            let mach = machine(&mname)?;
            let db = BandwidthDb::profile(&mach);
            let model = model(billions)?;
            if batch_tokens % grid.gd != 0 {
                return Err(format!(
                    "batch tokens {batch_tokens} not divisible by G_data={}",
                    grid.gd
                ));
            }
            let b = simulate_batch(&mach, &db, grid, &model, batch_tokens, SimOptions::full());
            let rate = model.model_flops_per_iter(batch_tokens) / b.total_seconds;
            println!("{} on {} — configuration {grid}:", model.name, mach.name);
            println!("  time/batch      {:>10.3} s", b.total_seconds);
            println!("  compute         {:>10.3} s", b.compute_seconds);
            println!("  exposed comm    {:>10.3} s", b.exposed_comm_seconds);
            println!("  issued comm     {:>10.3} s", b.issued_comm_seconds);
            println!(
                "  sustained       {:>10.1} Pflop/s ({:.1}% advertised / {:.1}% empirical peak)",
                rate / 1e15,
                100.0 * rate / (grid.gpus() as f64 * mach.advertised_peak()),
                100.0 * rate / (grid.gpus() as f64 * mach.empirical_peak())
            );
            Ok(())
        }
        Command::Trace {
            machine: mname,
            billions,
            grid,
            batch_tokens,
            prefix,
        } => {
            let mach = machine(&mname)?;
            let db = BandwidthDb::profile(&mach);
            let model = model(billions)?;
            if batch_tokens % grid.gd != 0 {
                return Err(format!(
                    "batch tokens {batch_tokens} not divisible by G_data={}",
                    grid.gd
                ));
            }
            let sink = TraceSink::new(0);
            let b = simulate_batch_traced(
                &mach,
                &db,
                grid,
                &model,
                batch_tokens,
                SimOptions::full(),
                &sink,
            );
            let traces = vec![sink.finish()];
            let summary = TraceSummary::from_traces(&traces);
            let trace_path = format!("{prefix}.trace.json");
            let summary_path = format!("{prefix}.summary.json");
            std::fs::write(&trace_path, chrome_trace_json(&traces))
                .map_err(|e| format!("writing {trace_path}: {e}"))?;
            std::fs::write(&summary_path, summary.to_json_pretty())
                .map_err(|e| format!("writing {summary_path}: {e}"))?;
            println!(
                "{} on {} — configuration {grid}, one traced batch:",
                model.name, mach.name
            );
            println!("  time/batch      {:>10.3} s", b.total_seconds);
            println!(
                "  comm issued     {:>10.3} s, hidden {:.3} s ({:.1}% overlap efficiency)",
                summary.overlap.total_issued_seconds,
                summary.overlap.total_hidden_seconds,
                100.0 * summary.overlap.overlap_efficiency
            );
            println!("  events          {:>10}", summary.total_events);
            println!("wrote {trace_path} (load in Perfetto / chrome://tracing)");
            println!("wrote {summary_path}");
            Ok(())
        }
        Command::Profile { machine: mname } => {
            let mach = machine(&mname)?;
            let db = BandwidthDb::profile(&mach);
            println!(
                "intra-node bandwidth database for {} ({} GPUs/node):",
                mach.name, mach.gpus_per_node
            );
            println!("{:>4} {:>4} {:>14}", "G0", "G1", "GB/s per pair");
            for e in db.entries() {
                println!("{:>4} {:>4} {:>14.1}", e.g0, e.g1, e.bytes_per_second / 1e9);
            }
            println!("\nJSON:\n{}", db.to_json());
            Ok(())
        }
        Command::Resume { dir, gpus, step } => {
            let store = CheckpointStore::new(&dir);
            let step = match step.or_else(|| store.latest_step()) {
                Some(s) => s,
                None => return Err(format!("no durable checkpoint found under {dir}")),
            };
            let manifest = store.manifest(step).map_err(|e| e.to_string())?;
            let src_grid = manifest.grid();
            let dims = manifest.dims_usize();
            println!("checkpoint {dir} step {step}:");
            println!("  written by      {src_grid} ({} ranks)", src_grid.gpus());
            println!("  training seed   {}", manifest.seed);
            println!("  model dims      {dims:?}");
            println!("  batch rows      {}", manifest.batch_rows);
            println!(
                "  shards          {} files, {} layer checksums each",
                manifest.shards.len(),
                manifest
                    .shards
                    .first()
                    .map_or(0, |s| s.layer_checksums.len())
            );
            let target = gpus.unwrap_or_else(|| src_grid.gpus());
            let legal = legal_resume_grids(&dims, manifest.batch_rows as usize, target);
            if legal.is_empty() {
                return Err(format!(
                    "no legal {target}-rank grid can resume dims {dims:?} with batch {}",
                    manifest.batch_rows
                ));
            }
            println!("\nlegal resume grids on {target} rank(s):");
            for g in &legal {
                let marker = if *g == src_grid { "  (original)" } else { "" };
                println!("  {g}{marker}");
            }
            Ok(())
        }
        Command::Bench { run, counts } => bench::run(&run, &counts),
        Command::Serve {
            checkpoint,
            prompt,
            max_new,
            tp,
        } => {
            let path = std::path::Path::new(&checkpoint);
            let model = if path.is_dir() {
                axonn_serve::load_sharded(path)?
            } else {
                axonn_serve::load_model(path)?
            };
            let cfg = &model.cfg;
            if prompt.is_empty() {
                return Err("prompt must not be empty".to_string());
            }
            if let Some(&t) = prompt.iter().find(|t| **t >= cfg.vocab) {
                return Err(format!("prompt token {t} out of vocab 0..{}", cfg.vocab));
            }
            if prompt.len() + max_new > cfg.seq_len {
                return Err(format!(
                    "prompt ({}) + max new tokens ({max_new}) exceeds the model \
                     window of {} tokens",
                    prompt.len(),
                    cfg.seq_len
                ));
            }
            println!(
                "loaded {} (vocab {}, window {}, dim {}, {} heads x {} layers)",
                checkpoint, cfg.vocab, cfg.seq_len, cfg.dim, cfg.n_heads, cfg.n_layers
            );
            if cfg.n_heads % tp != 0 {
                return Err(format!("{} heads not divisible by --tp {tp}", cfg.n_heads));
            }
            let registry = LiveRegistry::new_enabled(true);
            let generated = tp_greedy_spmd(&model, tp, &prompt, max_new, &registry)
                .swap_remove(0)
                .0;
            // Every all-reduce algorithm (ring, halving-doubling, tree)
            // stamps its own `collective.<algo>.calls` counter.
            let all_reduces: u64 = registry
                .snapshot()
                .counters
                .iter()
                .filter(|(k, _)| k.starts_with("collective.all_reduce") && k.ends_with(".calls"))
                .map(|(_, v)| v)
                .sum();
            println!(
                "tensor-parallel decode over {tp} rank(s), {all_reduces} pooled all-reduce calls"
            );
            println!("prompt       {prompt:?}");
            println!("continuation {generated:?}");
            Ok(())
        }
        Command::Load { requests, clients } => {
            if requests == 0 || clients == 0 {
                return Err("request and client counts must be positive".to_string());
            }
            let model = Arc::new(Gpt::new(serve_demo_model()));
            let registry = LiveRegistry::new_enabled(true);
            let mut engine = ServeEngine::new(
                model,
                ServeConfig {
                    sampling: Sampling::Greedy,
                    ..ServeConfig::default()
                },
                &registry,
            );
            let out = run_load(
                &mut engine,
                &LoadConfig {
                    clients,
                    total_requests: requests,
                    ..LoadConfig::default()
                },
            );
            println!(
                "{} requests over {clients} closed-loop clients, {} engine steps, {:.3} s wall:",
                out.completed + out.evicted,
                out.steps,
                out.wall_s
            );
            println!(
                "  completed {} / evicted {} / overload retries {}",
                out.completed, out.evicted, out.rejected
            );
            println!(
                "  TTFT p50 {:.3} ms / p99 {:.3} ms",
                out.ttft_p50_s * 1e3,
                out.ttft_p99_s * 1e3
            );
            println!(
                "  per-request decode {:.0} tokens/s p50, {:.0} p99; aggregate {:.0} tokens/s",
                out.tokens_per_s_p50, out.tokens_per_s_p99, out.aggregate_tokens_per_s
            );
            print!("{}", render_serve_section(&registry.snapshot()));
            Ok(())
        }
        Command::Monitor { refreshes, sim } => {
            if sim {
                monitor_sim(refreshes)
            } else {
                monitor_live(refreshes)
            }
        }
        Command::Verify {
            grid,
            model,
            inject: defect,
        } => {
            let streams = extract_verify_streams(&grid, model)?;
            certify(streams, defect)
        }
        Command::VerifyServe {
            tp,
            layers,
            tokens,
            inject: defect,
        } => {
            if tp == 0 || layers == 0 || tokens == 0 {
                return Err("--serve needs positive tp, layers and tokens".to_string());
            }
            println!("serve decode schedule: tp={tp}, layers={layers}, tokens={tokens}");
            let streams = axonn_serve::extract_tp_decode_schedule(tp, layers, tokens);
            certify(streams, defect)
        }
        Command::VerifyAll { gpus, model } => {
            if gpus == 0 {
                return Err("gpu count must be positive".to_string());
            }
            // MLP reuses the elastic-restart enumerator so `verify
            // --all-grids` and `resume` agree on what "legal" means.
            let grids: Vec<Grid4d> = match model {
                VerifyModel::Mlp => {
                    let (dims, batch) = default_mlp_shape(gpus);
                    legal_resume_grids(&dims, batch, gpus)
                }
                VerifyModel::Transformer => {
                    let shape = default_transformer_shape(gpus);
                    Grid4d::enumerate(gpus)
                        .into_iter()
                        .filter(|g| transformer_grid_fits(g.gx, g.gy, g.gz, g.gd, &shape))
                        .collect()
                }
            };
            println!(
                "verifying {} {} grid(s) on {gpus} rank(s)",
                grids.len(),
                model.label()
            );
            println!(
                "{:<20} {:>6} {:>8}  {:<44} verdict",
                "grid", "ranks", "issues", "check timing"
            );
            let mut rejected = 0usize;
            for g in &grids {
                let streams = extract_verify_streams(g, model)?;
                let report = check_schedules(&streams);
                println!(
                    "{:<20} {:>6} {:>8}  {:<44} {}",
                    format!("{}x{}x{}x{}", g.gx, g.gy, g.gz, g.gd),
                    report.ranks,
                    report.issues,
                    timing_line(&report.timings_us),
                    if report.is_ok() { "OK" } else { "REJECTED" }
                );
                if !report.is_ok() {
                    rejected += 1;
                    for d in &report.diagnostics {
                        println!("    {d}");
                    }
                }
            }
            if rejected > 0 {
                Err(format!("{rejected} grid(s) failed schedule verification"))
            } else {
                println!("all {} grid(s) verified clean", grids.len());
                Ok(())
            }
        }
    }
}

/// Overlap efficiency from a live snapshot: the fraction of issued
/// collective time the execution plane did *not* spend blocked in
/// `wait` (1 − Σ overlap.wait_seconds / Σ collective seconds). `None`
/// until any timed collective has been recorded.
fn snapshot_overlap_efficiency(snap: &MetricsSnapshot) -> Option<f64> {
    let comm_sum: f64 = snap
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("collective.") && k.ends_with(".seconds_hist"))
        .map(|(_, h)| h.sum())
        .sum();
    if comm_sum <= 0.0 {
        return None;
    }
    let wait_sum = snap
        .histograms
        .get("overlap.wait_seconds_hist")
        .map(|h| h.sum())
        .unwrap_or(0.0);
    Some((1.0 - wait_sum / comm_sum).clamp(0.0, 1.0))
}

/// Toy model shape for the in-process serving demos (`load`, the
/// serving section of `monitor`): untrained weights, deterministic
/// greedy decode, costs the same per token as a trained model.
fn serve_demo_model() -> GptModelConfig {
    GptModelConfig {
        vocab: 32,
        seq_len: 24,
        dim: 16,
        n_heads: 2,
        n_layers: 1,
        seed: 11,
    }
}

/// The serving-plane lines of the `monitor` table, rendered from the
/// same live snapshot as the training plane: in-flight streams, queue
/// depth, decode rate and TTFT percentiles from the `serve.*` metrics.
fn render_serve_section(snap: &MetricsSnapshot) -> String {
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    if c("serve.requests.submitted") == 0 {
        return "serving plane: idle (no requests yet)\n".to_string();
    }
    let g = |k: &str| snap.gauges.get(k).copied().unwrap_or(0.0);
    let mut out = format!(
        "serving plane: {:.0} in flight, queue depth {:.0}, {:.0} tokens/s\n",
        g("serve.requests.in_flight"),
        g("serve.queue.depth"),
        g("serve.tokens_per_s"),
    );
    out.push_str(&format!(
        "  requests {} submitted / {} completed / {} rejected / {} evicted; \
         tokens {} prefill / {} decoded\n",
        c("serve.requests.submitted"),
        c("serve.requests.completed"),
        c("serve.requests.rejected"),
        c("serve.requests.evicted"),
        c("serve.tokens.prefill"),
        c("serve.tokens.decoded"),
    ));
    if let Some(h) = snap.histograms.get("serve.ttft.seconds") {
        if let (Some(p50), Some(p99)) = (h.quantile(0.5), h.quantile(0.99)) {
            out.push_str(&format!(
                "  TTFT p50 {:.3} ms / p99 {:.3} ms over {} first tokens\n",
                p50 * 1e3,
                p99 * 1e3,
                h.count()
            ));
        }
    }
    out
}

/// One refresh of the `monitor` per-rank table, rendered from the
/// transport heartbeats and step counters. Public-in-crate so tests can
/// assert on the rendering without scraping stdout.
fn render_monitor_table(
    probe: &Comm,
    steps: &[u64],
    elapsed_s: f64,
    snap: &MetricsSnapshot,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4} {:>7} {:>8} {:>7} {:>9} {:>9}  {}\n",
        "rank", "steps", "step/s", "colls", "MB moved", "hb age", "pending"
    ));
    for t in probe.telemetry() {
        let steps_done = steps.get(t.rank).copied().unwrap_or(0);
        let pending = match &t.pending {
            Some(p) => format!("{} <- rank {} ({} ms)", p.lane, p.src, p.age_ms),
            None => t
                .current_op
                .map(|op| format!("in {op}"))
                .unwrap_or_else(|| "-".into()),
        };
        out.push_str(&format!(
            "{:>4} {:>7} {:>8.1} {:>7} {:>9.2} {:>6} ms  {}\n",
            t.rank,
            steps_done,
            steps_done as f64 / elapsed_s.max(1e-9),
            t.collectives,
            t.bytes_sent as f64 / (1024.0 * 1024.0),
            t.heartbeat_age_ms,
            pending
        ));
    }
    match snapshot_overlap_efficiency(snap) {
        Some(eff) => out.push_str(&format!(
            "overlap efficiency {:.1}% (virtual clock)\n",
            eff * 100.0
        )),
        None => out.push_str("overlap efficiency n/a (no timed collectives yet)\n"),
    }
    out
}

/// `axonnctl monitor`: drive a small 4-rank training-shaped job on the
/// thread-backed runtime with a live registry wired in, and refresh the
/// per-rank table while it runs. Ends with a Prometheus excerpt to show
/// the exposition path.
fn monitor_live(refreshes: usize) -> Result<(), String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    const WORLD: usize = 4;
    let refreshes = refreshes.max(1);
    let registry = LiveRegistry::new_enabled(true);
    let comms = CommWorld::builder(WORLD)
        .cost(Arc::new(RingCostModel::new(1e9, 1e9)))
        .metrics(registry.clone())
        .build();
    let probe = comms[0].clone();
    let steps: Arc<Vec<AtomicU64>> = Arc::new((0..WORLD).map(|_| AtomicU64::new(0)).collect());
    let per_refresh_steps = 20usize;
    let total_steps = per_refresh_steps * refreshes;
    let start = Instant::now();
    let workers: Vec<_> = comms
        .into_iter()
        .map(|c| {
            let steps = steps.clone();
            std::thread::spawn(move || {
                let g = ProcessGroup::new((0..WORLD).collect());
                for _ in 0..total_steps {
                    let mut grads = vec![c.rank() as f32; 4096];
                    c.all_reduce(&g, &mut grads);
                    steps[c.rank()].fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();
    // The serving plane shares the registry: a small engine decodes a
    // few requests per refresh so `monitor` shows both planes at once.
    let mut serve_engine = ServeEngine::new(
        Arc::new(Gpt::new(serve_demo_model())),
        ServeConfig::default(),
        &registry,
    );
    for r in 0..refreshes {
        std::thread::sleep(Duration::from_millis(40));
        for k in 0..4usize {
            let _ = serve_engine.submit(ServeRequest {
                prompt: vec![(r + k) % 8, (r + k + 1) % 8, 3],
                max_new_tokens: 4,
                deadline_steps: None,
            });
        }
        serve_engine.run_until_idle(256);
        let counts: Vec<u64> = steps.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        println!("--- refresh {}/{refreshes} ---", r + 1);
        let snap = registry.snapshot();
        print!(
            "{}",
            render_monitor_table(&probe, &counts, start.elapsed().as_secs_f64(), &snap)
        );
        print!("{}", render_serve_section(&snap));
    }
    for w in workers {
        w.join()
            .map_err(|_| "monitor worker panicked".to_string())?;
    }
    println!("\nPrometheus exposition (excerpt):");
    for line in registry
        .snapshot()
        .prometheus_text()
        .lines()
        .filter(|l| l.contains("axonn_collective_all_reduce"))
        .take(12)
    {
        println!("{line}");
    }
    Ok(())
}

/// `axonnctl monitor --sim`: publish a simulated batch through the same
/// live registry and render the snapshot — identical metric names to a
/// running job, so dashboards can be built before the job exists.
fn monitor_sim(refreshes: usize) -> Result<(), String> {
    let mach = machine("frontier")?;
    let db = BandwidthDb::profile(&mach);
    let model = model(5)?;
    let grid = Grid4d::new(2, 2, 2, 4);
    let registry = LiveRegistry::new_enabled(true);
    for r in 0..refreshes.max(1) {
        let sink = TraceSink::new(0);
        let b = simulate_batch_traced(&mach, &db, grid, &model, 1 << 18, SimOptions::full(), &sink);
        publish_live_metrics(&[sink.finish()], &registry);
        println!(
            "--- refresh {}/{} (simulated {} on {}, {:.3} s/batch) ---",
            r + 1,
            refreshes.max(1),
            model.name,
            mach.name,
            b.total_seconds
        );
        let snap = registry.snapshot();
        for (name, value) in snap
            .counters
            .iter()
            .filter(|(k, _)| k.ends_with(".calls") || k.ends_with(".bytes"))
        {
            println!("{name:<40} {value}");
        }
        match snapshot_overlap_efficiency(&snap) {
            Some(eff) => println!("overlap efficiency {:.1}% (virtual clock)", eff * 100.0),
            None => println!("overlap efficiency n/a"),
        }
    }
    println!("\nPrometheus exposition (excerpt):");
    for line in registry.snapshot().prometheus_text().lines().take(12) {
        println!("{line}");
    }
    Ok(())
}

/// Extract per-rank schedule streams for one training step of the
/// default-shaped model on `grid`, rejecting shapes that don't fit with
/// a clean error instead of a downstream assert.
fn extract_verify_streams(
    grid: &Grid4d,
    model: VerifyModel,
) -> Result<Vec<Vec<axonn_collectives::SchedEvent>>, String> {
    let world = grid.gpus();
    let (gx, gy, gz, gd) = (grid.gx, grid.gy, grid.gz, grid.gd);
    match model {
        VerifyModel::Mlp => {
            let (dims, batch) = default_mlp_shape(world);
            if !grid_fits(grid, &dims, batch) {
                return Err(format!(
                    "mlp shape {dims:?} (batch {batch}) does not fit grid \
                     {gx}x{gy}x{gz}x{gd}"
                ));
            }
            Ok(extract_mlp_schedules(
                gx,
                gy,
                gz,
                gd,
                &dims,
                batch,
                OverlapConfig::all(),
            ))
        }
        VerifyModel::Transformer => {
            let shape = default_transformer_shape(world);
            if !transformer_grid_fits(gx, gy, gz, gd, &shape) {
                return Err(format!(
                    "transformer shape {shape:?} does not fit grid {gx}x{gy}x{gz}x{gd}"
                ));
            }
            Ok(extract_transformer_schedules(
                gx,
                gy,
                gz,
                gd,
                &shape,
                OverlapConfig::all(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_simple_subcommands() {
        assert_eq!(
            Command::parse(&sv(&["machines"])).unwrap(),
            Command::Machines
        );
        assert_eq!(Command::parse(&sv(&["models"])).unwrap(), Command::Models);
        assert_eq!(
            Command::parse(&sv(&["bench"])).unwrap(),
            Command::Bench {
                run: "benchmark/out/latest.json".into(),
                counts: "results/bench_counts.json".into()
            }
        );
        assert_eq!(
            Command::parse(&sv(&["bench", "a.json", "c.json"])).unwrap(),
            Command::Bench {
                run: "a.json".into(),
                counts: "c.json".into()
            }
        );
        assert_eq!(
            Command::parse(&sv(&["profile", "frontier"])).unwrap(),
            Command::Profile {
                machine: "frontier".into()
            }
        );
    }

    #[test]
    fn parse_monitor_variants() {
        assert_eq!(
            Command::parse(&sv(&["monitor"])).unwrap(),
            Command::Monitor {
                refreshes: 3,
                sim: false
            }
        );
        assert_eq!(
            Command::parse(&sv(&["monitor", "5", "--sim"])).unwrap(),
            Command::Monitor {
                refreshes: 5,
                sim: true
            }
        );
        assert!(Command::parse(&sv(&["monitor", "soon"]))
            .unwrap_err()
            .contains("invalid refresh count"));
    }

    #[test]
    fn run_monitor_live_renders_snapshot() {
        // The acceptance check: `axonnctl monitor` renders a live
        // per-rank table against a running (in-process) job.
        run(Command::Monitor {
            refreshes: 2,
            sim: false,
        })
        .unwrap();
    }

    #[test]
    fn run_monitor_sim_publishes_same_names() {
        run(Command::Monitor {
            refreshes: 1,
            sim: true,
        })
        .unwrap();
    }

    #[test]
    fn monitor_table_renders_ranks_and_overlap() {
        use std::time::Duration;
        let registry = LiveRegistry::new_enabled(true);
        let comms = CommWorld::builder(2)
            .cost(Arc::new(RingCostModel::new(1e9, 1e9)))
            .metrics(registry.clone())
            .build();
        let probe = comms[0].clone();
        let workers: Vec<_> = comms
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let g = ProcessGroup::new((0..2).collect());
                    let mut v = vec![c.rank() as f32; 256];
                    c.all_reduce(&g, &mut v);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        std::thread::sleep(Duration::from_millis(1));
        let table = render_monitor_table(&probe, &[1, 1], 0.05, &registry.snapshot());
        assert!(table.contains("rank"), "{table}");
        assert!(table.contains("overlap efficiency"), "{table}");
        // Both ranks appear with their step counts.
        assert!(table.lines().count() >= 4, "{table}");
    }

    #[test]
    fn bench_without_baseline_is_a_clear_error() {
        // No `latest.json`: the error says which command writes it.
        let e = run(Command::Bench {
            run: "/nonexistent/latest.json".into(),
            counts: bench::DEFAULT_COUNTS.into(),
        })
        .unwrap_err();
        assert!(e.contains("no benchmark run"), "unexpected: {e}");
        assert!(e.contains("benchmark/run.sh --traced"), "no guidance: {e}");
    }

    #[test]
    fn parse_plan_with_default_batch() {
        let c = Command::parse(&sv(&["plan", "frontier", "20", "512"])).unwrap();
        assert_eq!(
            c,
            Command::Plan {
                machine: "frontier".into(),
                billions: 20,
                gpus: 512,
                batch_tokens: HEADLINE_BATCH_TOKENS
            }
        );
    }

    #[test]
    fn parse_simulate_full() {
        let c = Command::parse(&sv(&[
            "simulate", "alps", "40", "2", "2", "16", "32", "1048576",
        ]))
        .unwrap();
        match c {
            Command::Simulate {
                grid, batch_tokens, ..
            } => {
                assert_eq!(grid, Grid4d::new(2, 2, 16, 32));
                assert_eq!(batch_tokens, 1 << 20);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_errors_are_informative() {
        assert!(Command::parse(&[])
            .unwrap_err()
            .contains("missing subcommand"));
        assert!(Command::parse(&sv(&["dance"]))
            .unwrap_err()
            .contains("unknown subcommand"));
        assert!(Command::parse(&sv(&["plan", "frontier"]))
            .unwrap_err()
            .contains("model size"));
        assert!(Command::parse(&sv(&["plan", "frontier", "x", "4"]))
            .unwrap_err()
            .contains("invalid"));
    }

    #[test]
    fn run_machines_and_models() {
        run(Command::Machines).unwrap();
        run(Command::Models).unwrap();
    }

    #[test]
    fn run_simulate_small() {
        run(Command::Simulate {
            machine: "frontier".into(),
            billions: 5,
            grid: Grid4d::new(2, 2, 2, 4),
            batch_tokens: 1 << 18,
        })
        .unwrap();
    }

    #[test]
    fn parse_trace_defaults_prefix() {
        let c = Command::parse(&sv(&["trace", "frontier", "20", "2", "2", "4", "8"])).unwrap();
        match c {
            Command::Trace {
                grid,
                batch_tokens,
                prefix,
                ..
            } => {
                assert_eq!(grid, Grid4d::new(2, 2, 4, 8));
                assert_eq!(batch_tokens, HEADLINE_BATCH_TOKENS);
                assert_eq!(prefix, "axonn-frontier-20b");
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn run_trace_writes_chrome_and_summary_files() {
        let prefix = std::env::temp_dir().join("axonnctl-trace-test");
        let prefix = prefix.to_str().unwrap().to_string();
        run(Command::Trace {
            machine: "frontier".into(),
            billions: 5,
            grid: Grid4d::new(2, 2, 2, 2),
            batch_tokens: 1 << 17,
            prefix: prefix.clone(),
        })
        .unwrap();
        let chrome = std::fs::read_to_string(format!("{prefix}.trace.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&chrome).expect("valid chrome JSON");
        drop(doc);
        let summary = std::fs::read_to_string(format!("{prefix}.summary.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&summary).expect("valid summary JSON");
        drop(doc);
        std::fs::remove_file(format!("{prefix}.trace.json")).ok();
        std::fs::remove_file(format!("{prefix}.summary.json")).ok();
    }

    #[test]
    fn run_plan_small() {
        run(Command::Plan {
            machine: "perlmutter".into(),
            billions: 5,
            gpus: 64,
            batch_tokens: 1 << 18,
        })
        .unwrap();
    }

    #[test]
    fn bad_machine_is_rejected() {
        let e = run(Command::Profile {
            machine: "summit".into(),
        })
        .unwrap_err();
        assert!(e.contains("unknown machine"));
    }

    #[test]
    fn parse_verify_variants() {
        assert_eq!(
            Command::parse(&sv(&["verify", "2", "1", "2", "1"])).unwrap(),
            Command::Verify {
                grid: Grid4d::new(2, 1, 2, 1),
                model: VerifyModel::Mlp,
                inject: None
            }
        );
        assert_eq!(
            Command::parse(&sv(&["verify", "1", "2", "1", "2", "transformer"])).unwrap(),
            Command::Verify {
                grid: Grid4d::new(1, 2, 1, 2),
                model: VerifyModel::Transformer,
                inject: None
            }
        );
        assert_eq!(
            Command::parse(&sv(&["verify", "2", "2", "1", "1", "--inject", "reorder"])).unwrap(),
            Command::Verify {
                grid: Grid4d::new(2, 2, 1, 1),
                model: VerifyModel::Mlp,
                inject: Some(DefectKind::Reorder)
            }
        );
        assert_eq!(
            Command::parse(&sv(&["verify", "--all-grids", "8", "transformer"])).unwrap(),
            Command::VerifyAll {
                gpus: 8,
                model: VerifyModel::Transformer
            }
        );
        assert_eq!(
            Command::parse(&sv(&["verify", "--serve", "2"])).unwrap(),
            Command::VerifyServe {
                tp: 2,
                layers: 2,
                tokens: 3,
                inject: None
            }
        );
        assert_eq!(
            Command::parse(&sv(&[
                "verify",
                "--serve",
                "4",
                "3",
                "5",
                "--inject",
                "overlap-race"
            ]))
            .unwrap(),
            Command::VerifyServe {
                tp: 4,
                layers: 3,
                tokens: 5,
                inject: Some(DefectKind::OverlapRace)
            }
        );
        assert_eq!(
            Command::parse(&sv(&[
                "verify",
                "1",
                "2",
                "1",
                "2",
                "--inject",
                "slab-reuse"
            ]))
            .unwrap(),
            Command::Verify {
                grid: Grid4d::new(1, 2, 1, 2),
                model: VerifyModel::Mlp,
                inject: Some(DefectKind::SlabReuse)
            }
        );
        let e =
            Command::parse(&sv(&["verify", "2", "1", "1", "1", "--inject", "bogus"])).unwrap_err();
        assert!(
            e.contains("unknown defect") && e.contains("early-recycle"),
            "{e}"
        );
        assert!(Command::parse(&sv(&["verify", "--serve", "2", "3"]))
            .unwrap_err()
            .contains("--serve takes"));
        assert!(
            Command::parse(&sv(&["verify", "2", "1", "1", "1", "resnet"]))
                .unwrap_err()
                .contains("unknown model")
        );
    }

    #[test]
    fn run_verify_accepts_clean_grids() {
        run(Command::Verify {
            grid: Grid4d::new(2, 1, 2, 1),
            model: VerifyModel::Mlp,
            inject: None,
        })
        .unwrap();
        run(Command::Verify {
            grid: Grid4d::new(1, 2, 1, 2),
            model: VerifyModel::Transformer,
            inject: None,
        })
        .unwrap();
    }

    #[test]
    fn run_verify_rejects_each_seeded_defect() {
        for defect in [
            DefectKind::Reorder,
            DefectKind::MissingWait,
            DefectKind::CountMismatch,
        ] {
            // Ok(()) here means "the defect was injected AND rejected";
            // a clean report under --inject is an Err.
            run(Command::Verify {
                grid: Grid4d::new(2, 2, 1, 1),
                model: VerifyModel::Mlp,
                inject: Some(defect),
            })
            .unwrap_or_else(|e| panic!("{}: {e}", defect.label()));
        }
    }

    #[test]
    fn run_verify_rejects_race_and_slab_defects() {
        // The gradsync overlap pipeline on a data-parallel transformer
        // grid carries tagged pooled async issues — the injection sites
        // the happens-before and slab analyses need.
        for defect in [
            DefectKind::OverlapRace,
            DefectKind::SlabReuse,
            DefectKind::EarlyRecycle,
        ] {
            run(Command::Verify {
                grid: Grid4d::new(1, 2, 1, 2),
                model: VerifyModel::Transformer,
                inject: Some(defect),
            })
            .unwrap_or_else(|e| panic!("{}: {e}", defect.label()));
        }
    }

    #[test]
    fn run_verify_serve_certifies_and_rejects() {
        for tp in [1usize, 2, 4] {
            run(Command::VerifyServe {
                tp,
                layers: 2,
                tokens: 3,
                inject: None,
            })
            .unwrap_or_else(|e| panic!("tp={tp}: {e}"));
        }
        // Ok(()) means "injected AND rejected".
        run(Command::VerifyServe {
            tp: 2,
            layers: 1,
            tokens: 2,
            inject: Some(DefectKind::CountMismatch),
        })
        .unwrap();
        let e = run(Command::VerifyServe {
            tp: 1,
            layers: 1,
            tokens: 1,
            inject: Some(DefectKind::Reorder),
        })
        .unwrap_err();
        assert!(e.contains("at least 2 ranks"));
    }

    #[test]
    fn run_verify_all_grids_sweeps_the_enumeration() {
        run(Command::VerifyAll {
            gpus: 4,
            model: VerifyModel::Mlp,
        })
        .unwrap();
        run(Command::VerifyAll {
            gpus: 4,
            model: VerifyModel::Transformer,
        })
        .unwrap();
    }

    #[test]
    fn run_verify_inject_needs_two_ranks() {
        let e = run(Command::Verify {
            grid: Grid4d::new(1, 1, 1, 1),
            model: VerifyModel::Mlp,
            inject: Some(DefectKind::Reorder),
        })
        .unwrap_err();
        assert!(e.contains("at least 2 ranks"));
    }

    #[test]
    fn parse_serve_and_load_variants() {
        assert_eq!(
            Command::parse(&sv(&["serve", "ckpt.json"])).unwrap(),
            Command::Serve {
                checkpoint: "ckpt.json".into(),
                prompt: vec![0, 1, 2],
                max_new: 16,
                tp: 1
            }
        );
        assert_eq!(
            Command::parse(&sv(&["serve", "d/", "8", "--tp", "2", "--prompt", "4,5,6"])).unwrap(),
            Command::Serve {
                checkpoint: "d/".into(),
                prompt: vec![4, 5, 6],
                max_new: 8,
                tp: 2
            }
        );
        assert!(Command::parse(&sv(&["serve"]))
            .unwrap_err()
            .contains("checkpoint path"));
        assert!(Command::parse(&sv(&["serve", "c", "--tp", "0"]))
            .unwrap_err()
            .contains("invalid tp"));
        assert!(Command::parse(&sv(&["serve", "c", "--prompt", "1,x"]))
            .unwrap_err()
            .contains("invalid prompt token"));
        assert_eq!(
            Command::parse(&sv(&["load"])).unwrap(),
            Command::Load {
                requests: 200,
                clients: 8
            }
        );
        assert_eq!(
            Command::parse(&sv(&["load", "50", "4"])).unwrap(),
            Command::Load {
                requests: 50,
                clients: 4
            }
        );
    }

    #[test]
    fn run_serve_decodes_saved_checkpoint() {
        use axonn_lm::Checkpoint;
        let dir = std::env::temp_dir().join(format!("axonnctl_serve_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        let mut model = Gpt::new(serve_demo_model());
        Checkpoint::capture(&mut model).save(&path).unwrap();
        // Single-rank KV-cached decode.
        run(Command::Serve {
            checkpoint: path.to_str().unwrap().into(),
            prompt: vec![1, 2, 3],
            max_new: 4,
            tp: 1,
        })
        .unwrap();
        // Tensor-parallel decode over 2 simulated ranks.
        run(Command::Serve {
            checkpoint: path.to_str().unwrap().into(),
            prompt: vec![1, 2, 3],
            max_new: 4,
            tp: 2,
        })
        .unwrap();
        // Window overflow is a clean error, not a panic.
        let e = run(Command::Serve {
            checkpoint: path.to_str().unwrap().into(),
            prompt: vec![1, 2, 3],
            max_new: 64,
            tp: 1,
        })
        .unwrap_err();
        assert!(e.contains("window"), "unexpected: {e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_load_reports_closed_loop_percentiles() {
        run(Command::Load {
            requests: 30,
            clients: 4,
        })
        .unwrap();
        let e = run(Command::Load {
            requests: 0,
            clients: 4,
        })
        .unwrap_err();
        assert!(e.contains("positive"));
    }

    #[test]
    fn serve_section_renders_from_live_metrics() {
        let registry = LiveRegistry::new_enabled(true);
        assert!(render_serve_section(&registry.snapshot()).contains("idle"));
        let mut engine = ServeEngine::new(
            Arc::new(Gpt::new(serve_demo_model())),
            ServeConfig::default(),
            &registry,
        );
        engine
            .submit(ServeRequest {
                prompt: vec![1, 2],
                max_new_tokens: 3,
                deadline_steps: None,
            })
            .unwrap();
        engine.run_until_idle(64);
        let section = render_serve_section(&registry.snapshot());
        assert!(section.contains("serving plane:"), "{section}");
        assert!(section.contains("1 completed"), "{section}");
        assert!(section.contains("TTFT p50"), "{section}");
    }

    #[test]
    fn parse_resume_variants() {
        assert_eq!(
            Command::parse(&sv(&["resume", "/tmp/ckpt"])).unwrap(),
            Command::Resume {
                dir: "/tmp/ckpt".into(),
                gpus: None,
                step: None
            }
        );
        assert_eq!(
            Command::parse(&sv(&["resume", "/tmp/ckpt", "8", "4"])).unwrap(),
            Command::Resume {
                dir: "/tmp/ckpt".into(),
                gpus: Some(8),
                step: Some(4)
            }
        );
        assert!(Command::parse(&sv(&["resume"]))
            .unwrap_err()
            .contains("checkpoint dir"));
    }

    #[test]
    fn run_resume_lists_legal_grids() {
        use axonn_core::{Activation, GridTopology, Network4d, OverlapConfig};
        use axonn_exec::run_spmd;
        use axonn_ft::save_checkpoint;
        use axonn_perfmodel::Grid4d as G;
        use axonn_tensor::Matrix;
        use std::sync::Arc as StdArc;

        let dir = std::env::temp_dir().join(format!("axonnctl_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StdArc::new(axonn_ft::CheckpointStore::new(&dir));
        let grid = G::new(2, 1, 1, 1);
        let store2 = store.clone();
        run_spmd(2, move |comm| {
            let topo = GridTopology::new(2, 1, 1, 1, comm.rank());
            let mut net = Network4d::new(
                comm,
                topo,
                &[8, 16, 8],
                Activation::Gelu,
                3,
                OverlapConfig::all(),
                false,
            );
            let x = Matrix::random(4, 8, 1.0, 5);
            let t = Matrix::random(4, 8, 1.0, 6);
            net.train_step(&x, &t, 0.01);
            let shards = net.weight_shards();
            save_checkpoint(net.comm(), &grid, &store2, 1, 3, &[8, 16, 8], 4, &shards).unwrap();
        });
        // Inspect for a different target rank count.
        run(Command::Resume {
            dir: dir.to_str().unwrap().into(),
            gpus: Some(4),
            step: None,
        })
        .unwrap();
        // Missing/empty store is a clear error.
        let e = run(Command::Resume {
            dir: "/nonexistent/ckpt".into(),
            gpus: None,
            step: None,
        })
        .unwrap_err();
        assert!(e.contains("no durable checkpoint"), "unexpected: {e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn indivisible_batch_is_rejected() {
        let e = run(Command::Simulate {
            machine: "frontier".into(),
            billions: 5,
            grid: Grid4d::new(1, 1, 1, 3),
            batch_tokens: 1 << 18,
        })
        .unwrap_err();
        assert!(e.contains("not divisible"));
    }
}
