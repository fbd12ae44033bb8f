//! The three serving workloads: one `serve::ServeEngine` over an
//! untrained `lm::Gpt`, driven by the benchmark's own generator.

use crate::load::{
    arrival_schedule, run_closed, run_open, Counters, Done, Engine, Record, Request, RequestStream,
    Rng, RunLog, WallClock,
};
use crate::report::{Check, Outcome};
use crate::spans::Spans;
use crate::spec::serve::*;
use crate::spec::{Kind, Sizing, Workload};
use crate::stats::{fnv1a64, iqr_over_median, mean, median, ms, percentile};
use crate::{heap, sys};
use axonn_lm::decode::{self, KvCache};
use axonn_lm::{Gpt, GptModelConfig};
use axonn_serve::{FinishReason, Sampling, ServeConfig, ServeEngine, ServeRequest};
use axonn_tensor::take_gemm_phase;
use axonn_trace::LiveRegistry;
use std::sync::Arc;
use std::time::Instant;

pub fn model() -> Arc<Gpt> {
    Arc::new(Gpt::new(GptModelConfig {
        vocab: VOCAB,
        seq_len: SEQ_LEN,
        dim: DIM,
        n_heads: HEADS,
        n_layers: LAYERS,
        seed: MODEL_SEED,
    }))
}

/// `ServeEngine` as the generator sees it, plus the GEMM time its steps
/// accumulate on this thread.
struct Served {
    engine: ServeEngine,
    gemm_calls: u64,
    gemm_packed_bytes: u64,
    gemm_seconds: f64,
}

impl Served {
    fn new(model: Arc<Gpt>) -> Served {
        let cfg = ServeConfig {
            max_queue: MAX_QUEUE,
            max_active: MAX_ACTIVE,
            max_batch_tokens: MAX_BATCH_TOKENS,
            sampling: Sampling::Greedy,
            seed: 0,
        };
        let _ = take_gemm_phase();
        Served {
            engine: ServeEngine::new(model, cfg, &LiveRegistry::new()),
            gemm_calls: 0,
            gemm_packed_bytes: 0,
            gemm_seconds: 0.0,
        }
    }
}

impl Engine for Served {
    fn submit(&mut self, req: &Request) -> Option<u64> {
        self.engine
            .submit(ServeRequest {
                prompt: req.prompt.clone(),
                max_new_tokens: req.max_new_tokens,
                deadline_steps: None,
            })
            .ok()
    }

    fn step(&mut self) -> usize {
        self.engine.step()
    }

    fn drain(&mut self) -> Vec<Done> {
        self.engine
            .drain_completions()
            .into_iter()
            .map(|c| Done {
                id: c.id,
                completed: c.reason == FinishReason::Completed,
                tokens: c.tokens,
                submitted_step: c.submitted_step,
                first_token_step: c.first_token_step,
                finished_step: c.finished_step,
            })
            .collect()
    }

    fn queue_depth(&self) -> usize {
        self.engine.queue_depth()
    }

    fn in_flight(&self) -> usize {
        self.engine.in_flight()
    }

    fn current_step(&self) -> u64 {
        self.engine.current_step()
    }

    fn counters(&mut self) -> Counters {
        let phase = take_gemm_phase();
        self.gemm_calls += phase.calls;
        self.gemm_packed_bytes += phase.packed_bytes;
        self.gemm_seconds += phase.total_seconds();
        let m = self.engine.metrics();
        Counters {
            steps: self.engine.current_step(),
            completed: m.completed.get(),
            rejected: m.rejected.get(),
            prefill_tokens: m.prefill_tokens.get(),
            decoded_tokens: m.decoded_tokens.get(),
            gemm_calls: self.gemm_calls,
            gemm_packed_bytes: self.gemm_packed_bytes,
            gemm_seconds: self.gemm_seconds,
        }
    }
}

fn shape(kind: Kind) -> ((usize, usize), (usize, usize)) {
    match kind {
        Kind::Closed { prompt, output, .. } | Kind::Open { prompt, output, .. } => (prompt, output),
        Kind::Train { .. } => unreachable!("not a serving workload"),
    }
}

/// One set-up: model, engine, and a warm-up lap of the workload's own
/// mix run to idle. Returns the warm engine and how long that took. The
/// lap's lengths are spread evenly over the workload's ranges, so every
/// seed warms up with the same amount of work and `setup_s` does not
/// depend on the draw.
fn setup(kind: Kind, seed: u64, warmup_requests: usize) -> (Served, f64) {
    let t0 = Instant::now();
    let mut served = Served::new(model());
    let (prompt, output) = shape(kind);
    let mut rng = Rng::new(seed ^ 0x3a93);
    let spread = |(lo, hi): (usize, usize), i: usize| lo + (hi - lo) * i / warmup_requests;
    for i in 0..warmup_requests {
        served.submit(&Request {
            prompt: (0..spread(prompt, i)).map(|_| rng.below(VOCAB)).collect(),
            max_new_tokens: spread(output, i),
        });
    }
    while served.queue_depth() + served.in_flight() > 0 {
        served.step();
    }
    served.drain();
    (served, t0.elapsed().as_secs_f64())
}

/// Greedy continuation of one stream on its own, through the same
/// `lm::decode` functions the engine calls. Batching must not change a
/// stream's tokens.
pub fn redecode(model: &Gpt, req: &Request) -> Vec<usize> {
    let mut cache = KvCache::for_model(&model.cfg);
    let logits = decode::prefill(model, &req.prompt, &mut cache);
    let mut tokens = vec![decode::argmax(logits.row(req.prompt.len() - 1))];
    while tokens.len() < req.max_new_tokens {
        let fed = *tokens.last().expect("starts non-empty");
        let row = decode::decode_step(model, fed, &mut cache);
        tokens.push(decode::argmax(&row));
    }
    tokens
}

/// Output checks, folded into the failure count: every request must have
/// completed at full length, and a seeded sample must re-decode equal.
fn check_outputs(model: &Gpt, log: &RunLog, seed: u64, samples: usize, outcome: &mut Outcome) {
    let incomplete = log.failed();
    outcome.attempted = log.records.len();
    outcome.check(Check {
        name: "all_completed_full_length",
        passed: incomplete == 0,
        detail: format!(
            "{incomplete} of {} rejected, evicted or short",
            log.records.len()
        ),
    });
    let done: Vec<&Record> = log.records.iter().filter(|r| r.ok).collect();
    let mut rng = Rng::new(seed ^ 0xc4ec);
    let mut wrong = 0;
    for _ in 0..samples.min(done.len()) {
        let r = done[rng.below(done.len())];
        wrong += usize::from(redecode(model, &r.request) != r.tokens);
    }
    outcome.failed = incomplete + wrong;
    outcome.check(Check {
        name: "redecode_matches_engine",
        passed: wrong == 0,
        detail: format!("{wrong} of {samples} sampled requests differ"),
    });
}

/// Generated tokens per second over the window in which requests were
/// being sent: the tokens of every engine step that ended inside it,
/// over the end of the last such step. The drain after the window is
/// left out, so a closed loop is measured at full concurrency only.
fn window_tokens_per_s(log: &RunLog, seconds: f64) -> f64 {
    let inside = log.steps.iter().take_while(|s| s.end_s <= seconds);
    let (tokens, end_s) = inside.fold((0usize, 0.0), |(t, _), s| (t + s.produced, s.end_s));
    if tokens == 0 {
        // Shorter than one engine step (smoke): count the whole run.
        let all: usize = log.steps.iter().map(|s| s.produced).sum();
        return all as f64 / log.steps.last().map_or(1.0, |s| s.end_s);
    }
    tokens as f64 / end_s
}

/// Tokens per busy second in each of `SLICES` equal stretches of the
/// window: the spread between them is `harness.lap_spread`. Busy time is
/// the engine steps' own, so the idle gaps of the open loop (which only
/// reflect when requests happened to arrive) do not count as spread.
fn slice_rates(log: &RunLog, seconds: f64) -> Vec<f64> {
    let width = seconds / SLICES as f64;
    let mut slices = [(0usize, 0.0f64); SLICES];
    for s in &log.steps {
        let i = (s.end_s / width) as usize;
        if i < SLICES {
            slices[i].0 += s.produced;
            slices[i].1 += s.end_s - s.start_s;
        }
    }
    slices
        .iter()
        .filter(|(tokens, _)| *tokens > 0)
        .map(|(tokens, busy)| *tokens as f64 / busy)
        .collect()
}

fn latencies(log: &RunLog) -> (Vec<f64>, Vec<f64>) {
    let ttft = log.records.iter().filter_map(Record::ttft_s).collect();
    let tpot = log.records.iter().filter_map(Record::tpot_s).collect();
    (ttft, tpot)
}

/// Due (open loop) or sent (closed loop) to last token, per request.
fn request_latencies(log: &RunLog) -> Vec<f64> {
    log.records
        .iter()
        .filter_map(|r| r.finish_s.map(|t| t - r.due_s))
        .collect()
}

/// Share of the requests *sent* that met both limits; a request that
/// failed has no latency and so misses.
fn goodput(log: &RunLog, limits_ms: (f64, f64)) -> f64 {
    let good = log
        .records
        .iter()
        .filter(|r| {
            r.ok && r.ttft_s().is_some_and(|t| ms(t) <= limits_ms.0)
                && r.tpot_s().is_none_or(|t| ms(t) <= limits_ms.1)
        })
        .count();
    good as f64 / log.records.len() as f64
}

fn drive(served: &mut Served, w: &Workload, seed: u64, seconds: f64, spans: &mut Spans) -> RunLog {
    let clock = WallClock::start();
    let span = spans.begin("timed", None);
    let log = match w.kind {
        Kind::Closed {
            clients,
            prompt,
            output,
            snapshot_after,
        } => {
            let mut stream = RequestStream::new(seed, VOCAB, prompt, output);
            run_closed(
                served,
                &clock,
                &mut stream,
                clients,
                seconds,
                snapshot_after,
                spans,
            )
        }
        Kind::Open {
            rate,
            prompt,
            output,
        } => {
            // A fixed trace (when each request is due and how long its
            // prompt and output are) replayed with the seed's prompt tokens.
            let n = (rate * seconds).round().max(1.0) as usize;
            let mut trace = RequestStream::new(ARRIVAL_SEED, VOCAB, prompt, output);
            let mut rng = Rng::new(seed);
            let arrivals = arrival_schedule(ARRIVAL_SEED, n, seconds)
                .into_iter()
                .map(|due| {
                    let mut request = trace.next_request();
                    request.prompt.fill_with(|| rng.below(VOCAB));
                    (due, request)
                })
                .collect();
            run_open(served, &clock, arrivals, spans)
        }
        Kind::Train { .. } => unreachable!("not a serving workload"),
    };
    spans.end(span);
    log
}

pub fn run_untraced(w: &Workload, seed: u64, seconds: f64, sizing: Sizing) -> Outcome {
    let mut outcome = Outcome::new(w.name);
    let mut setups = Vec::new();
    let mut served = loop {
        let (served, took) = setup(w.kind, seed, sizing.serve_warmup_requests);
        setups.push(took);
        if !sizing.wants_setup(setups.len(), setups.iter().sum()) {
            break served;
        }
    };
    let log = drive(&mut served, w, seed, seconds, &mut Spans::disabled());
    // Before the checks, which allocate their own caches.
    let peak_heap_mb = heap::peak_mb();
    let rates = slice_rates(&log, seconds);

    let m = &mut outcome.metrics;
    m.set("tokens_per_s", window_tokens_per_s(&log, seconds));
    m.set(
        "latency_ms_p50",
        ms(percentile(&request_latencies(&log), 0.5)),
    );
    m.set("slo_goodput", goodput(&log, w.limits_ms));
    m.set("peak_heap_mb", peak_heap_mb);
    m.set("setup_s", median(&setups));
    outcome.note("requests", log.records.len().to_string());
    outcome.note("engine_steps", log.steps.len().to_string());
    outcome.note("lap_spread", format!("{:.4}", iqr_over_median(&rates)));
    notes_and_checks(&served, &log, seed, sizing, &mut outcome);
    outcome
}

fn notes_and_checks(served: &Served, log: &RunLog, seed: u64, sizing: Sizing, o: &mut Outcome) {
    // The first requests in sending order: the same ones however long
    // the run lasted, so two commits' hashes can be compared.
    let prefix = log.records.iter().take(64).filter(|r| r.ok);
    let hash = fnv1a64(prefix.flat_map(|r| r.tokens.iter().map(|t| *t as u64)));
    o.note("check.tokens_fnv", format!("{hash:016x}"));
    check_outputs(served.engine.model(), log, seed, sizing.redecode_samples, o);
}

pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    sizing: Sizing,
    spans: &mut Spans,
) -> Outcome {
    let mut outcome = Outcome::new(w.name);
    let span = spans.begin("setup", None);
    let (mut served, _) = setup(w.kind, seed, sizing.serve_warmup_requests);
    spans.end(span);
    let log = drive(&mut served, w, seed, seconds, spans);
    let peak_rss_mb = sys::peak_rss_mb();
    let (ttft, tpot) = latencies(&log);
    let rates = slice_rates(&log, seconds);
    let step_s: Vec<f64> = log.steps.iter().map(|s| s.end_s - s.start_s).collect();
    let in_flight: Vec<f64> = log.steps.iter().map(|s| s.in_flight as f64).collect();
    let waits: Vec<f64> = log
        .records
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.queue_wait_steps as f64)
        .collect();
    // Exact in the closed loops (read at a fixed request count); whole-run
    // totals in the open loop, whose step sequence depends on timing.
    let exact = log.snapshot.unwrap_or(log.totals);
    let tokens = exact.decoded_tokens.max(1) as f64;
    let wall: f64 = step_s.iter().sum();
    let window = log.steps.last().map_or(1.0, |s| s.end_s);

    let m = &mut outcome.metrics;
    m.set("tensor.gemm_share", log.totals.gemm_seconds / wall);
    m.set(
        "tensor.gemm_calls_per_token",
        exact.gemm_calls as f64 / tokens,
    );
    m.set(
        "tensor.packed_kb_per_token",
        exact.gemm_packed_bytes as f64 / 1e3 / tokens,
    );
    m.set("serve.step_ms_p50", ms(percentile(&step_s, 0.5)));
    m.set("serve.step_ms_p95", ms(percentile(&step_s, 0.95)));
    m.set("serve.tokens_per_step", tokens / exact.steps.max(1) as f64);
    m.set("serve.in_flight_mean", mean(&in_flight));
    m.set("serve.queue_wait_steps_p50", percentile(&waits, 0.5));
    m.set("serve.queue_depth_max", log.queue_depth_max as f64);
    m.set("serve.prefill_tokens", exact.prefill_tokens as f64);
    m.set("serve.decoded_tokens", exact.decoded_tokens as f64);
    m.set("serve.completed", exact.completed as f64);
    m.set("serve.rejected", exact.rejected as f64);
    m.set("serve.requests_per_s", log.totals.completed as f64 / window);
    m.set("serve.ttft_ms_p50", ms(percentile(&ttft, 0.5)));
    m.set("serve.ttft_ms_p95", ms(percentile(&ttft, 0.95)));
    m.set("serve.tpot_ms_p50", ms(percentile(&tpot, 0.5)));
    m.set("serve.tpot_ms_p95", ms(percentile(&tpot, 0.95)));
    m.set(
        "serve.generator_late_ms_p95",
        ms(percentile(&log.late_s, 0.95)),
    );
    m.set("harness.step_ms_p95", ms(percentile(&step_s, 0.95)));
    m.set("harness.lap_spread", iqr_over_median(&rates));
    m.set("harness.peak_rss_mb", peak_rss_mb);
    outcome.note("requests", log.records.len().to_string());
    outcome.note("engine_steps", log.steps.len().to_string());
    outcome.note(
        "exact_counts_from",
        if log.snapshot.is_some() {
            "snapshot".into()
        } else {
            "whole run".into()
        },
    );
    notes_and_checks(&served, &log, seed, sizing, &mut outcome);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_token_fails_the_output_check() {
        let model = Gpt::new(GptModelConfig {
            vocab: 32,
            seq_len: 16,
            dim: 16,
            n_heads: 2,
            n_layers: 1,
            seed: 1,
        });
        let req = Request {
            prompt: vec![3, 1, 4],
            max_new_tokens: 5,
        };
        let record = |tokens: Vec<usize>| Record {
            request: req.clone(),
            due_s: 0.0,
            first_token_s: Some(0.1),
            finish_s: Some(0.2),
            tokens,
            queue_wait_steps: 0,
            ok: true,
        };
        let mut log = RunLog::default();
        log.records.push(record(redecode(&model, &req)));
        let mut right = Outcome::new("serve_decode");
        check_outputs(&model, &log, 1, 4, &mut right);
        assert!(right.correct());
        assert_eq!((right.attempted, right.failed), (1, 0));

        // The engine "returns" a deliberately wrong third token: the run
        // must count a failed operation and stop being correct, which is
        // what turns into exit code 1.
        log.records[0].tokens[2] = (log.records[0].tokens[2] + 1) % 32;
        let mut wrong = Outcome::new("serve_decode");
        check_outputs(&model, &log, 1, 4, &mut wrong);
        assert!(!wrong.correct());
        assert_eq!((wrong.attempted, wrong.failed), (1, 1));
    }

    #[test]
    fn throughput_covers_the_window_and_slices_count_busy_time() {
        use crate::load::StepSample;
        let mut log = RunLog::default();
        // 4 tokens per 0.1 s step, a step starting every 0.25 s, for 3 s.
        for i in 0..12 {
            let start_s = 0.25 * i as f64;
            log.steps.push(StepSample {
                start_s,
                end_s: start_s + 0.1,
                produced: 4,
                in_flight: 1,
            });
        }
        // Ten steps end inside a 2.5 s window, the last at 2.35 s.
        let tps = window_tokens_per_s(&log, 2.5);
        assert!((tps - 40.0 / 2.35).abs() < 1e-9);
        // While busy the engine makes 40 tokens/s in every slice.
        let rates = slice_rates(&log, 2.5);
        assert_eq!(rates.len(), SLICES);
        assert!(rates.iter().all(|r| (r - 40.0).abs() < 1e-6));
    }

    #[test]
    fn a_failed_request_misses_the_goodput_limits() {
        let req = Request {
            prompt: vec![1],
            max_new_tokens: 2,
        };
        let rec = |ok: bool, first: f64, finish: f64| Record {
            request: req.clone(),
            due_s: 0.0,
            first_token_s: Some(first),
            finish_s: Some(finish),
            tokens: vec![0, 0],
            queue_wait_steps: 0,
            ok,
        };
        let mut log = RunLog::default();
        log.records.push(rec(true, 0.010, 0.012)); // good
        log.records.push(rec(true, 0.080, 0.082)); // slow first token
        log.records.push(rec(true, 0.010, 0.050)); // slow per token
        log.records.push(rec(false, 0.010, 0.012)); // evicted
        assert_eq!(goodput(&log, (50.0, 15.0)), 0.25);
    }
}
