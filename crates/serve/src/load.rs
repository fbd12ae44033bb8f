//! Closed-loop load generation: N simulated clients issue requests with
//! exponential (Poisson-process) think times, each waiting for its
//! previous request to finish before submitting the next. The generator
//! drives the engine step-by-step, so the *schedule* is deterministic
//! for a given seed; only the latency measurements come from the clock.

use crate::scheduler::{FinishReason, ServeEngine, ServeError, ServeRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Shape of the offered load.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests to push through the engine in total (rejections are
    /// retried and do not count).
    pub total_requests: usize,
    /// Mean of the exponential think time between a client's completion
    /// and its next submission, in engine steps.
    pub mean_think_steps: f64,
    /// Inclusive prompt-length range.
    pub prompt_len: (usize, usize),
    /// Inclusive generation-length range.
    pub max_new_tokens: (usize, usize),
    /// Per-request step deadline (None: never evict).
    pub deadline_steps: Option<u64>,
    pub seed: u64,
    /// Safety valve: abort the run after this many engine steps.
    pub max_steps: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 8,
            total_requests: 200,
            mean_think_steps: 2.0,
            prompt_len: (2, 6),
            max_new_tokens: (2, 6),
            deadline_steps: None,
            seed: 7,
            max_steps: 1_000_000,
        }
    }
}

/// What the run measured.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    pub submitted: usize,
    pub completed: usize,
    pub evicted: usize,
    /// Overload rejections (each was retried after a think delay).
    pub rejected: usize,
    pub steps: u64,
    pub wall_s: f64,
    /// Tokens generated by completed requests.
    pub total_tokens: u64,
    pub ttft_p50_s: f64,
    pub ttft_p99_s: f64,
    /// Per-request decode throughput percentiles (tokens / request
    /// latency).
    pub tokens_per_s_p50: f64,
    pub tokens_per_s_p99: f64,
    /// Completed-request tokens over the whole wall-clock run.
    pub aggregate_tokens_per_s: f64,
}

/// Exact nearest-rank percentile (`q` in `[0, 1]`) of `samples`.
///
/// # Panics
/// If `samples` is empty or `q` is outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

enum ClientState {
    /// Will submit once the engine reaches this step.
    Thinking { next_at: f64 },
    /// Waiting on a request in flight.
    Waiting { id: u64 },
    /// Out of quota.
    Done,
}

/// Drive `engine` with `cfg.clients` closed-loop clients until
/// `cfg.total_requests` requests resolve (complete or get evicted), then
/// report latency percentiles.
pub fn run_load(engine: &mut ServeEngine, cfg: &LoadConfig) -> LoadOutcome {
    assert!(cfg.clients > 0, "need at least one client");
    assert!(cfg.prompt_len.0 >= 1, "prompts must be non-empty");
    let vocab = engine.model().cfg.vocab;
    let seq_len = engine.model().cfg.seq_len;
    assert!(
        cfg.prompt_len.1 + cfg.max_new_tokens.1 <= seq_len,
        "load shape exceeds the model window ({seq_len})"
    );
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let exp = |rng: &mut StdRng, mean: f64| -> f64 { -(1.0 - rng.next_unit()).ln() * mean };

    let mut clients: Vec<ClientState> = (0..cfg.clients)
        // Stagger the initial arrivals like a Poisson front.
        .map(|_| ClientState::Thinking {
            next_at: exp(&mut rng, cfg.mean_think_steps),
        })
        .collect();
    let mut remaining = cfg.total_requests;
    let mut submitted = 0usize;
    let mut rejected = 0usize;
    let mut completed = 0usize;
    let mut evicted = 0usize;
    let mut total_tokens = 0u64;
    let mut ttfts: Vec<f64> = Vec::with_capacity(cfg.total_requests);
    let mut rates: Vec<f64> = Vec::with_capacity(cfg.total_requests);
    let mut steps = 0u64;

    while steps < cfg.max_steps {
        let now = engine.current_step() as f64;
        // Submission phase: every thinking client whose time has come.
        for state in clients.iter_mut() {
            let ClientState::Thinking { next_at } = *state else {
                continue;
            };
            if next_at > now {
                continue;
            }
            if remaining == 0 {
                *state = ClientState::Done;
                continue;
            }
            let p_len = rng.gen_range(cfg.prompt_len.0..=cfg.prompt_len.1);
            let n_new = rng.gen_range(cfg.max_new_tokens.0..=cfg.max_new_tokens.1);
            let prompt: Vec<usize> = (0..p_len).map(|_| rng.gen_range(0..vocab)).collect();
            match engine.submit(ServeRequest {
                prompt,
                max_new_tokens: n_new,
                deadline_steps: cfg.deadline_steps,
            }) {
                Ok(id) => {
                    remaining -= 1;
                    submitted += 1;
                    *state = ClientState::Waiting { id };
                }
                Err(ServeError::Overloaded { .. }) => {
                    // Back off and retry — overload is expected traffic.
                    rejected += 1;
                    *state = ClientState::Thinking {
                        next_at: now + 1.0 + exp(&mut rng, cfg.mean_think_steps),
                    };
                }
                Err(e) => panic!("load generator built an invalid request: {e}"),
            }
        }
        let all_done = clients.iter().all(|c| matches!(c, ClientState::Done));
        if all_done && engine.in_flight() == 0 && engine.queue_depth() == 0 {
            break;
        }
        engine.step();
        steps += 1;
        for c in engine.drain_completions() {
            match c.reason {
                FinishReason::Completed => {
                    completed += 1;
                    total_tokens += c.tokens.len() as u64;
                    if let Some(t) = c.ttft_s {
                        ttfts.push(t);
                    }
                    if c.latency_s > 0.0 {
                        rates.push(c.tokens.len() as f64 / c.latency_s);
                    }
                }
                FinishReason::DeadlineExpired => evicted += 1,
            }
            let next_at = engine.current_step() as f64 + exp(&mut rng, cfg.mean_think_steps);
            for state in clients.iter_mut() {
                if matches!(state, ClientState::Waiting { id } if *id == c.id) {
                    *state = ClientState::Thinking { next_at };
                    break;
                }
            }
        }
    }

    let wall_s = started.elapsed().as_secs_f64();
    LoadOutcome {
        submitted,
        completed,
        evicted,
        rejected,
        steps,
        wall_s,
        total_tokens,
        ttft_p50_s: if ttfts.is_empty() {
            0.0
        } else {
            percentile(&ttfts, 0.50)
        },
        ttft_p99_s: if ttfts.is_empty() {
            0.0
        } else {
            percentile(&ttfts, 0.99)
        },
        tokens_per_s_p50: if rates.is_empty() {
            0.0
        } else {
            percentile(&rates, 0.50)
        },
        tokens_per_s_p99: if rates.is_empty() {
            0.0
        } else {
            percentile(&rates, 0.99)
        },
        aggregate_tokens_per_s: if wall_s > 0.0 {
            total_tokens as f64 / wall_s
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::ServeConfig;
    use axonn_lm::{Gpt, GptModelConfig};
    use axonn_trace::LiveRegistry;
    use std::sync::Arc;

    fn engine() -> ServeEngine {
        let model = Arc::new(Gpt::new(GptModelConfig {
            vocab: 12,
            seq_len: 12,
            dim: 16,
            n_heads: 2,
            n_layers: 1,
            seed: 5,
        }));
        ServeEngine::new(
            model,
            ServeConfig {
                max_queue: 8,
                max_active: 4,
                max_batch_tokens: 16,
                ..ServeConfig::default()
            },
            &LiveRegistry::new(),
        )
    }

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.99), 5.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn closed_loop_run_resolves_every_request() {
        let mut e = engine();
        let cfg = LoadConfig {
            clients: 6,
            total_requests: 60,
            prompt_len: (2, 5),
            max_new_tokens: (1, 6),
            ..LoadConfig::default()
        };
        let out = run_load(&mut e, &cfg);
        assert_eq!(out.submitted, 60);
        assert_eq!(out.completed + out.evicted, 60);
        assert_eq!(out.evicted, 0, "no deadlines configured");
        assert!(out.total_tokens >= 60, "every request produced tokens");
        assert!(out.ttft_p50_s > 0.0 && out.ttft_p99_s >= out.ttft_p50_s);
        assert!(out.tokens_per_s_p50 > 0.0);
        assert!(out.steps > 0 && out.wall_s > 0.0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let mut e = engine();
            let out = run_load(
                &mut e,
                &LoadConfig {
                    clients: 4,
                    total_requests: 30,
                    seed,
                    ..LoadConfig::default()
                },
            );
            (out.submitted, out.completed, out.steps, out.total_tokens)
        };
        assert_eq!(run(3), run(3));
        // Different seeds shape the traffic differently (total work may
        // coincide, but the step count rarely does).
        let a = run(3);
        let b = run(4);
        assert_eq!(a.1, b.1, "both complete everything");
    }

    #[test]
    fn overload_is_absorbed_by_retry() {
        // One queue slot, one stream: heavy contention, everything retries
        // through and completes.
        let model = Arc::new(Gpt::new(GptModelConfig {
            vocab: 12,
            seq_len: 12,
            dim: 16,
            n_heads: 2,
            n_layers: 1,
            seed: 5,
        }));
        let mut e = ServeEngine::new(
            model,
            ServeConfig {
                max_queue: 1,
                max_active: 1,
                max_batch_tokens: 8,
                ..ServeConfig::default()
            },
            &LiveRegistry::new(),
        );
        let out = run_load(
            &mut e,
            &LoadConfig {
                clients: 6,
                total_requests: 24,
                mean_think_steps: 0.5,
                prompt_len: (2, 4),
                max_new_tokens: (2, 6),
                ..LoadConfig::default()
            },
        );
        assert_eq!(out.completed, 24);
        assert!(out.rejected > 0, "contention should trip the queue bound");
    }
}
