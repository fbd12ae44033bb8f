//! Continuous batching: a request queue in front of a bounded set of
//! decode streams, re-formed every decode step.
//!
//! Unlike static batching (wait for B requests, run them lock-step to
//! completion), the engine admits and retires streams *per step*:
//!
//! * admission is strict FIFO under a per-step token budget — a prefill
//!   costs its prompt length, a decode costs one token per live stream —
//!   so short requests never starve behind long ones and a head-of-line
//!   prompt longer than the budget is still admitted once the engine
//!   drains (liveness over throughput);
//! * the streams a step picks decode in **one** batched forward
//!   (`lm::decode::decode_batch`: one GEMM per linear layer for the whole
//!   batch, against weights packed once at construction); attention and
//!   sampling stay per stream, so a stream's tokens are bit-for-bit those
//!   of decoding it alone, whoever shares its steps;
//! * an admitted stream gets a KV cache of exactly `prompt_len +
//!   max_new_tokens` positions (and an output buffer of exactly
//!   `max_new_tokens`) and drops the cache on completion or eviction,
//!   so cache memory follows the work in flight — a one-token request
//!   holds its cache only inside its own prefill — not `max_active` full
//!   model windows;
//! * requests carry an optional step deadline; expired streams are
//!   evicted (cache dropped, partial output returned) instead of
//!   dragging the batch;
//! * a full queue rejects new work with typed
//!   [`ServeError::Overloaded`] rather than growing without bound.

use crate::metrics::ServeMetrics;
use crate::sampler::{self, Sampling};
use axonn_lm::decode::{self, KvCache, PackedWeights};
use axonn_lm::Gpt;
use axonn_trace::LiveRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Admission-time rejection of a request. Everything here is the
/// *caller's* problem (malformed request or saturated server) — engine
/// bugs panic instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The prompt was empty.
    EmptyPrompt,
    /// `prompt_len + max_new_tokens` does not fit the model window.
    PromptTooLong {
        prompt_len: usize,
        max_new_tokens: usize,
        seq_len: usize,
    },
    /// The request queue is at capacity; retry later.
    Overloaded { queue_depth: usize },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyPrompt => write!(f, "empty prompt"),
            ServeError::PromptTooLong {
                prompt_len,
                max_new_tokens,
                seq_len,
            } => write!(
                f,
                "prompt ({prompt_len}) + max_new_tokens ({max_new_tokens}) exceeds the \
                 model window ({seq_len})"
            ),
            ServeError::Overloaded { queue_depth } => {
                write!(f, "server overloaded: queue at capacity ({queue_depth})")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Engine sizing and sampling policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Queue slots before [`ServeError::Overloaded`].
    pub max_queue: usize,
    /// Concurrent decode streams.
    pub max_active: usize,
    /// Per-step token budget shared by prefills (prompt length) and
    /// decodes (one per stream).
    pub max_batch_tokens: usize,
    pub sampling: Sampling,
    /// Base RNG seed; request `id` is folded in so streams differ.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_queue: 64,
            max_active: 8,
            max_batch_tokens: 64,
            sampling: Sampling::Greedy,
            seed: 0,
        }
    }
}

/// A request as submitted by a client.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub prompt: Vec<usize>,
    pub max_new_tokens: usize,
    /// Evict if not finished within this many engine steps of
    /// submission. `None` never expires.
    pub deadline_steps: Option<u64>,
}

/// Why a stream left the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishReason {
    /// Generated its full `max_new_tokens`.
    Completed,
    /// Deadline passed while queued or decoding; `tokens` holds whatever
    /// was produced.
    DeadlineExpired,
}

/// A finished (or evicted) request, with its latency accounting.
#[derive(Debug, Clone)]
pub struct Completion {
    pub id: u64,
    pub prompt_len: usize,
    pub tokens: Vec<usize>,
    pub reason: FinishReason,
    pub submitted_step: u64,
    /// Step the first token was produced on (`None` if evicted while
    /// still queued).
    pub first_token_step: Option<u64>,
    pub finished_step: u64,
    /// Wall-clock submit → first token.
    pub ttft_s: Option<f64>,
    /// Engine steps submit → first token.
    pub ttft_steps: Option<u64>,
    /// Wall-clock submit → finish.
    pub latency_s: f64,
}

struct Queued {
    id: u64,
    prompt: Vec<usize>,
    max_new_tokens: usize,
    deadline: Option<u64>,
    submitted_step: u64,
    submitted_at: Instant,
}

struct ActiveStream {
    id: u64,
    cache: KvCache,
    rng: StdRng,
    tokens: Vec<usize>,
    prompt_len: usize,
    max_new_tokens: usize,
    deadline: Option<u64>,
    submitted_step: u64,
    admitted_step: u64,
    first_token_at: Instant,
    submitted_at: Instant,
}

/// The continuous-batching engine. Single-threaded by design: callers
/// drive it with [`ServeEngine::step`], which makes scheduling decisions
/// deterministic and testable; wall-clock only enters through latency
/// *measurement*, never through scheduling.
pub struct ServeEngine {
    model: Arc<Gpt>,
    /// The model's linear weights, packed once; prefill and every decode
    /// step multiply against these.
    weights: PackedWeights,
    cfg: ServeConfig,
    queue: VecDeque<Queued>,
    active: Vec<ActiveStream>,
    completions: Vec<Completion>,
    metrics: ServeMetrics,
    step: u64,
    next_id: u64,
    rr_cursor: usize,
    total_generated: u64,
    started: Instant,
}

impl ServeEngine {
    /// Build an engine over a shared model, packing its linear weights
    /// and registering `serve.*` metrics in `registry`.
    pub fn new(model: Arc<Gpt>, cfg: ServeConfig, registry: &LiveRegistry) -> ServeEngine {
        assert!(cfg.max_active > 0, "need at least one active slot");
        assert!(cfg.max_queue > 0, "need at least one queue slot");
        assert!(cfg.max_batch_tokens > 0, "need a positive token budget");
        ServeEngine {
            metrics: ServeMetrics::new(registry),
            weights: PackedWeights::pack(&model),
            model,
            cfg,
            queue: VecDeque::new(),
            active: Vec::new(),
            completions: Vec::new(),
            step: 0,
            next_id: 0,
            rr_cursor: 0,
            total_generated: 0,
            started: Instant::now(),
        }
    }

    /// Enqueue a request. Returns its id, or a typed rejection.
    pub fn submit(&mut self, req: ServeRequest) -> Result<u64, ServeError> {
        self.metrics.submitted.inc();
        if req.prompt.is_empty() || req.max_new_tokens == 0 {
            self.metrics.rejected.inc();
            return Err(ServeError::EmptyPrompt);
        }
        if req.prompt.len() + req.max_new_tokens > self.model.cfg.seq_len {
            self.metrics.rejected.inc();
            return Err(ServeError::PromptTooLong {
                prompt_len: req.prompt.len(),
                max_new_tokens: req.max_new_tokens,
                seq_len: self.model.cfg.seq_len,
            });
        }
        if self.queue.len() >= self.cfg.max_queue {
            self.metrics.rejected.inc();
            return Err(ServeError::Overloaded {
                queue_depth: self.queue.len(),
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push_back(Queued {
            id,
            prompt: req.prompt,
            max_new_tokens: req.max_new_tokens,
            deadline: req.deadline_steps.map(|d| self.step + d),
            submitted_step: self.step,
            submitted_at: Instant::now(),
        });
        self.metrics.queue_depth.set(self.queue.len() as f64);
        Ok(id)
    }

    /// Run one decode step: evict expired streams, admit from the queue
    /// under the token budget, then decode one token for each live
    /// stream the remaining budget covers — all of them in one batched
    /// forward. Returns the number of tokens produced this step.
    pub fn step(&mut self) -> usize {
        let t0 = Instant::now();
        self.step += 1;
        let now = self.step;
        self.evict_expired(now);

        let mut budget = self.cfg.max_batch_tokens;
        let mut produced = 0usize;

        // --- Admission: strict FIFO, bounded by streams and budget. A
        // head-of-line prompt longer than the whole budget is admitted
        // anyway when the engine is otherwise empty, so it cannot starve.
        let mut admitted_any = false;
        while self.active.len() < self.cfg.max_active {
            let Some(front) = self.queue.front() else {
                break;
            };
            let cost = front.prompt.len();
            let engine_idle = self.active.is_empty() && !admitted_any;
            if cost > budget && !engine_idle {
                break;
            }
            budget = budget.saturating_sub(cost);
            admitted_any = true;
            let q = self.queue.pop_front().expect("front() just saw it");
            // Prefill fills `prompt_len` positions and each of the
            // `max_new_tokens - 1` decode steps one more: the cache never
            // reaches its window, so `WindowFull` cannot occur.
            let mc = &self.model.cfg;
            let mut cache = KvCache::with_heads(
                mc.n_layers,
                mc.n_heads,
                q.prompt.len() + q.max_new_tokens,
                mc.dim / mc.n_heads,
            );
            let logits =
                decode::prefill_last(&*self.model, Some(&self.weights), &q.prompt, &mut cache);
            let mut rng =
                StdRng::seed_from_u64(self.cfg.seed ^ q.id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let first = sampler::sample(&logits, self.cfg.sampling, &mut rng);
            produced += 1;
            self.total_generated += 1;
            let ttft = q.submitted_at.elapsed().as_secs_f64();
            self.metrics.admitted.inc();
            self.metrics.prefill_tokens.add(cost as u64);
            self.metrics.decoded_tokens.inc();
            self.metrics.ttft_seconds.observe(ttft);
            // Sized once, like the cache: the output never regrows, and
            // the completion hands the caller no slack.
            let mut tokens = Vec::with_capacity(q.max_new_tokens);
            tokens.push(first);
            let stream = ActiveStream {
                id: q.id,
                cache,
                rng,
                tokens,
                prompt_len: q.prompt.len(),
                max_new_tokens: q.max_new_tokens,
                deadline: q.deadline,
                submitted_step: q.submitted_step,
                admitted_step: now,
                first_token_at: Instant::now(),
                submitted_at: q.submitted_at,
            };
            if stream.tokens.len() >= stream.max_new_tokens {
                self.finish(stream, now, FinishReason::Completed);
            } else {
                self.active.push(stream);
            }
        }

        // --- Decode: one token per live stream, round-robin from the
        // cursor so a budget squeeze rotates rather than always skipping
        // the same tail. The streams the budget covers are picked first,
        // then decoded together.
        let n = self.active.len();
        let mut picked = vec![false; n];
        let mut squeezed = false;
        for i in 0..n {
            let idx = (self.rr_cursor + i) % n;
            if self.active[idx].admitted_step == now {
                continue; // prefill already produced this step's token
            }
            if budget == 0 {
                self.rr_cursor = idx;
                squeezed = true;
                break;
            }
            budget -= 1;
            picked[idx] = true;
        }
        let mut batch: Vec<(usize, &mut ActiveStream)> = self
            .active
            .iter_mut()
            .enumerate()
            .filter(|(idx, _)| picked[*idx])
            .collect();
        let fed: Vec<usize> = batch
            .iter()
            .map(|(_, s)| *s.tokens.last().expect("admission pushed a token"))
            .collect();
        let mut caches: Vec<&mut KvCache> = batch.iter_mut().map(|(_, s)| &mut s.cache).collect();
        let logits = decode::decode_batch(&*self.model, Some(&self.weights), &fed, &mut caches)
            .expect("submit() bounds every stream inside the model window");
        let mut finished_idx: Vec<usize> = Vec::new();
        for (row, (idx, s)) in batch.into_iter().enumerate() {
            let next = sampler::sample(logits.row(row), self.cfg.sampling, &mut s.rng);
            s.tokens.push(next);
            if s.tokens.len() >= s.max_new_tokens {
                finished_idx.push(idx);
            }
        }
        produced += fed.len();
        self.total_generated += fed.len() as u64;
        self.metrics.decoded_tokens.add(fed.len() as u64);
        if !squeezed && n > 0 {
            self.rr_cursor = (self.rr_cursor + 1) % n;
        }
        // Retire finished streams; the batch was built in ascending index
        // order, and descending keeps swap_remove sound.
        for idx in finished_idx.into_iter().rev() {
            let s = self.active.swap_remove(idx);
            self.finish(s, now, FinishReason::Completed);
        }
        if !self.active.is_empty() {
            self.rr_cursor %= self.active.len();
        } else {
            self.rr_cursor = 0;
        }

        self.metrics.queue_depth.set(self.queue.len() as f64);
        self.metrics.in_flight.set(self.active.len() as f64);
        let elapsed = self.started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            self.metrics
                .tokens_per_s
                .set(self.total_generated as f64 / elapsed);
        }
        self.metrics
            .step_seconds
            .observe(t0.elapsed().as_secs_f64());
        produced
    }

    /// Step until both the queue and the active set drain, up to
    /// `max_steps`. Returns the number of steps taken.
    pub fn run_until_idle(&mut self, max_steps: u64) -> u64 {
        let mut taken = 0;
        while taken < max_steps && !(self.queue.is_empty() && self.active.is_empty()) {
            self.step();
            taken += 1;
        }
        taken
    }

    /// Take all completions accumulated since the last drain.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    pub fn current_step(&self) -> u64 {
        self.step
    }

    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub fn model(&self) -> &Arc<Gpt> {
        &self.model
    }

    fn evict_expired(&mut self, now: u64) {
        // Queued requests whose deadline passed before admission.
        let mut expired: Vec<Queued> = Vec::new();
        self.queue.retain_mut(|q| {
            let dead = q.deadline.is_some_and(|d| now > d);
            if dead {
                expired.push(Queued {
                    id: q.id,
                    prompt: std::mem::take(&mut q.prompt),
                    max_new_tokens: q.max_new_tokens,
                    deadline: q.deadline,
                    submitted_step: q.submitted_step,
                    submitted_at: q.submitted_at,
                });
            }
            !dead
        });
        for q in expired {
            self.metrics.evicted.inc();
            self.completions.push(Completion {
                id: q.id,
                prompt_len: q.prompt.len(),
                tokens: Vec::new(),
                reason: FinishReason::DeadlineExpired,
                submitted_step: q.submitted_step,
                first_token_step: None,
                finished_step: now,
                ttft_s: None,
                ttft_steps: None,
                latency_s: q.submitted_at.elapsed().as_secs_f64(),
            });
        }
        // Active streams past their deadline: drop the cache, return the
        // partial output.
        let mut idx = 0;
        while idx < self.active.len() {
            if self.active[idx].deadline.is_some_and(|d| now > d) {
                let s = self.active.swap_remove(idx);
                self.metrics.evicted.inc();
                self.finish(s, now, FinishReason::DeadlineExpired);
            } else {
                idx += 1;
            }
        }
        if !self.active.is_empty() {
            self.rr_cursor %= self.active.len();
        } else {
            self.rr_cursor = 0;
        }
    }

    /// Retire a stream: drop its cache and record the completion.
    fn finish(&mut self, s: ActiveStream, now: u64, reason: FinishReason) {
        if reason == FinishReason::Completed {
            self.metrics.completed.inc();
        }
        let latency_s = s.submitted_at.elapsed().as_secs_f64();
        self.metrics.latency_seconds.observe(latency_s);
        self.completions.push(Completion {
            id: s.id,
            prompt_len: s.prompt_len,
            tokens: s.tokens,
            reason,
            submitted_step: s.submitted_step,
            first_token_step: Some(s.admitted_step),
            finished_step: now,
            ttft_s: Some((s.first_token_at - s.submitted_at).as_secs_f64()),
            ttft_steps: Some(s.admitted_step - s.submitted_step),
            latency_s,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_lm::GptModelConfig;

    fn toy_model() -> Arc<Gpt> {
        Arc::new(Gpt::new(GptModelConfig {
            vocab: 12,
            seq_len: 12,
            dim: 16,
            n_heads: 2,
            n_layers: 2,
            seed: 5,
        }))
    }

    fn engine(cfg: ServeConfig) -> ServeEngine {
        ServeEngine::new(toy_model(), cfg, &LiveRegistry::new())
    }

    fn req(prompt: &[usize], max_new: usize) -> ServeRequest {
        ServeRequest {
            prompt: prompt.to_vec(),
            max_new_tokens: max_new,
            deadline_steps: None,
        }
    }

    /// At most `max_active` streams, each holding a cache of exactly its
    /// own `prompt + max_new_tokens` positions. (That the window is never
    /// hit is the engine's own `expect` on `decode_batch`.)
    fn assert_streams_bounded_and_sized(e: &ServeEngine) {
        assert!(e.in_flight() <= e.config().max_active);
        for s in &e.active {
            let window = s.cache.len() + s.cache.remaining();
            assert_eq!(window, s.prompt_len + s.max_new_tokens, "stream {}", s.id);
            assert!(s.cache.remaining() > 0, "stream {} at its window", s.id);
        }
    }

    #[test]
    fn rejects_malformed_requests_with_typed_errors() {
        let mut e = engine(ServeConfig::default());
        assert_eq!(e.submit(req(&[], 3)), Err(ServeError::EmptyPrompt));
        assert_eq!(e.submit(req(&[1, 2], 0)), Err(ServeError::EmptyPrompt));
        assert_eq!(
            e.submit(req(&[0; 10], 5)),
            Err(ServeError::PromptTooLong {
                prompt_len: 10,
                max_new_tokens: 5,
                seq_len: 12
            })
        );
    }

    #[test]
    fn full_queue_returns_overloaded() {
        let mut e = engine(ServeConfig {
            max_queue: 2,
            ..ServeConfig::default()
        });
        e.submit(req(&[1], 2)).unwrap();
        e.submit(req(&[2], 2)).unwrap();
        assert_eq!(
            e.submit(req(&[3], 2)),
            Err(ServeError::Overloaded { queue_depth: 2 })
        );
        // Draining the queue reopens admission.
        e.run_until_idle(100);
        e.submit(req(&[3], 2)).unwrap();
    }

    #[test]
    fn serves_greedy_exactly_like_the_model_oracle() {
        let model = toy_model();
        let mut e = ServeEngine::new(model.clone(), ServeConfig::default(), &LiveRegistry::new());
        let prompt = [1usize, 4, 2];
        let id = e.submit(req(&prompt, 6)).unwrap();
        e.run_until_idle(100);
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].reason, FinishReason::Completed);
        let mut oracle = Gpt::new(model.cfg.clone());
        assert_eq!(done[0].tokens, oracle.greedy_continuation(&prompt, 6));
    }

    #[test]
    fn fifo_admission_means_no_starvation() {
        // More requests than slots, tight budget: every request still
        // completes and first tokens appear in submission order.
        let mut e = engine(ServeConfig {
            max_queue: 32,
            max_active: 2,
            max_batch_tokens: 4,
            ..ServeConfig::default()
        });
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(e.submit(req(&[i % 12, (i + 1) % 12], 4)).unwrap());
        }
        let steps = e.run_until_idle(10_000);
        assert!(steps < 10_000, "engine failed to drain");
        let mut done = e.drain_completions();
        assert_eq!(done.len(), 10);
        assert!(done.iter().all(|c| c.reason == FinishReason::Completed));
        assert!(done.iter().all(|c| c.tokens.len() == 4));
        done.sort_by_key(|c| c.id);
        for pair in done.windows(2) {
            assert!(
                pair[0].first_token_step <= pair[1].first_token_step,
                "later submission got its first token earlier: {:?} vs {:?}",
                pair[0].first_token_step,
                pair[1].first_token_step
            );
        }
    }

    #[test]
    fn oversized_prompt_is_admitted_when_engine_is_idle() {
        // Prompt longer than the whole per-step budget must not starve.
        let mut e = engine(ServeConfig {
            max_batch_tokens: 2,
            ..ServeConfig::default()
        });
        e.submit(req(&[0, 1, 2, 3, 4, 5], 3)).unwrap();
        e.run_until_idle(100);
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].reason, FinishReason::Completed);
    }

    #[test]
    fn deadline_eviction_drops_the_stream_and_returns_partials() {
        let mut e = engine(ServeConfig {
            max_active: 2,
            max_batch_tokens: 64,
            ..ServeConfig::default()
        });
        // A long stream with a 2-step deadline and a queued one behind it.
        e.submit(ServeRequest {
            prompt: vec![1, 2],
            max_new_tokens: 9,
            deadline_steps: Some(2),
        })
        .unwrap();
        e.step();
        assert_eq!(e.in_flight(), 1);
        assert_streams_bounded_and_sized(&e);
        e.step();
        e.step(); // step 3 > deadline (submitted at step 0 + 2)
        let done = e.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].reason, FinishReason::DeadlineExpired);
        assert!(!done[0].tokens.is_empty(), "partial output returned");
        assert!(done[0].tokens.len() < 9);
        assert_eq!(e.in_flight(), 0, "evicted stream left the engine");
    }

    #[test]
    fn queued_requests_can_expire_before_admission() {
        let mut e = engine(ServeConfig {
            max_active: 1,
            ..ServeConfig::default()
        });
        // Occupy the only stream slot with a long stream, then queue a
        // request that expires before the slot frees up.
        e.submit(req(&[1, 2], 9)).unwrap();
        e.step();
        e.submit(ServeRequest {
            prompt: vec![3],
            max_new_tokens: 2,
            deadline_steps: Some(1),
        })
        .unwrap();
        e.run_until_idle(100);
        let done = e.drain_completions();
        assert_eq!(done.len(), 2);
        let expired = done
            .iter()
            .find(|c| c.reason == FinishReason::DeadlineExpired)
            .expect("queued request expired");
        assert!(expired.tokens.is_empty());
        assert_eq!(expired.first_token_step, None);
    }

    #[test]
    fn streams_stay_within_max_active_with_caches_sized_per_request() {
        let mut e = engine(ServeConfig {
            max_queue: 64,
            max_active: 3,
            max_batch_tokens: 5,
            ..ServeConfig::default()
        });
        for i in 0..20 {
            e.submit(req(&[i % 12], 1 + (i % 5))).unwrap();
        }
        for _ in 0..200 {
            e.step();
            assert_streams_bounded_and_sized(&e);
            if e.queue_depth() == 0 && e.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(e.drain_completions().len(), 20);
    }

    #[test]
    fn batched_steps_emit_each_streams_own_session_tokens() {
        // Everything that re-forms the batch between steps — a budget
        // that covers fewer streams than are in flight (so the cursor
        // rotates), admission mid-run, a deadline eviction — while every
        // stream samples top-k from its own seeded RNG. Each request
        // must still read exactly as if it had been decoded alone.
        use crate::session::DecodeSession;
        let sampling = Sampling::TopK {
            k: 3,
            temperature: 0.8,
        };
        let cfg = ServeConfig {
            max_queue: 32,
            max_active: 4,
            max_batch_tokens: 3,
            sampling,
            seed: 42,
        };
        let model = toy_model();
        let mut e = ServeEngine::new(model.clone(), cfg.clone(), &LiveRegistry::new());
        let mut prompts: Vec<Vec<usize>> = Vec::new();
        let mut submit = |e: &mut ServeEngine, i: usize, deadline_steps: Option<u64>| {
            let prompt: Vec<usize> = (0..1 + i % 3).map(|j| (5 * i + j) % 12).collect();
            let id = e
                .submit(ServeRequest {
                    prompt: prompt.clone(),
                    max_new_tokens: 4 + i % 5,
                    deadline_steps,
                })
                .unwrap();
            assert_eq!(id as usize, prompts.len());
            prompts.push(prompt);
        };
        for i in 0..6 {
            submit(&mut e, i, None);
        }
        let mut squeezed_steps = 0;
        for step in 0..400 {
            if step == 3 {
                // Mid-run: one request that will be evicted part-way
                // through its decode, three that run to completion.
                submit(&mut e, 6, Some(10));
                for i in 7..10 {
                    submit(&mut e, i, None);
                }
            }
            let in_flight_before = e.in_flight();
            let produced = e.step();
            assert_streams_bounded_and_sized(&e);
            assert!(produced <= cfg.max_batch_tokens);
            squeezed_steps += usize::from(in_flight_before > cfg.max_batch_tokens);
            if step > 3 && e.queue_depth() == 0 && e.in_flight() == 0 {
                break;
            }
        }
        assert!(squeezed_steps > 0, "the budget never squeezed the batch");
        let done = e.drain_completions();
        assert_eq!(done.len(), 10);
        let mut evicted = 0;
        for c in &done {
            let seed = cfg.seed ^ c.id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut alone =
                DecodeSession::start(model.clone(), &prompts[c.id as usize], sampling, seed);
            while alone.generated().len() < c.tokens.len() {
                alone
                    .step()
                    .expect("submit() kept the request in the window");
            }
            assert_eq!(c.tokens, alone.generated(), "request {}", c.id);
            if c.reason == FinishReason::DeadlineExpired {
                evicted += 1;
                assert!(!c.tokens.is_empty() && c.tokens.len() < 4 + 6 % 5);
            } else {
                assert_eq!(c.tokens.len(), 4 + c.id as usize % 5);
            }
        }
        assert_eq!(
            evicted, 1,
            "the deadline request was meant to be evicted mid-decode"
        );
    }

    #[test]
    fn metrics_reflect_the_run() {
        let mut e = engine(ServeConfig::default());
        e.submit(req(&[1, 2], 3)).unwrap();
        e.submit(req(&[], 3)).ok();
        e.run_until_idle(100);
        let snap = e.metrics().registry().snapshot();
        assert_eq!(snap.counters["serve.requests.submitted"], 2);
        assert_eq!(snap.counters["serve.requests.rejected"], 1);
        assert_eq!(snap.counters["serve.requests.admitted"], 1);
        assert_eq!(snap.counters["serve.requests.completed"], 1);
        assert_eq!(snap.counters["serve.tokens.prefill"], 2);
        assert_eq!(snap.counters["serve.tokens.decoded"], 3);
        assert!(snap.histograms.contains_key("serve.ttft.seconds"));
    }
}
