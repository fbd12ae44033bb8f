//! The benchmark's own seeded load generator and request timers.
//!
//! Deliberately independent of `serve::load` and `bench::*`: those are
//! program code a later PR may change, and a benchmark that changes with
//! the program cannot compare two commits. Only the `Engine` trait below
//! touches the program, through `ServeEngine`'s public methods.
//!
//! The generator is the single thread that also steps the engine (the
//! reference box has two cores), so every timestamp comes from one
//! clock and the engine's step counter orders all events.

use crate::spans::Spans;
use std::collections::HashMap;

/// splitmix64: the benchmark's own stream, so an edit to `vendor/rand`
/// cannot change the inputs a seed produces.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is < 2⁻⁵⁰ for the sizes used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Lengths drawn without replacement from `lo..=hi`, reshuffled when the
/// block is used up: every `hi - lo + 1` consecutive draws hold each
/// length once. The mix of lengths is then the same for every seed and
/// only their order and the prompts differ, which keeps seed-to-seed
/// spread out of the throughput metrics.
#[derive(Debug, Clone)]
struct Stratified {
    block: Vec<usize>,
    pos: usize,
}

impl Stratified {
    fn new(lo: usize, hi: usize) -> Stratified {
        assert!(lo <= hi);
        let block: Vec<usize> = (lo..=hi).collect();
        let pos = block.len();
        Stratified { block, pos }
    }

    fn next(&mut self, rng: &mut Rng) -> usize {
        if self.pos == self.block.len() {
            rng.shuffle(&mut self.block);
            self.pos = 0;
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub prompt: Vec<usize>,
    pub max_new_tokens: usize,
}

/// The seeded request sequence of one workload.
#[derive(Debug, Clone)]
pub struct RequestStream {
    rng: Rng,
    vocab: usize,
    prompt_len: Stratified,
    out_len: Stratified,
}

impl RequestStream {
    pub fn new(seed: u64, vocab: usize, prompt: (usize, usize), output: (usize, usize)) -> Self {
        RequestStream {
            rng: Rng::new(seed),
            vocab,
            prompt_len: Stratified::new(prompt.0, prompt.1),
            out_len: Stratified::new(output.0, output.1),
        }
    }

    pub fn next_request(&mut self) -> Request {
        let n = self.prompt_len.next(&mut self.rng);
        let max_new_tokens = self.out_len.next(&mut self.rng);
        let prompt = (0..n).map(|_| self.rng.below(self.vocab)).collect();
        Request {
            prompt,
            max_new_tokens,
        }
    }
}

/// Due times of an open-loop run: `n` arrivals of a Poisson process on
/// `[0, seconds)`, conditioned on their count (= sorted uniforms), so
/// every seed offers the same rate `n / seconds`.
pub fn arrival_schedule(seed: u64, n: usize, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0xa11c_e5ed);
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(|a, b| a.total_cmp(b));
    due
}

/// What the generator needs to know about a finished request.
#[derive(Debug, Clone)]
pub struct Done {
    pub id: u64,
    pub tokens: Vec<usize>,
    /// False when the engine evicted it.
    pub completed: bool,
    pub submitted_step: u64,
    pub first_token_step: Option<u64>,
    pub finished_step: u64,
}

/// Cumulative engine-side counts since the engine was built.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub steps: u64,
    pub completed: u64,
    pub rejected: u64,
    pub prefill_tokens: u64,
    pub decoded_tokens: u64,
    pub gemm_calls: u64,
    pub gemm_packed_bytes: u64,
    pub gemm_seconds: f64,
}

impl Counters {
    pub fn since(&self, base: &Counters) -> Counters {
        Counters {
            steps: self.steps - base.steps,
            completed: self.completed - base.completed,
            rejected: self.rejected - base.rejected,
            prefill_tokens: self.prefill_tokens - base.prefill_tokens,
            decoded_tokens: self.decoded_tokens - base.decoded_tokens,
            gemm_calls: self.gemm_calls - base.gemm_calls,
            gemm_packed_bytes: self.gemm_packed_bytes - base.gemm_packed_bytes,
            gemm_seconds: self.gemm_seconds - base.gemm_seconds,
        }
    }
}

/// The engine as the generator drives it. `ServeEngine` is the one real
/// implementation; the unit tests substitute a scripted engine on a fake
/// clock to check the due-time accounting without sleeping.
pub trait Engine {
    /// `None` when the engine refused the request.
    fn submit(&mut self, req: &Request) -> Option<u64>;
    /// One engine step; returns the tokens it produced.
    fn step(&mut self) -> usize;
    fn drain(&mut self) -> Vec<Done>;
    fn queue_depth(&self) -> usize;
    fn in_flight(&self) -> usize;
    /// Index of the last step taken.
    fn current_step(&self) -> u64;
    fn counters(&mut self) -> Counters;
}

pub trait Clock {
    /// Seconds since an arbitrary origin.
    fn now(&self) -> f64;
    fn sleep_until(&self, t: f64);
}

pub struct WallClock(std::time::Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(std::time::Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let dt = t - self.now();
        if dt > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(dt));
        }
    }
}

/// One request as the generator saw it. Times are seconds on the
/// generator's clock, relative to the start of the timed region.
#[derive(Debug, Clone)]
pub struct Record {
    pub request: Request,
    /// When the request was due. In a closed loop that is the moment the
    /// client sent it; in an open loop it is the scheduled arrival, which
    /// can precede the submission when a long engine step held the
    /// generator.
    pub due_s: f64,
    /// End of the engine step that produced the first / last token.
    pub first_token_s: Option<f64>,
    pub finish_s: Option<f64>,
    pub tokens: Vec<usize>,
    pub queue_wait_steps: u64,
    /// Accepted, not evicted, and `max_new_tokens` long.
    pub ok: bool,
}

impl Record {
    pub fn ttft_s(&self) -> Option<f64> {
        self.first_token_s.map(|t| t - self.due_s)
    }

    /// Mean gap between output tokens; undefined for one-token outputs.
    pub fn tpot_s(&self) -> Option<f64> {
        match (self.first_token_s, self.finish_s) {
            (Some(a), Some(b)) if self.tokens.len() > 1 => {
                Some((b - a) / (self.tokens.len() - 1) as f64)
            }
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct StepSample {
    pub start_s: f64,
    pub end_s: f64,
    pub produced: usize,
    pub in_flight: usize,
}

#[derive(Debug, Default)]
pub struct RunLog {
    /// In submission order.
    pub records: Vec<Record>,
    pub steps: Vec<StepSample>,
    pub queue_depth_max: usize,
    /// Open loop: how far behind its schedule the generator submitted.
    pub late_s: Vec<f64>,
    /// Engine counts over the timed region, and at the step on which the
    /// `snapshot_after`-th request finished. A closed loop with no think
    /// time is deterministic in step space, so the snapshot repeats
    /// exactly for a seed however long the run lasts.
    pub totals: Counters,
    pub snapshot: Option<Counters>,
}

impl RunLog {
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| !r.ok).count()
    }
}

/// Book-keeping shared by the closed and the open loop.
struct Driver<'a, E: Engine, C: Clock> {
    engine: &'a mut E,
    clock: &'a C,
    spans: &'a mut Spans,
    t0: f64,
    first_step: u64,
    base: Counters,
    by_id: HashMap<u64, usize>,
    finished: usize,
    snapshot_after: usize,
    log: RunLog,
}

impl<'a, E: Engine, C: Clock> Driver<'a, E, C> {
    fn new(engine: &'a mut E, clock: &'a C, spans: &'a mut Spans, snapshot_after: usize) -> Self {
        let base = engine.counters();
        let first_step = engine.current_step() + 1;
        let t0 = clock.now();
        Driver {
            engine,
            clock,
            spans,
            t0,
            first_step,
            base,
            by_id: HashMap::new(),
            finished: 0,
            snapshot_after,
            log: RunLog::default(),
        }
    }

    fn now(&self) -> f64 {
        self.clock.now() - self.t0
    }

    fn submit(&mut self, request: Request, due_s: f64) {
        let index = self.log.records.len();
        let span = self.spans.begin("submit", Some(index as u64));
        let id = self.engine.submit(&request);
        self.spans.end(span);
        if let Some(id) = id {
            self.by_id.insert(id, index);
        }
        self.log.queue_depth_max = self.log.queue_depth_max.max(self.engine.queue_depth());
        self.log.records.push(Record {
            request,
            due_s,
            first_token_s: None,
            finish_s: None,
            tokens: Vec::new(),
            queue_wait_steps: 0,
            ok: false,
        });
    }

    /// One engine step and its completions; returns the finished
    /// requests' record indices.
    fn step(&mut self) -> Vec<usize> {
        let span = self.spans.begin("step", None);
        let start_s = self.now();
        let produced = self.engine.step();
        let end_s = self.now();
        self.spans.end(span);
        self.log.steps.push(StepSample {
            start_s,
            end_s,
            produced,
            in_flight: self.engine.in_flight(),
        });
        let span = self.spans.begin("drain_completions", None);
        let done = self.engine.drain();
        self.spans.end(span);
        let mut finished = Vec::with_capacity(done.len());
        let first_step = self.first_step;
        let RunLog { steps, records, .. } = &mut self.log;
        let step_end = |step: u64| steps[(step - first_step) as usize].end_s;
        for d in done {
            let Some(index) = self.by_id.remove(&d.id) else {
                continue; // a warm-up request; not ours
            };
            let r = &mut records[index];
            r.first_token_s = d.first_token_step.map(step_end);
            r.finish_s = Some(step_end(d.finished_step));
            r.queue_wait_steps = d
                .first_token_step
                .map_or(0, |f| f.saturating_sub(d.submitted_step + 1));
            r.ok = d.completed && d.tokens.len() == r.request.max_new_tokens;
            r.tokens = d.tokens;
            finished.push(index);
        }
        self.finished += finished.len();
        if self.log.snapshot.is_none() && self.finished >= self.snapshot_after {
            self.log.snapshot = Some(self.engine.counters().since(&self.base));
        }
        finished
    }

    fn busy(&self) -> bool {
        self.engine.queue_depth() + self.engine.in_flight() > 0
    }

    fn finish(mut self) -> RunLog {
        self.log.totals = self.engine.counters().since(&self.base);
        self.log
    }
}

/// Closed loop: `clients` callers, each sending its next request the
/// moment the previous one completes (no think time). New requests stop
/// after `seconds`; the ones in flight are run to completion.
pub fn run_closed<E: Engine, C: Clock>(
    engine: &mut E,
    clock: &C,
    stream: &mut RequestStream,
    clients: usize,
    seconds: f64,
    snapshot_after: usize,
    spans: &mut Spans,
) -> RunLog {
    let mut d = Driver::new(engine, clock, spans, snapshot_after);
    for _ in 0..clients {
        let now = d.now();
        d.submit(stream.next_request(), now);
    }
    while d.busy() {
        let finished = d.step();
        let now = d.now();
        if now < seconds {
            for _ in finished {
                d.submit(stream.next_request(), now);
            }
        }
    }
    d.finish()
}

/// Open loop: requests are sent at their due times whatever the engine
/// is doing. The generator shares its thread with the engine, so a long
/// step delays submission; each request is therefore timed from when it
/// was *due*, and the delay is reported as generator lateness.
pub fn run_open<E: Engine, C: Clock>(
    engine: &mut E,
    clock: &C,
    arrivals: Vec<(f64, Request)>,
    spans: &mut Spans,
) -> RunLog {
    let mut d = Driver::new(engine, clock, spans, usize::MAX);
    let mut arrivals = arrivals.into_iter().peekable();
    loop {
        let now = d.now();
        while let Some((due, _)) = arrivals.peek() {
            if *due > now {
                break;
            }
            let (due, request) = arrivals.next().expect("peeked");
            d.log.late_s.push(now - due);
            d.submit(request, due);
        }
        if d.busy() {
            d.step();
        } else if let Some((due, _)) = arrivals.peek() {
            d.clock.sleep_until(d.t0 + due);
        } else {
            break;
        }
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    struct FakeClock(Rc<Cell<f64>>);

    impl Clock for FakeClock {
        fn now(&self) -> f64 {
            self.0.get()
        }
        fn sleep_until(&self, t: f64) {
            self.0.set(self.0.get().max(t));
        }
    }

    /// Serves every queued request in the step after it was submitted,
    /// one token each; step `k` takes `step_cost[k]` fake seconds.
    struct ScriptedEngine {
        time: Rc<Cell<f64>>,
        step_cost: VecDeque<f64>,
        queue: Vec<(u64, u64)>,
        done: Vec<Done>,
        step: u64,
        next_id: u64,
    }

    impl Engine for ScriptedEngine {
        fn submit(&mut self, _req: &Request) -> Option<u64> {
            self.next_id += 1;
            self.queue.push((self.next_id, self.step));
            Some(self.next_id)
        }
        fn step(&mut self) -> usize {
            self.step += 1;
            let cost = self.step_cost.pop_front().unwrap_or(0.01);
            self.time.set(self.time.get() + cost);
            let n = self.queue.len();
            for (id, submitted_step) in self.queue.drain(..) {
                self.done.push(Done {
                    id,
                    tokens: vec![0],
                    completed: true,
                    submitted_step,
                    first_token_step: Some(self.step),
                    finished_step: self.step,
                });
            }
            n
        }
        fn drain(&mut self) -> Vec<Done> {
            std::mem::take(&mut self.done)
        }
        fn queue_depth(&self) -> usize {
            self.queue.len()
        }
        fn in_flight(&self) -> usize {
            0
        }
        fn current_step(&self) -> u64 {
            self.step
        }
        fn counters(&mut self) -> Counters {
            Counters {
                steps: self.step,
                ..Counters::default()
            }
        }
    }

    fn one_token() -> Request {
        Request {
            prompt: vec![1],
            max_new_tokens: 1,
        }
    }

    #[test]
    fn same_seed_same_schedule_and_prompts() {
        let draw = |seed| {
            let mut s = RequestStream::new(seed, 512, (8, 64), (4, 32));
            let reqs: Vec<Request> = (0..100).map(|_| s.next_request()).collect();
            (arrival_schedule(seed, 100, 5.0), reqs)
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3).0, draw(4).0);
        assert_ne!(draw(3).1, draw(4).1);
        let (due, _) = draw(3);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|t| (0.0..5.0).contains(t)));
    }

    #[test]
    fn every_seed_offers_the_same_length_mix() {
        let totals = |seed| {
            let mut s = RequestStream::new(seed, 512, (8, 64), (4, 32));
            // 57 prompt lengths × 29 output lengths: one common multiple.
            let reqs: Vec<Request> = (0..57 * 29).map(|_| s.next_request()).collect();
            let p: usize = reqs.iter().map(|r| r.prompt.len()).sum();
            let o: usize = reqs.iter().map(|r| r.max_new_tokens).sum();
            (p, o)
        };
        assert_eq!(totals(1), totals(2));
    }

    #[test]
    fn a_stalled_step_is_charged_to_the_requests_due_during_it() {
        let time = Rc::new(Cell::new(0.0));
        let clock = FakeClock(time.clone());
        let mut engine = ScriptedEngine {
            time,
            // The first step stalls for a second; later ones take 10 ms.
            step_cost: VecDeque::from([1.0]),
            queue: Vec::new(),
            done: Vec::new(),
            step: 0,
            next_id: 0,
        };
        let arrivals = vec![(0.0, one_token()), (0.1, one_token()), (2.0, one_token())];
        let log = run_open(&mut engine, &clock, arrivals, &mut Spans::disabled());
        let ttft: Vec<f64> = log.records.iter().map(|r| r.ttft_s().unwrap()).collect();
        // Request 0 waited for its own 1 s step.
        assert!((ttft[0] - 1.0).abs() < 1e-9);
        // Request 1 was due at 0.1 s but could only be sent at 1.0 s and
        // served by 1.01 s: charged 0.91 s from its due time, although
        // the engine held it for only 10 ms.
        assert!((ttft[1] - 0.91).abs() < 1e-9);
        assert!((log.late_s[1] - 0.9).abs() < 1e-9);
        // Request 2 arrived at an idle engine: the generator slept until
        // it was due and it paid only its own step.
        assert!((ttft[2] - 0.01).abs() < 1e-9);
        assert!(log.late_s[2].abs() < 1e-9);
        assert_eq!(log.failed(), 0);
        assert_eq!(log.totals.steps, 3);
    }

    #[test]
    fn closed_loop_keeps_every_client_busy_until_the_deadline() {
        let time = Rc::new(Cell::new(0.0));
        let clock = FakeClock(time.clone());
        let mut engine = ScriptedEngine {
            time,
            step_cost: VecDeque::new(),
            queue: Vec::new(),
            done: Vec::new(),
            step: 0,
            next_id: 0,
        };
        let mut stream = RequestStream::new(1, 16, (1, 1), (1, 1));
        let mut spans = Spans::disabled();
        let log = run_closed(&mut engine, &clock, &mut stream, 4, 0.095, 8, &mut spans);
        // 10 ms steps, 4 clients: steps end at 0.01 .. 0.10; the nine that
        // end before 0.095 s each trigger four resubmissions.
        assert_eq!(log.records.len(), 4 + 9 * 4);
        assert_eq!(log.failed(), 0);
        assert_eq!(log.steps.len(), 10);
        // Eight requests are finished after the second step.
        assert_eq!(log.snapshot.unwrap().steps, 2);
    }
}
