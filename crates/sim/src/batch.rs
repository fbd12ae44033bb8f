//! The per-batch timeline simulator.
//!
//! One representative GPU is simulated with a *compute stream* and three
//! *communication channels* (all-gather, all-reduce, reduce-scatter —
//! NCCL communicators get independent streams in AxoNN). The schedule is
//! exactly Algorithm 1 with activation checkpointing:
//!
//! * forward, per FC layer: all-gather of the Z-sharded weights (line 2;
//!   prefetched under OAG), local GEMM (line 3), blocking all-reduce of
//!   the partial outputs (line 4);
//! * backward, per FC layer in reverse: recompute of the forward GEMM and
//!   its all-reduce (activation checkpointing), the input-gradient GEMM
//!   (line 11), its all-reduce (line 12; overlapped with the next GEMM
//!   under OAR), the weight-gradient GEMM (line 13; TN mode, rerouted
//!   through transpose+NN by the kernel tuner), and the reduce-scatter of
//!   weight gradients (line 14; deferred to the end of backward under
//!   ORS);
//! * one bucketed data-parallel gradient all-reduce at the end.

use crate::options::SimOptions;
use axonn_cluster::{effective_bandwidth, BandwidthDb, GemmMode, Machine};
use axonn_gpt::GptConfig;
use axonn_perfmodel::Grid4d;
use axonn_trace::{CollOp, EventDetail, Stream, TraceSink};
use serde::Serialize;

/// Simulated timing of one training iteration.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct BatchBreakdown {
    /// Makespan of the iteration (what the paper plots as time per batch).
    pub total_seconds: f64,
    /// Time the compute stream spent computing.
    pub compute_seconds: f64,
    /// Makespan minus compute: communication not hidden behind compute
    /// (the orange bars of Figs. 5 and 7).
    pub exposed_comm_seconds: f64,
    /// Total duration of all collectives, whether hidden or not.
    pub issued_comm_seconds: f64,
}

/// Deterministic jitter stream (splitmix64): the "congestion" of the
/// observed simulator. Every communication op draws one factor ≥ 1.
struct Jitter {
    state: u64,
    noise: f64,
}

impl Jitter {
    fn new(seed: u64, noise: f64) -> Jitter {
        Jitter {
            state: seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
            noise,
        }
    }

    fn next_unit(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z = z ^ (z >> 31);
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Slowdown factor in `[1, 1 + 2·noise]`.
    fn comm_factor(&mut self) -> f64 {
        1.0 + 2.0 * self.noise * self.next_unit()
    }

    /// Milder compute variability in `[1, 1 + 0.5·noise]`.
    fn compute_factor(&mut self) -> f64 {
        1.0 + 0.5 * self.noise * self.next_unit()
    }
}

/// Communication channels of the representative GPU.
const CHAN_AG: usize = 0;
const CHAN_AR: usize = 1;
const CHAN_RS: usize = 2;

/// Trace stream a channel's spans land on.
fn chan_stream(chan: usize) -> Stream {
    match chan {
        CHAN_AG => Stream::CommAg,
        CHAN_AR => Stream::CommAr,
        _ => Stream::CommRs,
    }
}

fn coll_op(kind: Coll) -> CollOp {
    match kind {
        Coll::AllGather => CollOp::AllGather,
        Coll::ReduceScatter => CollOp::ReduceScatter,
        Coll::AllReduce => CollOp::AllReduce,
    }
}

fn gemm_label(mode: GemmMode) -> &'static str {
    match mode {
        GemmMode::NN => "NN",
        GemmMode::NT => "NT",
        GemmMode::TN => "TN",
    }
}

/// A simulated asynchronous collective awaiting its wait point.
struct AsyncTicket {
    done: f64,
    op: CollOp,
    seq: u64,
    /// False for size-1 groups, which move no data and leave no events.
    real: bool,
}

struct Timeline<'a> {
    machine: &'a Machine,
    db: &'a BandwidthDb,
    grid: Grid4d,
    opts: SimOptions,
    jitter: Jitter,
    /// Compute stream clock.
    t_comp: f64,
    /// Per-channel communication clocks.
    chan: [f64; 3],
    compute_sum: f64,
    comm_sum: f64,
    /// Event sink when the batch is traced (one representative rank).
    sink: Option<&'a TraceSink>,
    next_seq: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coll {
    AllGather,
    ReduceScatter,
    AllReduce,
}

impl<'a> Timeline<'a> {
    /// Duration of a ring collective over the level-`level` groups moving
    /// `bytes` (full-buffer convention, matching Eqs. 1–5).
    fn coll_duration(&mut self, level: usize, kind: Coll, bytes: f64) -> f64 {
        let size = self.grid.dims()[level];
        if size <= 1 {
            return 0.0;
        }
        let prefix = self.grid.prefix(level);
        let beta = effective_bandwidth(self.machine, self.db, prefix, size);
        let g = size as f64;
        let (steps, volume) = match kind {
            Coll::AllGather | Coll::ReduceScatter => (g - 1.0, (g - 1.0) / g * bytes),
            Coll::AllReduce => (2.0 * (g - 1.0), 2.0 * (g - 1.0) / g * bytes),
        };
        let alpha = if prefix * size <= self.machine.gpus_per_node {
            self.opts.fidelity.alpha_intra
        } else {
            self.opts.fidelity.alpha_inter
        };
        (steps * alpha + volume / beta) * self.jitter.comm_factor()
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Blocking collective: compute stream waits for the channel and the
    /// operation.
    fn blocking_coll(&mut self, chan: usize, level: usize, kind: Coll, bytes: f64) {
        let size = self.grid.dims()[level];
        let entry = self.t_comp;
        let dur = self.coll_duration(level, kind, bytes);
        self.comm_sum += dur;
        let start = self.t_comp.max(self.chan[chan]);
        let done = start + dur;
        self.chan[chan] = done;
        self.t_comp = done;
        if size > 1 {
            if let Some(sink) = self.sink {
                let seq = self.next_seq;
                self.next_seq += 1;
                sink.record_scoped(
                    Stream::Compute,
                    entry,
                    done,
                    EventDetail::Collective {
                        op: coll_op(kind),
                        group_size: size,
                        bytes: bytes as u64,
                        seq,
                        blocking: true,
                        op_seconds: dur,
                    },
                );
            }
        }
    }

    /// Asynchronous collective issued at `issue` (compute-stream time);
    /// returns a ticket carrying its completion time.
    fn async_coll(
        &mut self,
        chan: usize,
        level: usize,
        kind: Coll,
        bytes: f64,
        issue: f64,
    ) -> AsyncTicket {
        let size = self.grid.dims()[level];
        let dur = self.coll_duration(level, kind, bytes);
        self.comm_sum += dur;
        let start = issue.max(self.chan[chan]);
        let done = start + dur;
        self.chan[chan] = done;
        let op = coll_op(kind);
        let seq = self.bump_seq();
        let real = size > 1;
        if real {
            if let Some(sink) = self.sink {
                sink.mark(
                    Stream::Compute,
                    issue,
                    EventDetail::Issue {
                        op,
                        group_size: size,
                        bytes: bytes as u64,
                        seq,
                    },
                );
                sink.record_scoped(
                    chan_stream(chan),
                    start,
                    done,
                    EventDetail::Collective {
                        op,
                        group_size: size,
                        bytes: bytes as u64,
                        seq,
                        blocking: false,
                        op_seconds: dur,
                    },
                );
            }
        }
        AsyncTicket {
            done,
            op,
            seq,
            real,
        }
    }

    /// Wait point of an asynchronous collective: the compute stream
    /// stalls until the ticket's completion (a zero-length gap when the
    /// operation finished earlier — fully hidden).
    fn wait_async(&mut self, ticket: &AsyncTicket) {
        let gap_start = self.t_comp;
        self.t_comp = self.t_comp.max(ticket.done);
        if ticket.real {
            if let Some(sink) = self.sink {
                sink.record_scoped(
                    Stream::Compute,
                    gap_start,
                    self.t_comp,
                    EventDetail::OverlapWait {
                        op: ticket.op,
                        seq: ticket.seq,
                    },
                );
            }
        }
    }

    /// Local GEMM on the compute stream. `global_ref` is the unsharded
    /// reference dimension the BLAS library keys its kernel choice on
    /// (the Section V-C pathology is a property of the layer, not of the
    /// shard).
    fn gemm(&mut self, m: f64, k: f64, n: f64, mode: GemmMode, global_ref: usize) {
        let dur = self.gemm_duration(m, k, n, mode, global_ref) * self.jitter.compute_factor();
        let t0 = self.t_comp;
        self.compute_sum += dur;
        self.t_comp += dur;
        if let Some(sink) = self.sink {
            sink.record_scoped(
                Stream::Compute,
                t0,
                self.t_comp,
                EventDetail::Gemm {
                    mode: gemm_label(mode),
                    flops: 2.0 * m * k * n,
                    // GPU BLAS packs inside the library; the machine
                    // timeline does not model host pack traffic.
                    packed_bytes: 0,
                    panels: 0,
                },
            );
        }
    }

    fn gemm_duration(&self, m: f64, k: f64, n: f64, mode: GemmMode, global_ref: usize) -> f64 {
        let flops = 2.0 * m * k * n;
        let min_dim = m.min(k).min(n);
        if min_dim < 1.0 {
            return 0.0;
        }
        let saturation = min_dim / (min_dim + self.machine.gemm_half_sat);
        let best = self.machine.empirical_peak_tflops / self.machine.advertised_peak_tflops
            * self.machine.sw_derate;
        let eff = best * saturation * self.machine.kernel.factor(mode, global_ref);
        flops / (self.machine.advertised_peak() * eff)
    }

    /// The weight-gradient GEMM: TN by default; with kernel tuning the
    /// simulator does what the first-batch tuner does — time the direct
    /// mode against transpose-copy + NN and take the faster.
    fn dw_gemm(&mut self, m: f64, k: f64, n: f64, global_ref: usize) {
        let direct = self.gemm_duration(k, m, n, GemmMode::TN, global_ref);
        let mut mode = "TN";
        let mut rerouted = f64::NAN;
        let dur = if self.opts.kernel_tuning {
            // Transpose I (m×k bf16): one read + one write of the buffer.
            let transpose = 2.0 * (m * k * 2.0) / self.machine.hbm_bw;
            rerouted = transpose + self.gemm_duration(k, m, n, GemmMode::NN, global_ref);
            if rerouted < direct {
                mode = "TN->NN";
            }
            direct.min(rerouted)
        } else {
            direct
        } * self.jitter.compute_factor();
        let t0 = self.t_comp;
        self.compute_sum += dur;
        self.t_comp += dur;
        if let Some(sink) = self.sink {
            sink.record_scoped(
                Stream::Compute,
                t0,
                self.t_comp,
                EventDetail::Gemm {
                    mode,
                    flops: 2.0 * m * k * n,
                    packed_bytes: 0,
                    panels: 0,
                },
            );
            if self.opts.kernel_tuning {
                sink.mark(
                    Stream::Compute,
                    self.t_comp,
                    EventDetail::TunerDecision {
                        layer: sink.layer().unwrap_or(0),
                        choice: if mode == "TN->NN" {
                            "transpose_nn"
                        } else {
                            "direct_tn"
                        },
                        direct_seconds: direct,
                        reroute_seconds: rerouted,
                    },
                );
            }
        }
    }

    /// Extra non-GEMM compute (attention scores, softmax, vocab)
    /// accounted from Narayanan's formula, charged at a reduced
    /// efficiency.
    fn aux_compute(&mut self, flops: f64) {
        let best = self.machine.empirical_peak_tflops / self.machine.advertised_peak_tflops
            * self.machine.sw_derate;
        let rate = self.machine.advertised_peak() * best * 0.75;
        let dur = flops / rate * self.jitter.compute_factor();
        let t0 = self.t_comp;
        self.compute_sum += dur;
        self.t_comp += dur;
        if let Some(sink) = self.sink {
            sink.record_scoped(
                Stream::Compute,
                t0,
                self.t_comp,
                EventDetail::Aux { label: "aux" },
            );
        }
    }
}

/// Per-layer roles: which grid level divides the weight rows (`k`) and
/// columns (`n`). Transposed layers swap X and Y (Section V-A).
fn layer_levels(transposed: bool) -> (usize, usize) {
    if transposed {
        (0, 1) // k divided over X, n over Y
    } else {
        (1, 0) // k divided over Y, n over X
    }
}

/// Simulate one training iteration of `model` on `grid` with global batch
/// `batch_tokens`.
pub fn simulate_batch(
    machine: &Machine,
    db: &BandwidthDb,
    grid: Grid4d,
    model: &GptConfig,
    batch_tokens: usize,
    opts: SimOptions,
) -> BatchBreakdown {
    simulate_batch_with(machine, db, grid, model, batch_tokens, opts, None)
}

/// Simulate one training iteration while recording every compute and
/// communication span into `sink` (the timeline of one representative
/// rank; training is SPMD-symmetric). Finish the sink afterwards to get
/// the [`axonn_trace::RankTrace`].
pub fn simulate_batch_traced(
    machine: &Machine,
    db: &BandwidthDb,
    grid: Grid4d,
    model: &GptConfig,
    batch_tokens: usize,
    opts: SimOptions,
    sink: &TraceSink,
) -> BatchBreakdown {
    simulate_batch_with(machine, db, grid, model, batch_tokens, opts, Some(sink))
}

fn simulate_batch_with(
    machine: &Machine,
    db: &BandwidthDb,
    grid: Grid4d,
    model: &GptConfig,
    batch_tokens: usize,
    opts: SimOptions,
    sink: Option<&TraceSink>,
) -> BatchBreakdown {
    assert_eq!(
        batch_tokens % grid.gd,
        0,
        "batch must divide over data groups"
    );
    let layers = model.network_fc_layers();
    let m_rep = (batch_tokens / grid.gd) as f64;
    let gzf = grid.gz as f64;

    let mut tl = Timeline {
        machine,
        db,
        grid,
        opts,
        jitter: Jitter::new(opts.fidelity.seed, opts.fidelity.noise),
        t_comp: 0.0,
        chan: [0.0; 3],
        compute_sum: 0.0,
        comm_sum: 0.0,
        sink,
        next_seq: 0,
    };

    // Non-FC compute per GPU, spread over the per-layer charge points
    // (forward, recompute, dI, dW).
    let gpus = grid.gpus() as f64;
    let hw_total = model.hardware_flops_per_iter(batch_tokens) / gpus;
    let fc_total: f64 = layers
        .iter()
        .map(|l| {
            let (kl, nl) = layer_levels(l.transposed);
            let lk = l.shape.k as f64 / grid.dims()[kl] as f64;
            let ln = l.shape.n as f64 / grid.dims()[nl] as f64;
            4.0 * 2.0 * (m_rep / gzf) * lk * ln
        })
        .sum();
    let aux_per_point = ((hw_total - fc_total).max(0.0)) / (4.0 * layers.len() as f64);

    // ---- Forward pass ----
    let mut ag_prefetched: Vec<AsyncTicket> = Vec::with_capacity(layers.len());
    if opts.overlap_ag {
        // OAG: the topological order is known at batch start; all-gathers
        // pipeline on their channel ahead of the compute wave.
        for (i, l) in layers.iter().enumerate() {
            let (kl, nl) = layer_levels(l.transposed);
            let lk = l.shape.k as f64 / grid.dims()[kl] as f64;
            let ln = l.shape.n as f64 / grid.dims()[nl] as f64;
            if let Some(s) = tl.sink {
                s.set_layer(Some(i));
            }
            let ticket = tl.async_coll(CHAN_AG, 2, Coll::AllGather, lk * ln * 2.0, 0.0);
            if let Some(s) = tl.sink {
                s.set_layer(None);
            }
            ag_prefetched.push(ticket);
        }
    }
    for (i, l) in layers.iter().enumerate() {
        let (kl, nl) = layer_levels(l.transposed);
        let lk = l.shape.k as f64 / grid.dims()[kl] as f64;
        let ln = l.shape.n as f64 / grid.dims()[nl] as f64;
        let lm = m_rep / gzf;
        let span = tl.sink.and_then(|s| {
            s.set_layer(Some(i));
            s.open_span(
                Stream::Compute,
                tl.t_comp,
                EventDetail::LayerFwd { layer: i },
            )
        });
        // Weight all-gather (Eq. 1).
        if opts.overlap_ag {
            tl.wait_async(&ag_prefetched[i]);
        } else {
            tl.blocking_coll(CHAN_AG, 2, Coll::AllGather, lk * ln * 2.0);
        }
        // Forward GEMM + auxiliary work.
        tl.gemm(lm, lk, ln, GemmMode::NN, l.shape.k.min(l.shape.n));
        tl.aux_compute(aux_per_point);
        // Output all-reduce over the k-dividing groups (Eq. 3).
        tl.blocking_coll(CHAN_AR, kl, Coll::AllReduce, lm * ln * 2.0);
        if let Some(s) = tl.sink {
            s.close_span(span, tl.t_comp);
            s.set_layer(None);
        }
    }

    // ---- Backward pass (reverse order, with activation checkpointing) ----
    let mut pending_rs: Vec<AsyncTicket> = Vec::new();
    for (i, l) in layers.iter().enumerate().rev() {
        let (kl, nl) = layer_levels(l.transposed);
        let lk = l.shape.k as f64 / grid.dims()[kl] as f64;
        let ln = l.shape.n as f64 / grid.dims()[nl] as f64;
        let lm = m_rep / gzf;
        let gref = l.shape.k.min(l.shape.n);
        let span = tl.sink.and_then(|s| {
            s.set_layer(Some(i));
            s.open_span(
                Stream::Compute,
                tl.t_comp,
                EventDetail::LayerBwd { layer: i },
            )
        });

        // Recompute the forward (checkpointing): GEMM + output all-reduce.
        tl.gemm(lm, lk, ln, GemmMode::NN, gref);
        tl.aux_compute(aux_per_point);
        tl.blocking_coll(CHAN_AR, kl, Coll::AllReduce, lm * ln * 2.0);

        // Input-gradient GEMM (line 11) and its all-reduce (line 12,
        // over the n-dividing groups — Eq. 4).
        tl.gemm(lm, ln, lk, GemmMode::NT, gref);
        tl.aux_compute(aux_per_point);
        let ar_bytes = lm * lk * 2.0;
        let ar_ticket = if opts.overlap_ar {
            let issue = tl.t_comp;
            Some(tl.async_coll(CHAN_AR, nl, Coll::AllReduce, ar_bytes, issue))
        } else {
            tl.blocking_coll(CHAN_AR, nl, Coll::AllReduce, ar_bytes);
            None
        };

        // Weight-gradient GEMM (line 13; the TN product).
        tl.dw_gemm(lm, lk, ln, gref);
        tl.aux_compute(aux_per_point);
        if let Some(ticket) = ar_ticket {
            // OAR: wait for the overlapped all-reduce now.
            tl.wait_async(&ticket);
        }

        // Weight-gradient reduce-scatter over Z (line 14, Eq. 2).
        let rs_bytes = lk * ln * 2.0;
        if opts.overlap_rs {
            let issue = tl.t_comp;
            pending_rs.push(tl.async_coll(CHAN_RS, 2, Coll::ReduceScatter, rs_bytes, issue));
        } else {
            tl.blocking_coll(CHAN_RS, 2, Coll::ReduceScatter, rs_bytes);
        }
        if let Some(s) = tl.sink {
            s.close_span(span, tl.t_comp);
            s.set_layer(None);
        }
    }
    // ORS: the gradients are needed only before the data-parallel phase.
    for ticket in &pending_rs {
        tl.wait_async(ticket);
    }

    // ---- Data-parallel gradient all-reduce (Eq. 5), bucketed ----
    let grad_bytes: f64 = layers
        .iter()
        .map(|l| l.shape.weight_elems() as f64 * 2.0 / grid.tensor_parallel() as f64)
        .sum();
    tl.blocking_coll(CHAN_AR, 3, Coll::AllReduce, grad_bytes);

    let total = tl.t_comp;
    BatchBreakdown {
        total_seconds: total,
        compute_seconds: tl.compute_sum,
        exposed_comm_seconds: (total - tl.compute_sum).max(0.0),
        issued_comm_seconds: tl.comm_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_gpt::model_by_billions;

    fn setup() -> (Machine, BandwidthDb) {
        let m = Machine::frontier();
        let db = BandwidthDb::profile(&m);
        (m, db)
    }

    #[test]
    fn breakdown_identity() {
        let (m, db) = setup();
        let model = model_by_billions(20);
        let grid = Grid4d::new(8, 2, 4, 8);
        let b = simulate_batch(&m, &db, grid, &model, 1 << 21, SimOptions::full());
        assert!(b.total_seconds > 0.0);
        assert!(
            (b.total_seconds - b.compute_seconds - b.exposed_comm_seconds).abs()
                < 1e-9 * b.total_seconds
        );
        assert!(b.issued_comm_seconds >= b.exposed_comm_seconds);
    }

    #[test]
    fn overlap_never_hurts_and_eventually_helps() {
        let (m, db) = setup();
        let model = model_by_billions(20);
        let grid = Grid4d::new(8, 2, 4, 8);
        let batch = 1 << 21;
        let base = simulate_batch(&m, &db, grid, &model, batch, SimOptions::baseline());
        let mut oar = SimOptions::baseline();
        oar.overlap_ar = true;
        let t_oar = simulate_batch(&m, &db, grid, &model, batch, oar);
        let mut ors = oar;
        ors.overlap_rs = true;
        let t_ors = simulate_batch(&m, &db, grid, &model, batch, ors);
        let mut oag = ors;
        oag.overlap_ag = true;
        let t_oag = simulate_batch(&m, &db, grid, &model, batch, oag);

        assert!(t_oar.total_seconds <= base.total_seconds * 1.0001);
        assert!(t_ors.total_seconds <= t_oar.total_seconds * 1.0001);
        assert!(t_oag.total_seconds <= t_ors.total_seconds * 1.0001);
        // Full overlap must give a real improvement on this comm-heavy
        // configuration.
        assert!(
            t_oag.total_seconds < 0.97 * base.total_seconds,
            "full overlap {:.4}s vs baseline {:.4}s",
            t_oag.total_seconds,
            base.total_seconds
        );
        // Overlap hides communication rather than removing it.
        assert!(t_oag.exposed_comm_seconds < base.exposed_comm_seconds);
        assert!(
            (t_oag.issued_comm_seconds - base.issued_comm_seconds).abs()
                < 0.01 * base.issued_comm_seconds
        );
    }

    #[test]
    fn kernel_tuning_helps_large_hidden_on_frontier() {
        let (m, db) = setup();
        let model = model_by_billions(320);
        let grid = Grid4d::new(8, 4, 8, 4); // 1024 GCDs
        let batch = 1 << 21;
        let mut untuned = SimOptions::baseline();
        untuned.overlap_ar = true;
        untuned.overlap_rs = true;
        untuned.overlap_ag = true;
        let mut tuned = untuned;
        tuned.kernel_tuning = true;
        let a = simulate_batch(&m, &db, grid, &model, batch, untuned);
        let b = simulate_batch(&m, &db, grid, &model, batch, tuned);
        // Section V-C: tuning cut total compute from 30.1 s to 13.19 s
        // (2.3x) for GPT-320B; our shape target is a large compute
        // reduction.
        assert!(
            b.compute_seconds < 0.6 * a.compute_seconds,
            "tuned {:.3}s vs untuned {:.3}s",
            b.compute_seconds,
            a.compute_seconds
        );
    }

    #[test]
    fn kernel_tuning_is_modest_for_small_hidden() {
        let (m, db) = setup();
        let model = model_by_billions(20);
        let grid = Grid4d::new(8, 2, 4, 8);
        let batch = 1 << 21;
        let a = simulate_batch(&m, &db, grid, &model, batch, SimOptions::baseline());
        let mut tuned = SimOptions::baseline();
        tuned.kernel_tuning = true;
        let b = simulate_batch(&m, &db, grid, &model, batch, tuned);
        let gain = 1.0 - b.total_seconds / a.total_seconds;
        assert!(
            (0.0..0.12).contains(&gain),
            "small-model tuning gain {gain:.3} should be modest"
        );
    }

    #[test]
    fn observed_mode_is_slower_and_seed_dependent() {
        let (m, db) = setup();
        let model = model_by_billions(10);
        let grid = Grid4d::new(8, 1, 2, 4);
        let batch = 1 << 20;
        let clean = simulate_batch(&m, &db, grid, &model, batch, SimOptions::full());
        let o1 = simulate_batch(
            &m,
            &db,
            grid,
            &model,
            batch,
            SimOptions::full().with_fidelity(crate::options::Fidelity::observed(1)),
        );
        let o2 = simulate_batch(
            &m,
            &db,
            grid,
            &model,
            batch,
            SimOptions::full().with_fidelity(crate::options::Fidelity::observed(2)),
        );
        assert!(o1.total_seconds > clean.total_seconds);
        assert_ne!(o1.total_seconds, o2.total_seconds);
        // Determinism per seed.
        let o1b = simulate_batch(
            &m,
            &db,
            grid,
            &model,
            batch,
            SimOptions::full().with_fidelity(crate::options::Fidelity::observed(1)),
        );
        assert_eq!(o1.total_seconds, o1b.total_seconds);
    }

    #[test]
    fn more_gpus_same_model_is_faster() {
        let (m, db) = setup();
        let model = model_by_billions(20);
        let batch = 1 << 22;
        let small = simulate_batch(
            &m,
            &db,
            Grid4d::new(8, 2, 4, 4),
            &model,
            batch,
            SimOptions::full(),
        );
        let large = simulate_batch(
            &m,
            &db,
            Grid4d::new(8, 2, 4, 16),
            &model,
            batch,
            SimOptions::full(),
        );
        assert!(large.total_seconds < small.total_seconds);
    }

    #[test]
    fn sim_publishes_runtime_metric_names() {
        use axonn_trace::{fold_traces, LiveRegistry};
        let machine = Machine::frontier();
        let db = BandwidthDb::profile(&machine);
        let model = model_by_billions(20);
        let grid = Grid4d::new(8, 2, 4, 8);
        let sink = TraceSink::new(0);
        simulate_batch_traced(
            &machine,
            &db,
            grid,
            &model,
            1 << 21,
            SimOptions::full(),
            &sink,
        );
        let reg = LiveRegistry::new();
        fold_traces(&[sink.finish()], &reg);
        let snap = reg.snapshot();
        // Parity anchor: the names a live world would publish.
        assert!(
            snap.counters
                .keys()
                .any(|k| k.starts_with("collective.") && k.ends_with(".calls")),
            "no collective call counters: {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
        // The fold pre-registers every op at zero; the run issued some.
        assert!(
            snap.counters
                .iter()
                .any(|(k, &v)| k.starts_with("collective.") && k.ends_with(".calls") && v > 0),
            "no collective calls counted"
        );
        assert!(
            snap.counters.keys().any(|k| k.starts_with("gemm.")),
            "no gemm counters"
        );
        assert!(
            snap.histograms.keys().any(|k| k.ends_with(".bytes_hist")),
            "no bytes histograms"
        );
        // And they render through the same Prometheus path.
        let prom = snap.prometheus_text();
        assert!(prom.contains("axonn_collective_"), "{prom}");
    }
}
