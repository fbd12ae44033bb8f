//! A fully-connected layer parallelized with Algorithm 1.
//!
//! The global weight `W` is `k × n`. Its rows are divided across the
//! row group (Y normally, X for "transposed" layers), its columns across
//! the col group (X / Y), and the resulting block is *further sharded*
//! along Z — the paper's memory optimization over Agarwal's original
//! algorithm, which replicated `W` along Z. The local shard `Ŵ` is
//! therefore `((k / g_in) / G_z) × (n / g_out)`.
//!
//! Input activations `I` arrive as the `(m / G_z) × (k / g_in)` block for
//! this rank's (z, row) coordinates, replicated across the col group;
//! outputs leave as `(m / G_z) × (n / g_out)` blocks replicated across
//! the row group — which is exactly the distribution the *next* layer
//! (with swapped X/Y roles) expects as input.

use crate::grid::GridTopology;
use crate::tuner::{DwStrategy, KernelTuner};
use axonn_collectives::{AsyncHandle, Comm};
use axonn_tensor::{
    block_of, gemm_into_stats, pack_geometry, shard_rows, BlockSpec, GemmStats, MatMode, Matrix,
};
use axonn_trace::{EventDetail, Stream};

/// Wall-clock timestamp for trace edges; 0 when tracing is off (the
/// value is never recorded in that case).
fn wall_now(comm: &Comm) -> u64 {
    comm.tracer().map_or(0, |t| t.now_ns())
}

/// Record a compute-stream GEMM span whose start edges (`t0`, `wall0`)
/// were captured before the product ran; end edges are read now. `stats`
/// carries the blocked engine's pack accounting into the span.
fn record_gemm(comm: &Comm, t0: f64, wall0: u64, mode: &'static str, flops: f64, stats: GemmStats) {
    if let Some(t) = comm.tracer() {
        t.record(
            Stream::Compute,
            t0,
            comm.now(),
            wall0,
            t.now_ns(),
            t.layer(),
            EventDetail::Gemm {
                mode,
                flops,
                packed_bytes: stats.packed_bytes,
                panels: stats.panels,
            },
        );
    }
}

/// Allocate-and-multiply returning the pack stats alongside the product.
fn gemm_with_stats(mode: MatMode, a: &Matrix, b: &Matrix) -> (Matrix, GemmStats) {
    let (m, n) = mode.output_shape(a.shape(), b.shape());
    let mut c = Matrix::zeros(m, n);
    let stats = gemm_into_stats(mode, a, b, &mut c);
    (c, stats)
}

/// Give a buffer kept across steps the shape `rows × cols`, reusing its
/// allocation (a step at or below the largest shape seen allocates
/// nothing). The contents are stale; the caller overwrites every element.
pub(crate) fn reshape(buf: &mut Matrix, rows: usize, cols: usize) -> &mut Matrix {
    if buf.shape() != (rows, cols) {
        let mut data = std::mem::replace(buf, Matrix::zeros(0, 0)).into_vec();
        data.resize(rows * cols, 0.0);
        *buf = Matrix::from_vec(rows, cols, data);
    }
    buf
}

/// Overwrite `dst` with `src`, element for element.
///
/// # Panics
/// If the shapes differ.
pub(crate) fn copy_into(dst: &mut Matrix, src: &Matrix) {
    assert_eq!(dst.shape(), src.shape(), "copy between different shapes");
    dst.as_mut_slice().copy_from_slice(src.as_slice());
}

/// Which of the Section V-D overlap optimizations are active.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlapConfig {
    /// OAR: overlap the backward all-reduce of `dI` with the `dŴ` GEMM.
    pub oar: bool,
    /// ORS: defer weight-gradient reduce-scatters to the end of backward.
    pub ors: bool,
    /// OAG: prefetch the next layer's weight all-gather during compute.
    pub oag: bool,
}

impl OverlapConfig {
    pub fn all() -> Self {
        OverlapConfig {
            oar: true,
            ors: true,
            oag: true,
        }
    }
}

/// Numeric regime of the training step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Pure f32 everywhere (bit-comparable to the serial reference).
    #[default]
    F32,
    /// The paper's mixed precision (Section VI-A): GEMM operands rounded
    /// to the bf16 grid, f32 accumulation, f32 master weights.
    Bf16Mixed,
}

/// A deferred weight-gradient reduce-scatter (ORS): waited on at the end
/// of the backward pass, immediately before the data-parallel phase.
pub struct PendingGrad {
    pub layer_id: usize,
    handle: AsyncHandle,
    rows: usize,
    cols: usize,
}

impl PendingGrad {
    /// Wait for the reduce-scatter and return this rank's gradient shard.
    pub fn wait(self) -> (usize, Matrix) {
        let data = self.handle.wait();
        (self.layer_id, Matrix::from_vec(self.rows, self.cols, data))
    }
}

/// One FC layer under Algorithm 1 on a specific rank.
pub struct ParallelLinear {
    pub layer_id: usize,
    /// Global weight rows (input features).
    pub k: usize,
    /// Global weight columns (output features).
    pub n: usize,
    /// Whether this layer uses the swapped X/Y roles (Section V-A).
    pub transposed: bool,
    w_shard: Matrix,
    grad_shard: Matrix,
    /// The input block `I`, kept for the rank's lifetime: the producer
    /// writes it through [`Self::input_mut`], forward multiplies it and
    /// backward reads it for `dŴ`.
    input: Matrix,
    /// Whether `input` holds this step's forward, not yet consumed by a
    /// backward: set by forward, cleared by backward.
    forward_pending: bool,
    cached_w: Option<Matrix>,
    prefetch: Option<AsyncHandle>,
}

impl ParallelLinear {
    /// Extract this rank's shard from the (deterministically constructed)
    /// full weight matrix. Every rank builds the same `full_w` from the
    /// same seed, so no broadcast is needed — mirroring seeded
    /// initialization in real frameworks.
    pub fn from_full_weight(
        grid: &GridTopology,
        layer_id: usize,
        full_w: &Matrix,
        transposed: bool,
    ) -> Self {
        let (k, n) = full_w.shape();
        let g_in = grid.row_parts(transposed);
        let g_out = grid.col_parts(transposed);
        assert_eq!(
            k % g_in,
            0,
            "layer {layer_id}: k={k} not divisible by row parts {g_in}"
        );
        assert_eq!(
            n % g_out,
            0,
            "layer {layer_id}: n={n} not divisible by col parts {g_out}"
        );
        assert_eq!(
            (k / g_in) % grid.gz,
            0,
            "layer {layer_id}: row block {} not divisible by Gz={}",
            k / g_in,
            grid.gz
        );
        let block = block_of(
            full_w,
            BlockSpec::new(
                g_in,
                g_out,
                grid.row_index(transposed),
                grid.col_index(transposed),
            ),
        );
        let w_shard = shard_rows(&block, grid.gz, grid.coords.2);
        let grad_shard = Matrix::zeros(w_shard.rows(), w_shard.cols());
        ParallelLinear {
            layer_id,
            k,
            n,
            transposed,
            w_shard,
            grad_shard,
            input: Matrix::zeros(0, 0),
            forward_pending: false,
            cached_w: None,
            prefetch: None,
        }
    }

    /// Shape of the input block this rank consumes for `m_local` rows.
    pub fn local_input_cols(&self, grid: &GridTopology) -> usize {
        self.k / grid.row_parts(self.transposed)
    }

    /// Shape of the output block this rank produces.
    pub fn local_output_cols(&self, grid: &GridTopology) -> usize {
        self.n / grid.col_parts(self.transposed)
    }

    pub fn weight_shard(&self) -> &Matrix {
        &self.w_shard
    }

    pub fn grad_shard(&self) -> &Matrix {
        &self.grad_shard
    }

    /// OAG: issue the asynchronous weight all-gather for this layer now
    /// (line 2 of Algorithm 1, prefetched in topological order). A no-op
    /// on a one-rank Z group, where forward multiplies by the shard itself.
    pub fn start_weight_gather(&mut self, comm: &Comm, grid: &GridTopology) {
        if grid.gz > 1 && self.prefetch.is_none() {
            // Scope the issue event to this layer so the overlap report
            // attributes the hidden all-gather time correctly.
            if let Some(t) = comm.tracer() {
                t.set_layer(Some(self.layer_id));
            }
            self.prefetch = Some(comm.iall_gather_pooled(grid.z_group(), self.w_shard.as_slice()));
            if let Some(t) = comm.tracer() {
                t.set_layer(None);
            }
        }
    }

    /// Obtain the gathered `W` block — from the prefetch handle if one is
    /// in flight, otherwise with a blocking all-gather.
    fn gathered_weight(&mut self, comm: &Comm, grid: &GridTopology) -> Matrix {
        let rows = (self.k / grid.row_parts(self.transposed)).max(1);
        let cols = self.n / grid.col_parts(self.transposed);
        let data = match self.prefetch.take() {
            Some(h) => h.wait(),
            None => comm.all_gather(grid.z_group(), self.w_shard.as_slice()),
        };
        Matrix::from_vec(rows, cols, data)
    }

    /// The `W` block forward multiplied by: the gathered (or bf16-rounded)
    /// copy when forward made one, otherwise the shard itself.
    fn forward_weight(&self) -> &Matrix {
        self.cached_w.as_ref().unwrap_or(&self.w_shard)
    }

    /// The kept input block, shaped `rows × (k/g_in)`, for the caller to
    /// overwrite before [`Self::forward`]. Its old contents are stale.
    pub fn input_mut(&mut self, grid: &GridTopology, rows: usize) -> &mut Matrix {
        let cols = self.local_input_cols(grid);
        reshape(&mut self.input, rows, cols)
    }

    /// Forward pass (Algorithm 1 lines 1–7) on the input block written
    /// through [`Self::input_mut`], the `(m/G_z) × (k/g_in)` block `I`;
    /// returns the `(m/G_z) × (n/g_out)` output block. `I` stays in the
    /// layer for backward, and so does the gathered `W` when Z has more
    /// than one rank (or under bf16, which rounds its own copy).
    pub fn forward(&mut self, comm: &Comm, grid: &GridTopology, precision: Precision) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(comm, grid, precision, &mut out);
        out
    }

    /// [`Self::forward`] into `out`, reshaped and overwritten in place.
    pub fn forward_into(
        &mut self,
        comm: &Comm,
        grid: &GridTopology,
        precision: Precision,
        out: &mut Matrix,
    ) {
        assert_eq!(
            self.input.cols(),
            self.local_input_cols(grid),
            "layer {}: input block has wrong width",
            self.layer_id
        );
        let span = comm.tracer().and_then(|t| {
            t.set_layer(Some(self.layer_id));
            t.open_span(
                Stream::Compute,
                comm.now(),
                EventDetail::LayerFwd {
                    layer: self.layer_id,
                },
            )
        });
        self.cached_w = match precision {
            // A one-rank Z group has nothing to gather: no copy.
            Precision::F32 if grid.gz == 1 => None,
            Precision::F32 => Some(self.gathered_weight(comm, grid)),
            Precision::Bf16Mixed => {
                // Round operands onto the bf16 grid once; the rounded
                // copies are what the backward pass reuses, exactly like
                // bf16 weights/activations on a GPU.
                let mut w = self.gathered_weight(comm, grid);
                w.round_bf16();
                self.input.round_bf16();
                Some(w)
            }
        };
        self.forward_pending = true;
        self.product_into(comm, grid, out);
        if let Some(t) = comm.tracer() {
            t.close_span(span, comm.now());
            t.set_layer(None);
        }
    }

    /// `out = all-reduce(I · W)` over the row group: the forward product
    /// from the kept operands, shared by forward and recompute.
    fn product_into(&self, comm: &Comm, grid: &GridTopology, out: &mut Matrix) {
        let w = self.forward_weight();
        let out = reshape(out, self.input.rows(), w.cols());
        let t0 = comm.now();
        let wall0 = wall_now(comm);
        let stats = gemm_into_stats(MatMode::NN, &self.input, w, out);
        let flops = 2.0 * self.input.rows() as f64 * w.rows() as f64 * w.cols() as f64;
        comm.advance_compute(flops);
        record_gemm(comm, t0, wall0, "NN", flops, stats);
        comm.all_reduce(grid.row_group(self.transposed), out.as_mut_slice());
    }

    /// Re-run the forward computation from the kept input — activation
    /// checkpointing's recompute step (Section VI-A: "we turn on
    /// activation checkpointing"). Costs one GEMM plus one output
    /// all-reduce, exactly like the real thing.
    pub fn recompute_output(&mut self, comm: &Comm, grid: &GridTopology) -> Matrix {
        assert!(
            self.forward_pending,
            "layer {}: recompute without a forward in this step",
            self.layer_id
        );
        if let Some(t) = comm.tracer() {
            t.set_layer(Some(self.layer_id));
        }
        let mut out = Matrix::zeros(0, 0);
        self.product_into(comm, grid, &mut out);
        if let Some(t) = comm.tracer() {
            t.set_layer(None);
        }
        out
    }

    /// Backward pass (Algorithm 1 lines 9–16), reading the kept `I` and,
    /// when Z has more than one rank, the gathered `W` that forward
    /// cached. Returns the input-gradient block and, under ORS on a
    /// multi-rank Z group, the pending weight-gradient reduce-scatter
    /// (otherwise the gradient lands in the layer's shard immediately).
    ///
    /// # Panics
    /// Unless a forward ran since the last backward.
    pub fn backward(
        &mut self,
        comm: &Comm,
        grid: &GridTopology,
        d_o: &Matrix,
        overlap: OverlapConfig,
        tuner: &mut KernelTuner,
        precision: Precision,
    ) -> (Matrix, Option<PendingGrad>) {
        assert!(
            std::mem::take(&mut self.forward_pending),
            "layer {}: backward without a forward in this step",
            self.layer_id
        );
        let i_local = &self.input;
        let w = self.cached_w.as_ref().unwrap_or(&self.w_shard);
        assert_eq!(d_o.shape(), (i_local.rows(), w.cols()), "dO shape mismatch");
        let rounded;
        let d_o = match precision {
            Precision::F32 => d_o,
            Precision::Bf16Mixed => {
                rounded = d_o.to_bf16();
                &rounded
            }
        };
        let span = comm.tracer().and_then(|t| {
            t.set_layer(Some(self.layer_id));
            t.open_span(
                Stream::Compute,
                comm.now(),
                EventDetail::LayerBwd {
                    layer: self.layer_id,
                },
            )
        });

        // Line 11: dÎ = dO · Wᵀ.
        let t0 = comm.now();
        let wall0 = wall_now(comm);
        let (d_i_partial, stats) = gemm_with_stats(MatMode::NT, d_o, w);
        let flops = 2.0 * d_o.rows() as f64 * d_o.cols() as f64 * w.rows() as f64;
        comm.advance_compute(flops);
        record_gemm(comm, t0, wall0, "NT", flops, stats);

        // Line 12: all-reduce across the col group — asynchronously under
        // OAR, overlapped with the dŴ GEMM below.
        let col_group = grid.col_group(self.transposed).clone();
        let (mut d_i_buf, ar_handle) = if overlap.oar && col_group.size() > 1 {
            (
                None,
                Some(comm.iall_reduce(&col_group, d_i_partial.into_vec())),
            )
        } else {
            let mut buf = d_i_partial.into_vec();
            comm.all_reduce(&col_group, &mut buf);
            (Some(buf), None)
        };

        // Line 13: dŴ = Iᵀ · dO (via the kernel tuner). A one-rank Z group
        // has nothing to reduce, so the product accumulates straight into
        // this rank's gradient shard; otherwise into the block Line 14
        // reduce-scatters.
        let t0 = comm.now();
        let wall0 = wall_now(comm);
        let mut d_w = None;
        let dw_out = if grid.gz == 1 {
            &mut self.grad_shard
        } else {
            d_w.insert(Matrix::zeros(i_local.cols(), d_o.cols()))
        };
        tuner.dw_gemm_into(self.layer_id, i_local, d_o, dw_out);
        let flops = 2.0 * i_local.rows() as f64 * i_local.cols() as f64 * d_o.cols() as f64;
        comm.advance_compute(flops);
        // Pack traffic of the strategy the tuner executed: the blocked TN
        // kernel and the NN reroute both pack B panels only.
        let strategy = tuner.choice(self.layer_id).unwrap_or(DwStrategy::InPlaceTn);
        let (panels, packed_bytes) = pack_geometry(i_local.cols(), i_local.rows(), d_o.cols());
        record_gemm(
            comm,
            t0,
            wall0,
            strategy.mode_label(),
            flops,
            GemmStats {
                packed_bytes,
                panels,
                simd: false,
            },
        );
        if let Some(t) = comm.tracer() {
            if let Some(o) = tuner.take_last_outcome() {
                t.mark(
                    Stream::Compute,
                    comm.now(),
                    EventDetail::TunerDecision {
                        layer: o.layer_id,
                        choice: match o.strategy {
                            DwStrategy::InPlaceTn => "in_place_tn",
                            DwStrategy::TransposeNn => "transpose_nn",
                        },
                        direct_seconds: o.direct_seconds,
                        reroute_seconds: o.reroute_seconds,
                    },
                );
            }
        }

        if let Some(h) = ar_handle {
            d_i_buf = Some(h.wait());
        }
        let d_i = Matrix::from_vec(
            i_local.rows(),
            i_local.cols(),
            d_i_buf.expect("input gradient buffer"),
        );

        self.cached_w = None;

        // Line 14: reduce-scatter of dŴ across Z.
        let pending = match d_w {
            None => None,
            Some(d_w) if overlap.ors => {
                let handle = comm.ireduce_scatter(grid.z_group(), d_w.into_vec());
                Some(PendingGrad {
                    layer_id: self.layer_id,
                    handle,
                    rows: self.w_shard.rows(),
                    cols: self.w_shard.cols(),
                })
            }
            Some(d_w) => {
                let shard = comm.reduce_scatter(grid.z_group(), d_w.as_slice());
                drop(d_w);
                self.accumulate_grad(Matrix::from_vec(
                    self.w_shard.rows(),
                    self.w_shard.cols(),
                    shard,
                ));
                None
            }
        };
        if let Some(t) = comm.tracer() {
            t.close_span(span, comm.now());
            t.set_layer(None);
        }
        (d_i, pending)
    }

    /// Add a resolved gradient shard (from a [`PendingGrad`] or a
    /// blocking reduce-scatter) into the layer's accumulator.
    pub fn accumulate_grad(&mut self, grad: Matrix) {
        assert_eq!(
            grad.shape(),
            self.grad_shard.shape(),
            "gradient shape mismatch"
        );
        self.grad_shard.add_assign(&grad);
    }

    /// Mutable access for the data-parallel gradient synchronisation.
    pub fn grad_shard_mut(&mut self) -> &mut Matrix {
        &mut self.grad_shard
    }

    /// The weight shard and its gradient together, for an in-place update.
    pub(crate) fn weight_and_grad_mut(&mut self) -> (&mut Matrix, &Matrix) {
        (&mut self.w_shard, &self.grad_shard)
    }

    /// SGD update: `Ŵ -= lr · dŴ`, then clear the accumulator.
    pub fn apply_sgd(&mut self, lr: f32) {
        self.w_shard.axpy(-lr, &self.grad_shard);
        self.zero_grad();
    }

    /// Clear the gradient accumulator to `+0.0`, where the next step's
    /// `dŴ` chains start.
    pub fn zero_grad(&mut self) {
        self.grad_shard.as_mut_slice().fill(0.0);
    }

    /// Reassemble the full `k × n` weight from all ranks' shards
    /// (test/checkpoint helper; collective over the whole tensor-parallel
    /// group).
    pub fn gather_full_weight(&self, comm: &Comm, grid: &GridTopology) -> Matrix {
        // Gather over Z to rebuild this rank's (row, col) block …
        let data = comm.all_gather(grid.z_group(), self.w_shard.as_slice());
        let g_in = grid.row_parts(self.transposed);
        let g_out = grid.col_parts(self.transposed);
        let block = Matrix::from_vec(self.k / g_in, self.n / g_out, data);
        // … then exchange blocks across rows and columns. Column first.
        let row_data = comm.all_gather(grid.col_group(self.transposed), block.as_slice());
        let col_blocks: Vec<Matrix> = (0..g_out)
            .map(|i| {
                Matrix::from_vec(
                    self.k / g_in,
                    self.n / g_out,
                    row_data[i * block.len()..(i + 1) * block.len()].to_vec(),
                )
            })
            .collect();
        let row_band = axonn_tensor::concat_cols(&col_blocks);
        let all_data = comm.all_gather(grid.row_group(self.transposed), row_band.as_slice());
        let bands: Vec<Matrix> = (0..g_in)
            .map(|j| {
                Matrix::from_vec(
                    self.k / g_in,
                    self.n,
                    all_data[j * row_band.len()..(j + 1) * row_band.len()].to_vec(),
                )
            })
            .collect();
        axonn_tensor::concat_rows(&bands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_collectives::CommWorld;

    fn one_rank() -> (Comm, GridTopology) {
        let comm = CommWorld::builder(1).build().pop().expect("one rank");
        (comm, GridTopology::new(1, 1, 1, 1, 0))
    }

    /// A 4 × 3 layer whose input was written for 2 rows; `forward`
    /// decides whether forward then ran on it.
    fn layer(comm: &Comm, grid: &GridTopology, forward: bool) -> ParallelLinear {
        let mut l = ParallelLinear::from_full_weight(grid, 0, &Matrix::random(4, 3, 1.0, 1), false);
        copy_into(l.input_mut(grid, 2), &Matrix::random(2, 4, 1.0, 2));
        if forward {
            let _ = l.forward(comm, grid, Precision::F32);
        }
        l
    }

    fn backward(l: &mut ParallelLinear, comm: &Comm, grid: &GridTopology) {
        let d_o = Matrix::random(2, 3, 1.0, 3);
        let mut tuner = KernelTuner::new(false);
        let _ = l.backward(
            comm,
            grid,
            &d_o,
            OverlapConfig::default(),
            &mut tuner,
            Precision::F32,
        );
    }

    #[test]
    #[should_panic(expected = "backward without a forward in this step")]
    fn backward_with_a_written_input_but_no_forward_panics() {
        let (comm, grid) = one_rank();
        backward(&mut layer(&comm, &grid, false), &comm, &grid);
    }

    #[test]
    #[should_panic(expected = "backward without a forward in this step")]
    fn second_backward_of_one_forward_panics() {
        let (comm, grid) = one_rank();
        let mut l = layer(&comm, &grid, true);
        backward(&mut l, &comm, &grid);
        backward(&mut l, &comm, &grid);
    }

    #[test]
    fn bf16_forward_is_the_oracle_on_rounded_operands() {
        // Mixed precision rounds copies of I and W onto the bf16 grid and
        // multiplies them on the f32 engine: bit for bit the oracle on
        // `to_bf16()` operands.
        let (comm, grid) = one_rank();
        let w = Matrix::random(24, 20, 1.0, 4);
        let i = Matrix::random(9, 24, 1.0, 5);
        let mut l = ParallelLinear::from_full_weight(&grid, 0, &w, false);
        copy_into(l.input_mut(&grid, 9), &i);
        let out = l.forward(&comm, &grid, Precision::Bf16Mixed);
        let oracle = axonn_tensor::gemm_reference(MatMode::NN, &i.to_bf16(), &w.to_bf16());
        assert_eq!(out.to_bits(), oracle.to_bits());
        assert_ne!(
            out.to_bits(),
            axonn_tensor::gemm_reference(MatMode::NN, &i, &w).to_bits()
        );
    }

    #[test]
    fn one_rank_dw_lands_in_the_gradient_shard() {
        // Two backward passes of one input accumulate: the second adds
        // Iᵀ·dO onto the first, continuing each entry's chain.
        let (comm, grid) = one_rank();
        let mut l = layer(&comm, &grid, true);
        backward(&mut l, &comm, &grid);
        let once = l.grad_shard().clone();
        assert_eq!(
            once,
            axonn_tensor::gemm_reference(MatMode::TN, &l.input, &Matrix::random(2, 3, 1.0, 3))
        );
        let _ = l.forward(&comm, &grid, Precision::F32);
        backward(&mut l, &comm, &grid);
        let mut twice = once.clone();
        twice.add_assign(&once);
        assert!(l.grad_shard().approx_eq(&twice, 1e-6));
        l.apply_sgd(0.0);
        assert!(l.grad_shard().as_slice().iter().all(|v| v.to_bits() == 0));
    }
}
