//! End-to-end networks: the 4D-parallel MLP and its serial reference.
//!
//! The parallel network runs the full training step of Section V-A —
//! forward through alternating normal/"transposed" FC layers, backward
//! with the overlap optimizations, deferred reduce-scatters, and the
//! data-parallel gradient all-reduce — on real data. The serial network
//! is the ground truth: for identical seeds, the parallel run must
//! reproduce its losses and weights (up to floating-point summation
//! order), for *every* legal grid. That equivalence is the correctness
//! core of the whole reproduction and is exercised heavily in tests.

use crate::dataparallel::sync_gradients;
use crate::gradsync::{GradSyncMode, GradSyncPipeline, ParamStore, DEFAULT_BUCKET_ELEMS};
use crate::grid::GridTopology;
use crate::layer::{copy_into, OverlapConfig, ParallelLinear, PendingGrad, Precision};
use crate::tuner::KernelTuner;
use axonn_collectives::{Comm, ProcessGroup};
use axonn_tensor::{block_of, gelu_backprop, gelu_in_place, gemm, BlockSpec, MatMode, Matrix};

/// Elementwise nonlinearity between FC layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Identity,
    Relu,
    /// tanh-approximated GELU, as in GPT MLP blocks.
    Gelu,
}

impl Activation {
    pub fn apply(self, m: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => m.map_inplace(|x| x.max(0.0)),
            Activation::Gelu => gelu_in_place(m.as_mut_slice()),
        }
    }

    /// Multiply `d` in place by `f'(pre)` elementwise.
    pub fn backprop(self, pre: &Matrix, d: &mut Matrix) {
        match self {
            Activation::Identity => {}
            Activation::Relu => {
                for (dv, &p) in d.as_mut_slice().iter_mut().zip(pre.as_slice()) {
                    if p <= 0.0 {
                        *dv = 0.0;
                    }
                }
            }
            Activation::Gelu => gelu_backprop(pre.as_slice(), d.as_mut_slice()),
        }
    }
}

/// Deterministic weight for layer `i` of a network with feature sizes
/// `dims` — shared between the serial and parallel constructions so they
/// start bit-identical.
fn init_weight(dims: &[usize], i: usize, seed: u64) -> Matrix {
    let scale = 1.0 / (dims[i] as f32).sqrt();
    Matrix::random(
        dims[i],
        dims[i + 1],
        scale,
        seed.wrapping_add(i as u64 * 7919),
    )
}

/// The serial reference MLP: plain full-batch SGD on sum-of-squares loss.
pub struct SerialMlp {
    pub weights: Vec<Matrix>,
    act: Activation,
}

impl SerialMlp {
    pub fn new(dims: &[usize], act: Activation, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let weights = (0..dims.len() - 1)
            .map(|i| init_weight(dims, i, seed))
            .collect();
        SerialMlp { weights, act }
    }

    /// Forward pass returning the pre-activation outputs of every layer.
    fn forward_trace(&self, x: &Matrix) -> Vec<Matrix> {
        let mut pres = Vec::with_capacity(self.weights.len());
        let mut cur = x.clone();
        for (i, w) in self.weights.iter().enumerate() {
            let pre = gemm(MatMode::NN, &cur, w);
            if i + 1 < self.weights.len() {
                let mut a = pre.clone();
                self.act.apply(&mut a);
                cur = a;
            }
            pres.push(pre);
        }
        pres
    }

    pub fn forward(&self, x: &Matrix) -> Matrix {
        self.forward_trace(x).pop().expect("at least one layer")
    }

    /// One full-batch SGD step on `0.5·Σ(O−T)²`; returns the loss.
    pub fn train_step(&mut self, x: &Matrix, target: &Matrix, lr: f32) -> f32 {
        let pres = self.forward_trace(x);
        let out = pres.last().expect("output");
        assert_eq!(out.shape(), target.shape(), "target shape mismatch");
        let mut d = out.clone();
        d.sub_assign(target);
        let loss: f32 = d.as_slice().iter().map(|v| 0.5 * v * v).sum();

        // Inputs to each layer (post-activation of the previous one).
        let mut inputs = Vec::with_capacity(self.weights.len());
        inputs.push(x.clone());
        for pre in &pres[..pres.len() - 1] {
            let mut a = pre.clone();
            self.act.apply(&mut a);
            inputs.push(a);
        }

        let mut grads: Vec<Matrix> = Vec::with_capacity(self.weights.len());
        for i in (0..self.weights.len()).rev() {
            let dw = gemm(MatMode::TN, &inputs[i], &d);
            let mut d_in = gemm(MatMode::NT, &d, &self.weights[i]);
            if i > 0 {
                self.act.backprop(&pres[i - 1], &mut d_in);
            }
            grads.push(dw);
            d = d_in;
        }
        grads.reverse();
        for (w, g) in self.weights.iter_mut().zip(&grads) {
            w.axpy(-lr, g);
        }
        loss
    }
}

/// Distribute a global `m × f` activation matrix to this rank's input
/// block for a layer with the given transpose flag: rows split over
/// (data, Z), columns over the layer's row group.
pub fn distribute_input(full: &Matrix, grid: &GridTopology, transposed: bool) -> Matrix {
    let (_, _, z, d) = grid.coords;
    let rows = block_of(full, BlockSpec::new(grid.gd, 1, d, 0));
    let rows = block_of(&rows, BlockSpec::new(grid.gz, 1, z, 0));
    block_of(
        &rows,
        BlockSpec::new(1, grid.row_parts(transposed), 0, grid.row_index(transposed)),
    )
}

/// Distribute a global target/output matrix to this rank's *output* block
/// for a layer: rows split over (data, Z), columns over the col group.
pub fn distribute_output(full: &Matrix, grid: &GridTopology, transposed: bool) -> Matrix {
    let (_, _, z, d) = grid.coords;
    let rows = block_of(full, BlockSpec::new(grid.gd, 1, d, 0));
    let rows = block_of(&rows, BlockSpec::new(grid.gz, 1, z, 0));
    block_of(
        &rows,
        BlockSpec::new(1, grid.col_parts(transposed), 0, grid.col_index(transposed)),
    )
}

/// Engine-level options beyond the overlap set.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    pub overlap: OverlapConfig,
    /// First-batch BLAS kernel auto-tuning (Section V-C).
    pub kernel_tuning: bool,
    /// f32 or the paper's bf16 mixed precision (Section VI-A).
    pub precision: Precision,
    /// Activation checkpointing (Section VI-A): drop post-layer
    /// activations after the forward pass and recompute them during
    /// backward. Identical numerics, extra compute and output
    /// all-reduces — exactly the trade the paper makes.
    pub activation_checkpointing: bool,
    /// Data-parallel gradient phase: the overlapped bucketed pipeline
    /// with the ZeRO-1 sharded step (default) or the serial per-tensor
    /// oracle. Bit-identical to each other for every grid.
    pub grad_sync: GradSyncMode,
    /// Bucket capacity in elements for the bucketed pipeline.
    pub grad_bucket_elems: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            overlap: OverlapConfig::default(),
            kernel_tuning: false,
            precision: Precision::default(),
            activation_checkpointing: false,
            grad_sync: GradSyncMode::default(),
            grad_bucket_elems: DEFAULT_BUCKET_ELEMS,
        }
    }
}

/// The 4D-parallel MLP on one rank.
pub struct Network4d {
    comm: Comm,
    grid: GridTopology,
    layers: Vec<ParallelLinear>,
    act: Activation,
    cfg: NetConfig,
    tuner: KernelTuner,
    world: ProcessGroup,
}

/// [`ParamStore`] over the MLP's weight shards: tensor id = layer id.
struct MlpParams<'a> {
    layers: &'a mut [ParallelLinear],
}

impl ParamStore for MlpParams<'_> {
    fn param_and_grad(&mut self, tensor: usize) -> (&mut [f32], &[f32]) {
        let (param, grad) = self.layers[tensor].weight_and_grad_mut();
        (param.as_mut_slice(), grad.as_slice())
    }
}

impl Network4d {
    /// Build the network for this rank. `dims` are the global feature
    /// sizes (`dims.len() - 1` layers); weights are seeded identically to
    /// [`SerialMlp::new`], and layer `i` is "transposed" for odd `i`
    /// (Section V-A's alternation).
    pub fn new(
        comm: Comm,
        grid: GridTopology,
        dims: &[usize],
        act: Activation,
        seed: u64,
        overlap: OverlapConfig,
        kernel_tuning: bool,
    ) -> Self {
        Self::with_config(
            comm,
            grid,
            dims,
            act,
            seed,
            NetConfig {
                overlap,
                kernel_tuning,
                ..NetConfig::default()
            },
        )
    }

    /// Build with the full option set (precision, checkpointing, …).
    pub fn with_config(
        comm: Comm,
        grid: GridTopology,
        dims: &[usize],
        act: Activation,
        seed: u64,
        cfg: NetConfig,
    ) -> Self {
        assert!(dims.len() >= 2, "need at least one layer");
        let layers = (0..dims.len() - 1)
            .map(|i| {
                let full = init_weight(dims, i, seed);
                ParallelLinear::from_full_weight(&grid, i, &full, i % 2 == 1)
            })
            .collect();
        let world = ProcessGroup::new((0..grid.total_ranks()).collect());
        let tuner = KernelTuner::new(cfg.kernel_tuning);
        Network4d {
            comm,
            grid,
            layers,
            act,
            cfg,
            tuner,
            world,
        }
    }

    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    pub fn grid(&self) -> &GridTopology {
        &self.grid
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward through all layers from this rank's input block; returns
    /// the local output block and (unless activation checkpointing is on)
    /// the local pre-activation cache.
    fn forward_local(&mut self, x_local: Matrix) -> (Matrix, Vec<Matrix>) {
        if self.cfg.overlap.oag {
            // OAG: enqueue every weight all-gather in topological order
            // before compute starts.
            for layer in &mut self.layers {
                layer.start_weight_gather(&self.comm, &self.grid);
            }
        }
        let n_layers = self.layers.len();
        let mut pres = Vec::with_capacity(n_layers);
        let rows = x_local.rows();
        copy_into(self.layers[0].input_mut(&self.grid, rows), &x_local);
        let mut out = Matrix::zeros(0, 0);
        for i in 0..n_layers {
            let pre = self.layers[i].forward(&self.comm, &self.grid, self.cfg.precision);
            if i + 1 < n_layers {
                let a = self.layers[i + 1].input_mut(&self.grid, rows);
                copy_into(a, &pre);
                self.act.apply(a);
            } else {
                out = pre.clone();
            }
            if self.cfg.activation_checkpointing {
                // Keep only what Algorithm 1 caches inside the layers
                // (I and W); the pre-activation outputs are recomputed
                // during backward.
                drop(pre);
            } else {
                pres.push(pre);
            }
        }
        (out, pres)
    }

    /// Pre-activation output of layer `i`, either from the forward cache
    /// or recomputed (activation checkpointing).
    fn pre_of(&mut self, pres: &[Matrix], i: usize) -> Matrix {
        if self.cfg.activation_checkpointing {
            self.layers[i].recompute_output(&self.comm, &self.grid)
        } else {
            pres[i].clone()
        }
    }

    /// One full training step on the *global* batch: distribute, forward,
    /// loss, backward (with overlap), deferred reduce-scatters, data-
    /// parallel gradient sync, SGD update. Returns the global loss —
    /// identical (up to rounding) to [`SerialMlp::train_step`] on the
    /// same batch.
    pub fn train_step(&mut self, global_x: &Matrix, global_t: &Matrix, lr: f32) -> f32 {
        let m = global_x.rows();
        assert_eq!(
            m % (self.grid.gd * self.grid.gz),
            0,
            "batch rows {m} must divide by gd*gz = {}",
            self.grid.gd * self.grid.gz
        );
        let x_local = distribute_input(global_x, &self.grid, false);
        let (out, pres) = self.forward_local(x_local);

        let last_transposed = (self.layers.len() - 1) % 2 == 1;
        let t_local = distribute_output(global_t, &self.grid, last_transposed);
        assert_eq!(out.shape(), t_local.shape(), "local target shape mismatch");

        // Local loss; the block is replicated across the last layer's row
        // group, so the world sum over-counts by that factor.
        let mut d = out;
        d.sub_assign(&t_local);
        let local_loss: f32 = d.as_slice().iter().map(|v| 0.5 * v * v).sum();
        let mut loss_buf = vec![local_loss];
        self.comm.all_reduce(&self.world, &mut loss_buf);
        let loss = loss_buf[0] / self.grid.row_parts(last_transposed) as f32;

        // Backward with OAR / ORS (and recompute under checkpointing).
        let mut pending: Vec<PendingGrad> = Vec::new();
        let (overlap, precision) = (self.cfg.overlap, self.cfg.precision);
        for i in (0..self.layers.len()).rev() {
            let prev_pre = if i > 0 {
                Some(self.pre_of(&pres, i - 1))
            } else {
                None
            };
            let (mut d_in, p) = self.layers[i].backward(
                &self.comm,
                &self.grid,
                &d,
                overlap,
                &mut self.tuner,
                precision,
            );
            if let Some(p) = p {
                pending.push(p);
            }
            if let Some(pre) = prev_pre {
                self.act.backprop(&pre, &mut d_in);
            }
            d = d_in;
        }
        // ORS drain + data-parallel gradient phase, run as one unit —
        // the bucketed pipeline interleaves the drain with its own
        // collectives.
        let data_group = self.grid.data_group().clone();
        match self.cfg.grad_sync {
            GradSyncMode::Bucketed => {
                let mut pipe = GradSyncPipeline::new(
                    self.comm.clone(),
                    data_group,
                    self.cfg.grad_bucket_elems,
                );
                let mut params = MlpParams {
                    layers: &mut self.layers,
                };
                if pending.is_empty() {
                    // ORS off or a one-rank Z group: gradients landed
                    // synchronously during backward; feed them in the
                    // same reverse-backward order the deferred path would.
                    for i in (0..params.layers.len()).rev() {
                        pipe.push(i, &mut params, lr);
                    }
                } else {
                    // As each deferred Z reduce-scatter resolves, its
                    // gradient goes straight into a bucket; full buckets
                    // issue their data-parallel reduce-scatter while the
                    // remaining ORS waits are still draining.
                    for p in pending {
                        let (layer_id, grad) = p.wait();
                        params.layers[layer_id].accumulate_grad(grad);
                        pipe.push(layer_id, &mut params, lr);
                    }
                }
                pipe.step(lr, &mut params);
                for layer in &mut self.layers {
                    layer.zero_grad();
                }
            }
            GradSyncMode::PerTensor => {
                for p in pending {
                    let (layer_id, grad) = p.wait();
                    self.layers[layer_id].accumulate_grad(grad);
                }
                let mut grads: Vec<&mut Matrix> =
                    self.layers.iter_mut().map(|l| l.grad_shard_mut()).collect();
                sync_gradients(&self.comm, &data_group, &mut grads);
                for layer in &mut self.layers {
                    layer.apply_sgd(lr);
                }
            }
        }
        loss
    }

    /// Reassemble the full weights of every layer (test helper).
    pub fn gather_full_weights(&self) -> Vec<Matrix> {
        self.layers
            .iter()
            .map(|l| l.gather_full_weight(&self.comm, &self.grid))
            .collect()
    }

    /// This rank's local weight shards, one per layer, exactly as laid
    /// out by the grid (x/y tile, z-shard) — the unit of grid-sharded
    /// checkpointing in `axonn-ft`.
    pub fn weight_shards(&self) -> Vec<&Matrix> {
        self.layers.iter().map(|l| l.weight_shard()).collect()
    }

    /// Replace every layer's weights from full (global) matrices — the
    /// restore path of checkpoint/resume. Each matrix must match its
    /// layer's global `k × n` shape; slicing reuses the exact
    /// construction-time layout, so a restore is a pure copy
    /// (bit-identical weights on every rank). Gradient shards and layer
    /// caches are reset; call only at a step boundary.
    pub fn load_full_weights(&mut self, full: &[Matrix]) {
        assert_eq!(
            full.len(),
            self.layers.len(),
            "restore has {} layers, network has {}",
            full.len(),
            self.layers.len()
        );
        for (layer, w) in self.layers.iter_mut().zip(full) {
            assert_eq!(
                (layer.k, layer.n),
                w.shape(),
                "layer {} restore shape mismatch",
                layer.layer_id
            );
            *layer =
                ParallelLinear::from_full_weight(&self.grid, layer.layer_id, w, layer.transposed);
        }
    }

    /// Number of layers whose dŴ kernel the tuner has locked in.
    pub fn tuned_layers(&self) -> usize {
        self.tuner.tuned_layers()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_mlp_learns_identity_map() {
        // A 1-layer linear net trained toward T = X should drive its
        // weight toward the identity.
        let mut net = SerialMlp::new(&[4, 4], Activation::Identity, 3);
        let x = Matrix::random(64, 4, 1.0, 9);
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let loss = net.train_step(&x, &x, 0.01);
            assert!(loss <= last * 1.5, "loss diverged: {loss} after {last}");
            last = loss;
        }
        assert!(last < 1e-3, "final loss {last}");
        assert!(net.weights[0].approx_eq(&Matrix::eye(4), 0.05));
    }

    #[test]
    fn serial_mlp_loss_decreases_with_gelu() {
        let mut net = SerialMlp::new(&[8, 16, 8], Activation::Gelu, 4);
        let x = Matrix::random(32, 8, 1.0, 10);
        let t = Matrix::random(32, 8, 0.5, 11);
        let first = net.train_step(&x, &t, 0.005);
        let mut last = first;
        for _ in 0..300 {
            last = net.train_step(&x, &t, 0.005);
        }
        // Random targets are not perfectly fittable; require a solid drop.
        assert!(last < 0.6 * first, "loss {first} -> {last}");
    }

    #[test]
    fn serial_gradients_match_finite_differences() {
        // Perturb one weight element and check the loss slope.
        let dims = [3, 5, 2];
        let x = Matrix::random(7, 3, 1.0, 12);
        let t = Matrix::random(7, 2, 1.0, 13);
        let base = SerialMlp::new(&dims, Activation::Gelu, 5);

        let loss_of = |net: &SerialMlp| {
            let out = net.forward(&x);
            let mut d = out;
            d.sub_assign(&t);
            d.as_slice().iter().map(|v| 0.5 * v * v).sum::<f32>()
        };

        // Analytic gradient via a tiny-lr step on a clone.
        let mut stepped = SerialMlp::new(&dims, Activation::Gelu, 5);
        let lr = 1e-6f32;
        stepped.train_step(&x, &t, lr);
        for li in 0..2 {
            let g_analytic = {
                let mut g = base.weights[li].clone();
                g.sub_assign(&stepped.weights[li]);
                g.scale(1.0 / lr);
                g
            };
            // Finite differences on a few elements.
            for &(r, c) in &[(0usize, 0usize), (1, 1), (2, 0)] {
                let h = 1e-2f32;
                let mut plus = SerialMlp::new(&dims, Activation::Gelu, 5);
                plus.weights[li][(r, c)] += h;
                let mut minus = SerialMlp::new(&dims, Activation::Gelu, 5);
                minus.weights[li][(r, c)] -= h;
                let fd = (loss_of(&plus) - loss_of(&minus)) / (2.0 * h);
                let an = g_analytic[(r, c)];
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + fd.abs().max(an.abs())),
                    "layer {li} ({r},{c}): fd {fd} vs analytic {an}"
                );
            }
        }
    }
}
