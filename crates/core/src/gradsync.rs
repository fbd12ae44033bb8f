//! Overlapped bucketed gradient synchronisation with a ZeRO-1 sharded
//! optimizer step — the data-parallel tail of every training step.
//!
//! The seed engine ended backward serially: wait every deferred Z
//! reduce-scatter, then one giant *blocking* data-parallel all-reduce,
//! then a replicated SGD update on every rank. This module replaces that
//! tail with a pipeline in the spirit of the asynchronous AxoNN
//! framework (arXiv:2110.13005) and the optimizer-state sharding the
//! 4D-hybrid paper (arXiv:2305.13525) adopts. Gradients are fed in
//! reverse-backward order into fixed-size **buckets**, and each bucket
//! passes through three stages:
//!
//! 1. **seal** — a full bucket is written straight into a pooled slab
//!    and immediately issues a non-blocking data-parallel
//!    reduce-scatter, overlapping the remaining ORS waits;
//! 2. **update** — this rank updates only its `1/G_data` slice of the
//!    bucket (`p += (-lr)·g`, the exact expression of `Matrix::axpy`)
//!    and issues the non-blocking all-gather of the updated slice;
//! 3. **scatter back** — the gathered bucket is copied into the
//!    parameter tensors.
//!
//! The stages form a two-deep software pipeline driven by the seals:
//! sealing bucket `k` updates bucket `k − 1` (waiting its
//! reduce-scatter), and issuing that update's all-gather scatters back
//! bucket `k − 2` (waiting its all-gather). So at most two
//! reduce-scatters and two all-gathers are ever in flight, and what is
//! live at any moment is the open bucket's entry list, two bucket slabs,
//! one reduced slice, two update slabs and one gathered bucket — bounded
//! by the depth, not by the model's bucket count. Once the world's slab
//! pool holds that many slabs, a step checks every slab out of its
//! shelves and allocates none.
//! [`step`](GradSyncPipeline::step) seals the last partial bucket and
//! drains the final two stages. The depth is fixed by this design.
//!
//! A one-rank data group has nothing to reduce or gather: the pipeline
//! then keeps no bucket and no copy, and each
//! [`push`](GradSyncPipeline::push) updates its tensor in place from the
//! gradient the [`ParamStore`] holds.
//!
//! Bit-identity with the per-tensor oracle ([`GradSyncMode::PerTensor`])
//! holds for *any* bucket geometry because the data-group reduction uses
//! the canonical-order reduce-scatter (`Comm::reduce_scatter_linear` /
//! its async twin): every element is summed in fixed group-position
//! order, independent of where a tensor lands inside a bucket. The
//! oracle's data-group reductions use the same canonical order, so the
//! two modes produce identical weights and the oracle stays a bitwise
//! regression check for the pipeline.

use axonn_collectives::{AsyncHandle, AsyncOp, Comm, ProcessGroup};

/// How the data-parallel gradient phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradSyncMode {
    /// Bucketed non-blocking reduce-scatter + sharded update +
    /// non-blocking all-gather (the production path).
    #[default]
    Bucketed,
    /// The seed's serial per-tensor path: blocking canonical-order
    /// all-reduce per flat gradient bucket, replicated SGD on every
    /// rank. Kept as the bit-identity oracle for the pipeline.
    PerTensor,
}

/// Default bucket capacity in elements (128 KiB of f32) — small enough
/// that several buckets are in flight for the bench shapes, large enough
/// that per-collective latency amortises.
pub const DEFAULT_BUCKET_ELEMS: usize = 32 * 1024;

/// Uniform mutable view over a model's heterogeneous parameter tensors,
/// addressed by the same tensor ids the gradients were
/// [`push`](GradSyncPipeline::push)ed under.
pub trait ParamStore {
    /// The whole parameter of `tensor` and its gradient accumulator (the
    /// gradient that was pushed for it).
    fn param_and_grad(&mut self, tensor: usize) -> (&mut [f32], &[f32]);
}

/// One tensor's (partial) residence inside a bucket.
#[derive(Debug, Clone)]
struct BucketEntry {
    tensor: usize,
    tensor_off: usize,
    bucket_off: usize,
    len: usize,
}

/// A sealed bucket's entries and the collective in flight for it: its
/// reduce-scatter, then its update's all-gather.
type Inflight = (Vec<BucketEntry>, AsyncHandle);

/// The reverse-backward-order gradient bucketizer + ZeRO-1 step.
///
/// Usage per training step: [`push`](Self::push) each tensor's fully
/// Z-reduced gradient as it resolves (reverse backward order), then
/// [`step`](Self::step) to seal the final partial bucket and drain the
/// pipeline. Both read gradients and write parameters through the
/// [`ParamStore`]: a pushed gradient must stay as pushed until `step`
/// returns, while a pushed tensor's parameter may already be updated
/// before `step`. Gradient accumulators are untouched; the caller zeroes
/// them after `step` (as `apply_sgd` used to).
pub struct GradSyncPipeline {
    comm: Comm,
    group: ProcessGroup,
    bucket_elems: usize,
    /// Filled length of the open bucket and the pieces in it; the
    /// gradients stay in the store until the bucket seals.
    open_len: usize,
    open: Vec<BucketEntry>,
    /// The last sealed bucket, its reduce-scatter in flight.
    reducing: Option<Inflight>,
    /// The bucket sealed before it, its update's all-gather in flight.
    gathering: Option<Inflight>,
    sealed: usize,
}

impl GradSyncPipeline {
    pub fn new(comm: Comm, group: ProcessGroup, bucket_elems: usize) -> Self {
        assert!(bucket_elems > 0, "bucket capacity must be positive");
        GradSyncPipeline {
            comm,
            group,
            bucket_elems,
            open_len: 0,
            open: Vec::new(),
            reducing: None,
            gathering: None,
            sealed: 0,
        }
    }

    /// Feed `tensor`'s gradient, read from `store`, into the bucketizer.
    /// A tensor larger than the remaining bucket space is split across
    /// buckets; every bucket that fills seals at once, which advances
    /// the pipeline by one bucket (see the module docs). A one-rank
    /// group updates the tensor in place instead: there is nothing to
    /// reduce, so no copy is made.
    pub fn push(&mut self, tensor: usize, store: &mut impl ParamStore, lr: f32) {
        if self.group.size() == 1 {
            let (param, grad) = store.param_and_grad(tensor);
            sgd(param, grad, lr);
            return;
        }
        let len = store.param_and_grad(tensor).1.len();
        let mut off = 0;
        while off < len {
            let take = (self.bucket_elems - self.open_len).min(len - off);
            self.open.push(BucketEntry {
                tensor,
                tensor_off: off,
                bucket_off: self.open_len,
                len: take,
            });
            self.open_len += take;
            off += take;
            if self.open_len == self.bucket_elems {
                self.seal(store, lr);
            }
        }
    }

    /// Seal the final partial bucket (no-op when empty).
    pub fn flush(&mut self, store: &mut impl ParamStore, lr: f32) {
        if self.open_len > 0 {
            self.seal(store, lr);
        }
    }

    /// Copy the open bucket's gradients into a pooled slab, padded to a
    /// multiple of the group size with zeros (discarded on scatter-back),
    /// issue its reduce-scatter, then update the bucket sealed before it.
    fn seal(&mut self, store: &mut impl ParamStore, lr: f32) {
        let g = self.group.size();
        let padded = self.open_len.div_ceil(g) * g;
        let entries = std::mem::take(&mut self.open);
        self.open_len = 0;
        let payload = self.comm.pooled_payload_with(padded, |bucket| {
            for e in &entries {
                bucket[e.bucket_off..e.bucket_off + e.len].copy_from_slice(
                    &store.param_and_grad(e.tensor).1[e.tensor_off..e.tensor_off + e.len],
                );
            }
        });
        // Annotate the schedule stream: the bucket-buffer write (the
        // bucket's last main-context mutation) must happen-before the
        // reduce-scatter's overlap window — the verifier's race detector
        // proves exactly that ordering.
        self.comm
            .record_buf_write(payload.buffer_id(), "bucket_grads");
        // Marker consumed by axonn-verify's leak lint: every sealed
        // bucket must be followed by its linear reduce-scatter.
        self.comm.record_schedule_marker("bucket_seal");
        let rs = self
            .comm
            .start_async(&self.group, AsyncOp::ReduceScatterLinear(payload));
        self.sealed += 1;
        if let Some(prev) = self.reducing.replace((entries, rs)) {
            self.update(prev, store, lr);
        }
    }

    /// Wait a bucket's reduce-scatter, update this rank's `1/G_data`
    /// parameter slice with `p += (-lr)·g` straight into a pooled slab
    /// (padded region zero), and issue the slice's all-gather; then
    /// scatter back the bucket whose all-gather was issued before it.
    fn update(&mut self, (entries, rs): Inflight, store: &mut impl ParamStore, lr: f32) {
        let grad = rs.wait();
        let lo = self.group.position_of(self.comm.rank()) * grad.len();
        let payload = self.comm.pooled_payload_with(grad.len(), |upd| {
            read_params(store, &entries, lo, upd);
            sgd(upd, &grad, lr);
        });
        drop(grad);
        // Same annotation discipline as `seal`: the updated shard's
        // last write precedes the all-gather issue.
        self.comm
            .record_buf_write(payload.buffer_id(), "zero1_update");
        let gather = self
            .comm
            .start_async(&self.group, AsyncOp::AllGather(payload));
        if let Some(prev) = self.gathering.replace((entries, gather)) {
            scatter_back(prev, store);
        }
    }

    /// Number of buckets sealed so far (diagnostics / tests).
    pub fn buckets(&self) -> usize {
        self.sealed
    }

    /// Finish the ZeRO-1 sharded step: seal the last partial bucket,
    /// update the last sealed bucket and scatter back the last two.
    /// Every earlier bucket was updated and scattered back as later
    /// ones sealed.
    pub fn step(mut self, lr: f32, store: &mut impl ParamStore) {
        self.flush(store, lr);
        if let Some(last) = self.reducing.take() {
            self.update(last, store, lr);
        }
        if let Some(last) = self.gathering.take() {
            scatter_back(last, store);
        }
    }
}

/// Wait a bucket's all-gather and copy the updated bucket into the
/// parameter tensors behind its entries.
fn scatter_back((entries, gather): Inflight, store: &mut impl ParamStore) {
    let full = gather.wait();
    for e in &entries {
        store.param_and_grad(e.tensor).0[e.tensor_off..e.tensor_off + e.len]
            .copy_from_slice(&full[e.bucket_off..e.bucket_off + e.len]);
    }
}

/// `param += (-lr)·grad`, elementwise: the expression of `Matrix::axpy`,
/// so the pipeline's update has the per-tensor oracle's bits.
fn sgd(param: &mut [f32], grad: &[f32], lr: f32) {
    for (p, &gv) in param.iter_mut().zip(grad) {
        *p += -lr * gv;
    }
}

/// Fill `dst` — covering bucket positions `[lo, lo + dst.len())` — with
/// the parameter values behind each overlapping entry. Positions outside
/// every entry (the padding tail) stay zero.
fn read_params(store: &mut impl ParamStore, entries: &[BucketEntry], lo: usize, dst: &mut [f32]) {
    let hi = lo + dst.len();
    for e in entries {
        let s = e.bucket_off.max(lo);
        let t = (e.bucket_off + e.len).min(hi);
        if s < t {
            let from = e.tensor_off + (s - e.bucket_off);
            dst[s - lo..t - lo]
                .copy_from_slice(&store.param_and_grad(e.tensor).0[from..from + (t - s)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_exec::run_spmd;

    /// Plain Vec-of-Vec parameter set (and the gradients pushed for
    /// it) for tests.
    struct VecStore {
        params: Vec<Vec<f32>>,
        grads: Vec<Vec<f32>>,
    }

    impl ParamStore for VecStore {
        fn param_and_grad(&mut self, tensor: usize) -> (&mut [f32], &[f32]) {
            (&mut self.params[tensor], &self.grads[tensor])
        }
    }

    fn tensor(rank: usize, id: usize, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((rank * 131 + id * 17 + i * 3) % 19) as f32 - 9.0)
            .collect()
    }

    /// The oracle: canonical-order all-reduce + replicated axpy.
    fn oracle(
        comm: &Comm,
        group: &ProcessGroup,
        rank: usize,
        lens: &[usize],
        lr: f32,
    ) -> Vec<Vec<f32>> {
        let mut params: Vec<Vec<f32>> = lens.iter().map(|&l| vec![0.25f32; l]).collect();
        for (id, &len) in lens.iter().enumerate() {
            let mut g = tensor(rank, id, len);
            comm.all_reduce_linear(group, &mut g);
            for (p, gv) in params[id].iter_mut().zip(&g) {
                *p += -lr * gv;
            }
        }
        params
    }

    #[test]
    fn pipeline_matches_oracle_bitwise_across_bucket_sizes() {
        // Tensor lengths chosen so buckets split one tensor mid-way and
        // the final bucket is partial.
        let lens = [7usize, 12, 3, 9];
        for world in [1usize, 2, 4] {
            for bucket_elems in [5usize, 8, 64] {
                let lens_v = lens.to_vec();
                let out = run_spmd(world, move |c| {
                    let group = ProcessGroup::new((0..world).collect());
                    let rank = c.rank();
                    let mut store = VecStore {
                        params: lens_v.iter().map(|&l| vec![0.25f32; l]).collect(),
                        grads: lens_v
                            .iter()
                            .enumerate()
                            .map(|(id, &len)| tensor(rank, id, len))
                            .collect(),
                    };
                    let mut pipe = GradSyncPipeline::new(c.clone(), group.clone(), bucket_elems);
                    for id in 0..lens_v.len() {
                        pipe.push(id, &mut store, 0.1);
                    }
                    pipe.step(0.1, &mut store);
                    let expect = oracle(&c, &group, rank, &lens_v, 0.1);
                    (store.params, expect)
                });
                for (got, expect) in out {
                    for (a, b) in got.iter().zip(&expect) {
                        let a_bits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                        let b_bits: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(a_bits, b_bits, "world {world} bucket {bucket_elems}");
                    }
                }
            }
        }
    }

    #[test]
    fn bucket_count_reflects_capacity() {
        let out = run_spmd(2, |c| {
            let count = |group: ProcessGroup| {
                let mut store = VecStore {
                    params: vec![vec![0.0; 10]],
                    grads: vec![vec![1.0; 10]],
                };
                let mut pipe = GradSyncPipeline::new(c.clone(), group, 4);
                pipe.push(0, &mut store, 0.0);
                pipe.flush(&mut store, 0.0);
                let buckets = pipe.buckets();
                pipe.step(0.0, &mut store);
                buckets
            };
            (
                count(ProcessGroup::new(vec![0, 1])),
                count(ProcessGroup::solo(c.rank())),
            )
        });
        for (pair, solo) in out {
            assert_eq!(pair, 3, "10 elements over capacity-4 buckets");
            assert_eq!(solo, 0, "a one-rank group keeps no bucket");
        }
    }

    #[test]
    fn steady_state_steps_allocate_no_pool_slab() {
        // 15 buckets per rank and step. The pipeline keeps at most two
        // buckets' slabs live, so with the world's slab pool warm (as
        // after any number of earlier steps) a step checks every slab
        // out of the shelves. Holding every bucket until the end of the
        // step needs more slabs than the pool shelves, and misses on
        // every step. The pool is warmed explicitly rather than by the
        // first step, because how many slabs the two ranks hold at once
        // at the peak varies from run to run with thread timing.
        let lens = [370usize, 640, 290, 500, 710, 410];
        let bucket_elems = 200;
        let lr = 0.1;
        let out = run_spmd(2, move |c| {
            let group = ProcessGroup::new(vec![0, 1]);
            let rank = c.rank();
            if rank == 0 {
                // More slabs of each class than the pool keeps: bucket
                // (256), slice and the last bucket (128), its slice (64).
                let warm: Vec<_> = [64, 128, 256]
                    .iter()
                    .flat_map(|&len| (0..64).map(move |_| len))
                    .map(|len| c.pooled_payload_with(len, |_| {}))
                    .collect();
                drop(warm);
            }
            let mut store = VecStore {
                params: lens.iter().map(|&l| vec![0.25f32; l]).collect(),
                grads: lens
                    .iter()
                    .enumerate()
                    .map(|(id, &len)| tensor(rank, id, len))
                    .collect(),
            };
            let mut step = || {
                // The counters are world-wide: read them while both
                // ranks are between steps.
                c.barrier(&group);
                let before = c.pool_stats();
                let mut pipe = GradSyncPipeline::new(c.clone(), group.clone(), bucket_elems);
                for id in 0..lens.len() {
                    pipe.push(id, &mut store, lr);
                }
                pipe.flush(&mut store, lr);
                let buckets = pipe.buckets();
                pipe.step(lr, &mut store);
                c.barrier(&group);
                let after = c.pool_stats();
                c.barrier(&group);
                (
                    buckets,
                    after.misses - before.misses,
                    after.alloc_bytes - before.alloc_bytes,
                )
            };
            let _first = step();
            let second = step();
            // Two replicated SGD steps from the same gradients.
            let mut expect = oracle(&c, &group, rank, &lens, lr);
            for (id, p) in expect.iter_mut().enumerate() {
                let mut g = tensor(rank, id, lens[id]);
                c.all_reduce_linear(&group, &mut g);
                for (pv, gv) in p.iter_mut().zip(&g) {
                    *pv += -lr * gv;
                }
            }
            (second, store.params, expect)
        });
        for ((buckets, misses, bytes), got, expect) in out {
            assert!(buckets >= 8, "only {buckets} buckets sealed");
            assert_eq!(
                (misses, bytes),
                (0, 0),
                "second step: pool misses, bytes allocated"
            );
            for (a, b) in got.iter().zip(&expect) {
                let a_bits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a_bits, b_bits);
            }
        }
    }
}
