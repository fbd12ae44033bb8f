//! Overlapped bucketed gradient synchronisation with a ZeRO-1 sharded
//! optimizer step — the data-parallel tail of every training step.
//!
//! The seed engine ended backward serially: wait every deferred Z
//! reduce-scatter, then one giant *blocking* data-parallel all-reduce,
//! then a replicated SGD update on every rank. This module replaces that
//! tail with a pipeline in the spirit of the asynchronous AxoNN
//! framework (arXiv:2110.13005) and the optimizer-state sharding the
//! 4D-hybrid paper (arXiv:2305.13525) adopts:
//!
//! 1. gradients are fed in reverse-backward order into fixed-size
//!    **buckets**; a full bucket immediately issues a non-blocking
//!    data-parallel reduce-scatter, overlapping with the remaining ORS
//!    waits and with earlier buckets' traffic;
//! 2. each data-parallel rank updates only its `1/G_data` slice of each
//!    bucket (`p += (-lr)·g`, the exact expression of `Matrix::axpy`),
//!    eliminating the replicated optimizer work;
//! 3. updated slices return via non-blocking all-gather while later
//!    buckets are still reducing.
//!
//! A one-rank data group has nothing to reduce or gather: the pipeline
//! then keeps no bucket and no copy, and `step` updates each pushed
//! tensor in place from the gradient the [`ParamStore`] holds.
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

/// A sealed bucket whose data-parallel reduce-scatter is in flight.
struct InflightBucket {
    entries: Vec<BucketEntry>,
    /// Bucket length padded to a multiple of the group size; pad
    /// elements carry gradient 0 and are discarded on scatter-back.
    padded: usize,
    rs: AsyncHandle,
}

/// The reverse-backward-order gradient bucketizer + ZeRO-1 step.
///
/// Usage per training step: [`push`](Self::push) each tensor's fully
/// Z-reduced gradient as it resolves (reverse backward order),
/// [`flush`](Self::flush) the final partial bucket, then
/// [`step`](Self::step) to run the sharded update and scatter the
/// updated parameters back. Gradient accumulators are untouched; the
/// caller zeroes them after `step` (as `apply_sgd` used to). On a
/// one-rank group a pushed gradient must stay as pushed until `step`,
/// which reads it back through [`ParamStore::param_and_grad`].
pub struct GradSyncPipeline {
    comm: Comm,
    group: ProcessGroup,
    bucket_elems: usize,
    cur: Vec<f32>,
    cur_entries: Vec<BucketEntry>,
    inflight: Vec<InflightBucket>,
    /// One-rank group only: `(tensor, len)` of each push, in order.
    in_place: Vec<(usize, usize)>,
}

impl GradSyncPipeline {
    pub fn new(comm: Comm, group: ProcessGroup, bucket_elems: usize) -> Self {
        assert!(bucket_elems > 0, "bucket capacity must be positive");
        GradSyncPipeline {
            comm,
            group,
            bucket_elems,
            cur: Vec::new(),
            cur_entries: Vec::new(),
            inflight: Vec::new(),
            in_place: Vec::new(),
        }
    }

    /// Feed one tensor's gradient into the bucketizer. A tensor larger
    /// than the remaining bucket space is split across buckets; every
    /// bucket that fills issues its non-blocking data-parallel
    /// reduce-scatter immediately. A one-rank group only records the
    /// tensor: there is nothing to reduce, so no copy is made.
    pub fn push(&mut self, tensor: usize, grad: &[f32]) {
        if self.group.size() == 1 {
            self.in_place.push((tensor, grad.len()));
            return;
        }
        let mut off = 0;
        while off < grad.len() {
            let space = self.bucket_elems - self.cur.len();
            let take = space.min(grad.len() - off);
            self.cur_entries.push(BucketEntry {
                tensor,
                tensor_off: off,
                bucket_off: self.cur.len(),
                len: take,
            });
            self.cur.extend_from_slice(&grad[off..off + take]);
            off += take;
            if self.cur.len() == self.bucket_elems {
                self.seal();
            }
        }
    }

    /// Seal the final partial bucket (no-op when empty).
    pub fn flush(&mut self) {
        if !self.cur.is_empty() {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let g = self.group.size();
        let padded = self.cur.len().div_ceil(g) * g;
        self.cur.resize(padded, 0.0);
        let entries = std::mem::take(&mut self.cur_entries);
        let data = std::mem::take(&mut self.cur);
        // Build the pooled payload first so its buffer id is known, then
        // annotate the schedule stream: the bucket-buffer write (the
        // bucket's last main-context mutation) must happen-before the
        // reduce-scatter's overlap window — the verifier's race detector
        // proves exactly that ordering.
        let payload = self.comm.pooled_payload(&data);
        self.comm
            .record_buf_write(payload.buffer_id(), "bucket_grads");
        // Marker consumed by axonn-verify's leak lint: every sealed
        // bucket must be followed by its linear reduce-scatter.
        self.comm.record_schedule_marker("bucket_seal");
        let rs = self
            .comm
            .start_async(&self.group, AsyncOp::ReduceScatterLinear(payload));
        self.inflight.push(InflightBucket {
            entries,
            padded,
            rs,
        });
    }

    /// Number of buckets sealed so far (diagnostics / tests).
    pub fn buckets(&self) -> usize {
        self.inflight.len()
    }

    /// The ZeRO-1 sharded step. For each bucket, in issue order: wait
    /// its reduce-scatter, update this rank's `1/G_data` parameter slice
    /// with `p += (-lr)·g`, and issue the non-blocking all-gather of the
    /// updated slice — later buckets' reduce-scatters keep streaming
    /// underneath. A second sweep waits each all-gather and scatters the
    /// updated bucket back to the parameter tensors. On a one-rank group
    /// each pushed tensor is updated in place instead.
    pub fn step(mut self, lr: f32, store: &mut impl ParamStore) {
        self.flush();
        let GradSyncPipeline {
            comm,
            group,
            inflight,
            in_place,
            ..
        } = self;
        for (tensor, len) in in_place {
            let (param, grad) = store.param_and_grad(tensor);
            debug_assert_eq!((param.len(), grad.len()), (len, len));
            sgd(param, grad, lr);
        }
        let g = group.size();
        let pos = group.position_of(comm.rank());
        let mut waiting: Vec<(Vec<BucketEntry>, usize, AsyncHandle)> = Vec::new();
        for bucket in inflight {
            let shard = bucket.padded / g;
            let grad = bucket.rs.wait();
            debug_assert_eq!(grad.len(), shard);
            // This rank's slice of the parameters, padded region zero.
            let mut upd = vec![0.0f32; shard];
            read_params(store, &bucket.entries, pos * shard, &mut upd);
            sgd(&mut upd, &grad, lr);
            // Same annotation discipline as `seal`: the updated shard's
            // last write precedes the all-gather issue.
            let payload = comm.pooled_payload(&upd);
            comm.record_buf_write(payload.buffer_id(), "zero1_update");
            let gather = comm.start_async(&group, AsyncOp::AllGather(payload));
            waiting.push((bucket.entries, bucket.padded, gather));
        }
        for (entries, padded, gather) in waiting {
            let full = gather.wait();
            debug_assert_eq!(full.len(), padded);
            for e in &entries {
                store.param_and_grad(e.tensor).0[e.tensor_off..e.tensor_off + e.len]
                    .copy_from_slice(&full[e.bucket_off..e.bucket_off + e.len]);
            }
        }
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
                    for (id, grad) in store.grads.iter().enumerate() {
                        pipe.push(id, grad);
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
                let mut pipe = GradSyncPipeline::new(c.clone(), group, 4);
                pipe.push(0, &[1.0; 10]);
                pipe.flush();
                let buckets = pipe.buckets();
                pipe.step(
                    0.0,
                    &mut VecStore {
                        params: vec![vec![0.0; 10]],
                        grads: vec![vec![1.0; 10]],
                    },
                );
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
}
