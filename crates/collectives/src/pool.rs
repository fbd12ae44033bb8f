//! Pooled, reference-counted message payloads for the transport.
//!
//! The seed transport moved `Vec<f32>`s: every ring hop allocated a fresh
//! vector and every broadcast fan-out cloned the full payload per
//! receiver. This module replaces that with two mechanisms:
//!
//! * [`Payload`] — an `Arc`-backed slab. Senders hand the transport a
//!   reference-counted buffer; forwarding a received payload to the next
//!   ring hop is an `Arc` clone (zero-copy), and the same slab can sit in
//!   several mailboxes at once.
//! * [`BufferPool`] — a per-world free-list of slabs, bucketed by
//!   power-of-two capacity class. Ring hops check hop buffers out of the
//!   pool and the slab's `Drop` returns it, so steady-state collectives
//!   allocate nothing: the second all-reduce of a training step reuses
//!   the first one's slabs.
//!
//! [`PipelineConfig`] is the companion knob: payloads above a threshold
//! are segmented into up to `max_chunks` pipeline chunks so hop `k` of
//! chunk `i` overlaps hop `k+1` of chunk `i-1` around the ring — the
//! pipelining the paper's bandwidth model (Eqs. 1–5) assumes, and what
//! bounds each pooled slab to `payload/S` bytes.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Buffers retained per capacity class; beyond this, returned slabs are
/// simply freed. Bounds worst-case pool memory at
/// `MAX_SHELF * sum(classes)` per world.
const MAX_SHELF: usize = 16;

/// Smallest capacity class. Tiny control messages (clock sync, barrier
/// tokens) all share one class instead of fragmenting the pool.
const MIN_CLASS: usize = 64;

fn class_of(len: usize) -> usize {
    len.next_power_of_two().max(MIN_CLASS)
}

/// Process-wide buffer-identity counter. Every [`Slab`] (and through
/// [`Comm::buffer_id`](crate::Comm), every logical main-context buffer
/// the schedule verifier tracks) gets a unique id from this well. Ids
/// are never reused: recycling a slab back to the pool ends its
/// identity, and the next checkout of the same storage mints a fresh
/// one — which is exactly the property the use-after-recycle analysis
/// keys on. Id 0 is reserved as "unidentified".
static BUFFER_IDS: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh, never-reused buffer identity.
pub(crate) fn next_buffer_id() -> u64 {
    BUFFER_IDS.fetch_add(1, Ordering::Relaxed)
}

#[derive(Default)]
struct Shelves {
    by_class: HashMap<usize, Vec<Vec<f32>>>,
}

struct PoolInner {
    shelves: Mutex<Shelves>,
    hits: AtomicU64,
    misses: AtomicU64,
    alloc_bytes: AtomicU64,
}

/// Snapshot of a pool's allocation behaviour since creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Checkouts served from a shelved slab (no allocation).
    pub hits: u64,
    /// Checkouts that had to allocate a fresh slab.
    pub misses: u64,
    /// Total bytes of fresh slab allocation performed.
    pub alloc_bytes: u64,
}

/// A world-wide free-list of `f32` slabs, bucketed by capacity class.
///
/// Cloning is cheap; all clones share the same shelves and statistics.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    pub fn new() -> BufferPool {
        BufferPool {
            inner: Arc::new(PoolInner {
                shelves: Mutex::new(Shelves::default()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                alloc_bytes: AtomicU64::new(0),
            }),
        }
    }

    /// Cumulative hit/miss/allocation statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            alloc_bytes: self.inner.alloc_bytes.load(Ordering::Relaxed),
        }
    }

    /// Check an empty buffer of at least `len` capacity out of the pool.
    /// Returns the buffer, its capacity class, and whether it was a hit.
    fn checkout(&self, len: usize) -> (Vec<f32>, usize, bool) {
        let class = class_of(len);
        let shelved = self
            .inner
            .shelves
            .lock()
            .by_class
            .get_mut(&class)
            .and_then(Vec::pop);
        match shelved {
            Some(buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                (buf, class, true)
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .alloc_bytes
                    .fetch_add((class * 4) as u64, Ordering::Relaxed);
                (Vec::with_capacity(class), class, false)
            }
        }
    }

    fn give_back(&self, class: usize, mut buf: Vec<f32>) {
        if buf.capacity() < class {
            return; // drained by into_vec(); nothing to shelve
        }
        buf.clear();
        let mut shelves = self.inner.shelves.lock();
        let shelf = shelves.by_class.entry(class).or_default();
        if shelf.len() < MAX_SHELF {
            shelf.push(buf);
        }
    }
}

/// The storage behind a [`Payload`]: a buffer plus the pool (if any) it
/// returns to when the last reference drops.
struct Slab {
    data: Vec<f32>,
    class: usize,
    pool: Weak<PoolInner>,
    /// Unique identity for the verifier's race/slab-lifetime analyses.
    /// Assigned at wrap/checkout time, dies with the slab: the same
    /// storage re-checked-out later carries a different id.
    id: u64,
}

impl Drop for Slab {
    fn drop(&mut self) {
        if let Some(inner) = self.pool.upgrade() {
            let pool = BufferPool { inner };
            pool.give_back(self.class, std::mem::take(&mut self.data));
        }
    }
}

/// A reference-counted, immutable message payload.
///
/// This is what the transport moves: sending clones an `Arc` (so a ring
/// rank can forward a received chunk to its successor without copying),
/// and pooled payloads return their slab to the world's [`BufferPool`]
/// when the last reference — in whichever mailbox or rank it ends up —
/// is dropped.
#[derive(Clone)]
pub struct Payload {
    slab: Arc<Slab>,
}

impl Payload {
    /// Wrap an owned vector without pooling (the buffer is freed
    /// normally when the last reference drops).
    pub fn from_vec(data: Vec<f32>) -> Payload {
        Payload {
            slab: Arc::new(Slab {
                class: 0,
                data,
                pool: Weak::new(),
                id: next_buffer_id(),
            }),
        }
    }

    /// Copy `src` into a slab checked out of `pool`. Returns the payload
    /// and whether the checkout was a pool hit.
    pub fn copy_pooled(pool: &BufferPool, src: &[f32]) -> (Payload, bool) {
        let (mut buf, class, hit) = pool.checkout(src.len());
        buf.extend_from_slice(src);
        (Payload::pooled(pool, buf, class), hit)
    }

    /// Check a `len`-element slab out of `pool`, zero it and let `fill`
    /// write it in place: a payload built from pieces with no staging
    /// buffer. Returns the payload and whether the checkout was a pool
    /// hit.
    pub fn fill_pooled(
        pool: &BufferPool,
        len: usize,
        fill: impl FnOnce(&mut [f32]),
    ) -> (Payload, bool) {
        let (mut buf, class, hit) = pool.checkout(len);
        buf.resize(len, 0.0);
        fill(&mut buf);
        (Payload::pooled(pool, buf, class), hit)
    }

    fn pooled(pool: &BufferPool, data: Vec<f32>, class: usize) -> Payload {
        Payload {
            slab: Arc::new(Slab {
                data,
                class,
                pool: Arc::downgrade(&pool.inner),
                id: next_buffer_id(),
            }),
        }
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.slab.data
    }

    /// This payload's logical buffer identity — unique per slab, never
    /// reused. The async issue path records it on the [`crate::SchedOp`]
    /// so the happens-before race detector can pair overlap windows with
    /// [`crate::SchedEvent::BufWrite`] annotations on the same buffer.
    pub fn buffer_id(&self) -> u64 {
        self.slab.id
    }

    /// The identity of the pooled slab backing this payload, or `None`
    /// for unpooled wraps. Same id space as [`buffer_id`](Self::buffer_id);
    /// the slab-lifetime analysis keys recycle ordering on it.
    pub fn slab_id(&self) -> Option<u64> {
        self.is_pooled().then_some(self.slab.id)
    }

    /// True when this payload rides a pool-recycled slab (built by
    /// [`copy_pooled`](Self::copy_pooled)) rather than a plain owned
    /// vector. Size class 0 is reserved for unpooled wraps.
    pub fn is_pooled(&self) -> bool {
        self.slab.class != 0
    }

    pub fn len(&self) -> usize {
        self.slab.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slab.data.is_empty()
    }

    pub fn to_vec(&self) -> Vec<f32> {
        self.slab.data.clone()
    }

    /// Take the buffer out without copying when this is the last
    /// reference (the pooled slab is consumed, not returned); falls back
    /// to a copy when the payload is still shared.
    pub fn into_vec(self) -> Vec<f32> {
        match Arc::try_unwrap(self.slab) {
            Ok(mut slab) => std::mem::take(&mut slab.data),
            Err(shared) => shared.data.clone(),
        }
    }
}

impl Deref for Payload {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Payload").field(&self.as_slice()).finish()
    }
}

impl From<Vec<f32>> for Payload {
    fn from(v: Vec<f32>) -> Payload {
        Payload::from_vec(v)
    }
}

impl From<&[f32]> for Payload {
    fn from(v: &[f32]) -> Payload {
        Payload::from_vec(v.to_vec())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Vec<f32>> for Payload {
    fn eq(&self, other: &Vec<f32>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[f32]> for Payload {
    fn eq(&self, other: &[f32]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Payload> for Vec<f32> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// How large payloads are segmented into ring pipeline chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Payloads shorter than `2 * min_chunk_elems` are never split, so
    /// small (latency-bound) messages keep a single hop per step.
    pub min_chunk_elems: usize,
    /// Upper bound on the number of pipeline chunks per payload.
    pub max_chunks: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            min_chunk_elems: 8192,
            max_chunks: 4,
        }
    }
}

impl PipelineConfig {
    /// A configuration that never segments (the seed transport's shape).
    pub fn disabled() -> Self {
        PipelineConfig {
            min_chunk_elems: usize::MAX,
            max_chunks: 1,
        }
    }

    /// Number of pipeline segments for a payload of `len` elements.
    pub fn segments_for(&self, len: usize) -> usize {
        if self.max_chunks <= 1 || len < 2 * self.min_chunk_elems.max(1) {
            return 1;
        }
        (len / self.min_chunk_elems.max(1))
            .min(self.max_chunks)
            .max(1)
    }
}

/// Split `0..len` into `segs` near-equal contiguous ranges (the first
/// `len % segs` ranges get one extra element).
pub(crate) fn segment_ranges(
    len: usize,
    segs: usize,
) -> impl Iterator<Item = std::ops::Range<usize>> {
    let base = len / segs;
    let extra = len % segs;
    let mut start = 0usize;
    (0..segs).map(move |i| {
        let size = base + usize::from(i < extra);
        let r = start..start + size;
        start += size;
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_recycles_slabs() {
        let pool = BufferPool::new();
        let (p, hit) = Payload::copy_pooled(&pool, &[1.0, 2.0, 3.0]);
        assert!(!hit);
        assert_eq!(p, vec![1.0, 2.0, 3.0]);
        let stats = pool.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.alloc_bytes, (MIN_CLASS * 4) as u64);
        drop(p);
        // Same class → served from the shelf, no new allocation.
        let (p2, hit2) = Payload::copy_pooled(&pool, &[4.0; 10]);
        assert!(hit2);
        assert_eq!(p2.len(), 10);
        let stats = pool.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.alloc_bytes, (MIN_CLASS * 4) as u64);
    }

    #[test]
    fn filled_payload_starts_zeroed_on_a_recycled_slab() {
        let pool = BufferPool::new();
        drop(Payload::copy_pooled(&pool, &[7.0; 8]));
        let (p, hit) = Payload::fill_pooled(&pool, 6, |buf| {
            assert_eq!(buf, [0.0; 6], "a recycled slab must not leak old data");
            buf[1] = 2.0;
        });
        assert!(hit);
        assert!(p.is_pooled());
        assert_eq!(p, vec![0.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn shared_payload_is_zero_copy() {
        let pool = BufferPool::new();
        let (p, _) = Payload::copy_pooled(&pool, &[1.0, 2.0]);
        let q = p.clone();
        assert_eq!(p.as_slice().as_ptr(), q.as_slice().as_ptr());
        drop(p);
        assert_eq!(q, vec![1.0, 2.0]);
    }

    #[test]
    fn into_vec_moves_when_unique() {
        let v = vec![1.0, 2.0, 3.0];
        let ptr = v.as_ptr();
        let p = Payload::from_vec(v);
        let back = p.into_vec();
        assert_eq!(back.as_ptr(), ptr, "unique payload must move, not copy");

        let p = Payload::from_vec(vec![5.0]);
        let q = p.clone();
        assert_eq!(p.into_vec(), vec![5.0]); // shared → copies
        assert_eq!(q, vec![5.0]);
    }

    #[test]
    fn consumed_pooled_slab_is_not_shelved() {
        let pool = BufferPool::new();
        let (p, _) = Payload::copy_pooled(&pool, &[1.0; 100]);
        let _stolen = p.into_vec(); // slab drained; Drop must not shelve it
        let (_, hit) = Payload::copy_pooled(&pool, &[2.0; 100]);
        assert!(!hit, "drained slab must not be served from the pool");
    }

    #[test]
    fn pipeline_segmentation_policy() {
        let cfg = PipelineConfig {
            min_chunk_elems: 8,
            max_chunks: 4,
        };
        assert_eq!(cfg.segments_for(0), 1);
        assert_eq!(cfg.segments_for(15), 1); // below 2*min
        assert_eq!(cfg.segments_for(16), 2);
        assert_eq!(cfg.segments_for(31), 3);
        assert_eq!(cfg.segments_for(1 << 20), 4); // capped
        assert_eq!(PipelineConfig::disabled().segments_for(1 << 20), 1);
    }

    #[test]
    fn segment_ranges_tile_exactly() {
        for len in [0usize, 1, 7, 16, 31] {
            for segs in 1..=4usize {
                if len == 0 && segs > 1 {
                    continue;
                }
                let ranges: Vec<_> = segment_ranges(len, segs).collect();
                assert_eq!(ranges.len(), segs);
                assert_eq!(ranges.first().unwrap().start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }
}
