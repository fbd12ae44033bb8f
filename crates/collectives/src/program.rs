//! Collective algorithms as step programs, and the one executor that
//! runs them.
//!
//! Every algorithm the transport runs — ring all-gather / reduce-scatter
//! / all-reduce, the canonical-order linear reduce-scatter and
//! all-reduce, chain and binomial-tree broadcast, recursive-halving
//! reduce-scatter, recursive-doubling all-gather, halving/doubling and
//! tree all-reduce, and the barrier — is a [`Program`]: a pure function
//! of `(kind, group size, position, elements, root, pipeline)` giving a
//! work-buffer length, an ordered list of point-to-point [`Action`]s over
//! that one buffer, and the range of it that holds the result. This is
//! the paper's Assumption 1 taken literally: a collective is a sequence
//! of sends and receives per rank (Thakur, Rabenseifner and Gropp).
//!
//! [`run`] is the only code that moves a collective's data. It alone
//! composes message keys, checks hop buffers out of the slab pool,
//! splits pipelined blocks into segments, asserts incoming lengths,
//! folds with [`fold::fold_op`], and reports [`CommError`]s — for the
//! blocking calls and the asynchronous worker alike.
//!
//! Each rank's fold order is the one the hand-written loops had, so the
//! results are bit-identical to the serial oracles in
//! [`crate::reference`], and every link carries the same (key, length)
//! messages in the same order, one pooled checkout per sent segment.

use crate::comm::{lane, msg_key, CommShared, ReduceOp};
use crate::fault::CommError;
use crate::fold;
use crate::group::ProcessGroup;
use crate::pool::{segment_ranges, Payload, PipelineConfig};
use crate::sched::SchedKind;
use axonn_trace::XferStats;
use std::ops::Range;

/// Sub-keys per step (and therefore the cap on pipeline segments).
const SEG_STRIDE: u32 = 256;

/// Sub-key of pipeline `segment` within `step` (lane-relative).
#[inline]
pub(crate) fn sub(step: usize, segment: usize) -> u32 {
    debug_assert!(step < 256, "step {step} exceeds key space");
    debug_assert!(
        segment < SEG_STRIDE as usize,
        "segment {segment} exceeds key space"
    );
    step as u32 * SEG_STRIDE + segment as u32
}

/// How a received (or locally combined) block lands in the work buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Combine {
    Copy,
    Reduce(ReduceOp),
}

/// Where a send or a local combine reads its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// The work buffer.
    Work,
    /// The caller's read-only input. The linear reduce-scatter sends
    /// straight from it rather than copying it into the work buffer.
    Input,
}

/// The wire address of a message: the peer's group position and the
/// `(lane, step)` sub-key range its segments occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    pub(crate) peer: usize,
    pub(crate) lane: u32,
    pub(crate) step: usize,
}

/// One step of a rank's program. `segmented` blocks are split into the
/// program's pipeline segments, one message each; the whole-block
/// exchanges of the log-step algorithms never are.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Action {
    /// Send `range` of `src` to `to.peer`.
    Send {
        to: Slot,
        src: Src,
        range: Range<usize>,
        segmented: bool,
    },
    /// Receive from `from.peer` into `range` of the work buffer.
    Recv {
        from: Slot,
        range: Range<usize>,
        combine: Combine,
        segmented: bool,
    },
    /// Broadcast chain link: receive each segment into `range`, forward
    /// the same payload to position `to` (an `Arc` clone, so the slab
    /// is never copied on the wire) and only then copy it in, so the
    /// next hop overlaps this rank's copy.
    Relay {
        from: Slot,
        to: Option<usize>,
        range: Range<usize>,
        segmented: bool,
    },
    /// Combine `from` (in `src`) into `to` of the work buffer without a
    /// message: the linear reduce-scatter's own chunk.
    Local {
        src: Src,
        from: Range<usize>,
        to: Range<usize>,
        combine: Combine,
    },
}

/// One rank's step program for one collective.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Program {
    pub(crate) kind: SchedKind,
    pub(crate) g: usize,
    pub(crate) elems: usize,
    /// Length of the work buffer the actions address.
    pub(crate) work_len: usize,
    /// Where the input starts in a fresh work buffer; `None` when the
    /// program reads its input through [`Src::Input`] instead.
    pub(crate) input_at: Option<usize>,
    /// Fill for work elements the input does not cover: the identity of
    /// the reduction operator, so padding never changes a result.
    pub(crate) pad: f32,
    /// Pipeline segments per segmented block (1 when nothing is).
    pub(crate) segments: usize,
    pub(crate) actions: Vec<Action>,
    /// The range of the work buffer that holds the result.
    pub(crate) result: Range<usize>,
    /// Set when a reduce-scatter's length does not divide by the group
    /// size: the op name of the error [`run`] returns before any message
    /// moves.
    pub(crate) indivisible: Option<&'static str>,
}

fn region(i: usize, chunk: usize) -> Range<usize> {
    i * chunk..(i + 1) * chunk
}

fn send(peer: usize, lane: u32, step: usize, range: Range<usize>, segmented: bool) -> Action {
    Action::Send {
        to: Slot { peer, lane, step },
        src: Src::Work,
        range,
        segmented,
    }
}

fn recv(
    peer: usize,
    lane: u32,
    step: usize,
    range: Range<usize>,
    combine: Combine,
    segmented: bool,
) -> Action {
    Action::Recv {
        from: Slot { peer, lane, step },
        range,
        combine,
        segmented,
    }
}

impl Program {
    /// The program position `pos` of a `g`-member group runs for a
    /// collective of `kind` over `elems` contributed elements (the shard
    /// length for all-gathers, the whole buffer otherwise).
    pub(crate) fn new(
        kind: SchedKind,
        g: usize,
        pos: usize,
        elems: usize,
        root: Option<usize>,
        op: ReduceOp,
        pipeline: &PipelineConfig,
    ) -> Program {
        use SchedKind as K;
        let pad = match op {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f32::NEG_INFINITY,
        };
        let mut p = Program {
            kind,
            g,
            elems,
            work_len: elems,
            input_at: Some(0),
            pad,
            segments: 1,
            actions: Vec::new(),
            result: 0..elems,
            indivisible: None,
        };
        if matches!(
            kind,
            K::ReduceScatter | K::ReduceScatterRh | K::ReduceScatterLinear
        ) && !elems.is_multiple_of(g)
        {
            p.indivisible = Some(match kind {
                K::ReduceScatterLinear => "reduce_scatter_linear",
                _ => "reduce_scatter",
            });
            p.work_len = 0;
            p.input_at = None;
            p.result = 0..0;
            return p;
        }
        // All-reduces pad to a multiple of the group size; for the
        // reduce-scatters `chunk * g == elems`.
        let chunk = elems.div_ceil(g);
        let padded = chunk * g;
        let a = &mut p.actions;
        // The block length pipeline segmentation splits, if any.
        let block = match kind {
            K::AllGather | K::AllGatherRd => {
                p.work_len = elems * g;
                p.input_at = Some(pos * elems);
                p.result = 0..elems * g;
                if kind == K::AllGather {
                    ring_ag(a, g, pos, elems);
                    Some(elems)
                } else {
                    doubling_ag(a, g, pos, elems);
                    None
                }
            }
            K::ReduceScatter => {
                p.result = region(pos, chunk);
                ring_rs(a, g, pos, chunk, op);
                Some(chunk)
            }
            K::ReduceScatterRh => {
                p.result = region(pos, chunk);
                halving_rs(a, g, pos, chunk, op);
                None
            }
            K::ReduceScatterLinear => {
                p.work_len = chunk;
                p.input_at = None;
                p.result = 0..chunk;
                linear_rs(a, g, pos, chunk, Src::Input, 0..chunk);
                Some(chunk)
            }
            K::AllReduce | K::Barrier => {
                p.work_len = padded;
                ring_rs(a, g, pos, chunk, op);
                ring_ag(a, g, pos, chunk);
                Some(chunk)
            }
            K::AllReduceLinear => {
                // The folded chunk accumulates past the padded buffer,
                // then moves to this rank's region for the gather.
                let acc = padded..padded + chunk;
                p.work_len = padded + chunk;
                linear_rs(a, g, pos, chunk, Src::Work, acc.clone());
                a.push(Action::Local {
                    src: Src::Work,
                    from: acc,
                    to: region(pos, chunk),
                    combine: Combine::Copy,
                });
                ring_ag(a, g, pos, chunk);
                Some(chunk)
            }
            K::AllReduceRhd => {
                p.work_len = padded;
                halving_rs(a, g, pos, chunk, op);
                doubling_ag(a, g, pos, chunk);
                None
            }
            K::AllReduceTree => {
                tree_reduce(a, g, pos, elems, op);
                tree_bcast(a, g, pos, 0, elems);
                None
            }
            K::Broadcast => {
                chain_bcast(a, g, pos, root.unwrap_or(0), elems);
                Some(elems)
            }
            K::BroadcastTree => {
                tree_bcast(a, g, pos, root.unwrap_or(0), elems);
                None
            }
        };
        p.segments = block.map_or(1, |b| pipeline.segments_for(b).min(SEG_STRIDE as usize));
        p
    }

    /// Returns the divisibility error of an indivisible reduce-scatter.
    pub(crate) fn check(&self, shared: &CommShared) -> Result<(), CommError> {
        let Some(op) = self.indivisible else {
            return Ok(());
        };
        shared.transport.note_error();
        Err(CommError::InvalidBuffer {
            op,
            detail: format!(
                "length {} not divisible by group size {}",
                self.elems, self.g
            ),
        })
    }

    /// A fresh work buffer: `input` at `input_at`, padding elsewhere.
    fn work(&self, input: &[f32]) -> Vec<f32> {
        let mut work = Vec::with_capacity(self.work_len);
        if let Some(at) = self.input_at {
            work.resize(at, self.pad);
            work.extend_from_slice(input);
        }
        work.resize(self.work_len, self.pad);
        work
    }

    /// The `(segment, range)` messages `range` travels as.
    pub(crate) fn split(
        &self,
        range: &Range<usize>,
        segmented: bool,
    ) -> impl Iterator<Item = (usize, Range<usize>)> {
        let base = range.start;
        let segs = if segmented { self.segments } else { 1 };
        segment_ranges(range.len(), segs)
            .map(move |r| base + r.start..base + r.end)
            .enumerate()
    }
}

/// Ring reduce-scatter over regions of `chunk` elements: after `g-1`
/// steps position `pos` holds region `pos`, folded around the ring.
fn ring_rs(a: &mut Vec<Action>, g: usize, pos: usize, chunk: usize, op: ReduceOp) {
    let (next, prev) = ((pos + 1) % g, (pos + g - 1) % g);
    for s in 0..g - 1 {
        let send_c = (pos + 2 * g - s - 1) % g;
        a.push(send(next, lane::RS, s, region(send_c, chunk), true));
        let recv_c = (pos + 2 * g - s - 2) % g;
        let fold = Combine::Reduce(op);
        a.push(recv(prev, lane::RS, s, region(recv_c, chunk), fold, true));
    }
}

/// Ring all-gather: starting from region `pos`, each step forwards the
/// region received last and copies in the predecessor's.
fn ring_ag(a: &mut Vec<Action>, g: usize, pos: usize, chunk: usize) {
    let (next, prev) = ((pos + 1) % g, (pos + g - 1) % g);
    for s in 0..g - 1 {
        let send_c = (pos + g - s) % g;
        a.push(send(next, lane::AG, s, region(send_c, chunk), true));
        let recv_c = (pos + g - s - 1) % g;
        a.push(recv(
            prev,
            lane::AG,
            s,
            region(recv_c, chunk),
            Combine::Copy,
            true,
        ));
    }
}

/// Direct-exchange reduce-scatter with a *canonical* fold order: every
/// member sends its region `o` straight to position `o`, which folds the
/// `g` contributions into `acc` in fixed group-position order
/// `((c_0 + c_1) + c_2) + …`. The ring folds in a rotation of the group
/// order that differs per owned chunk, so its bits depend on how tensors
/// are packed into the buffer; the gradient bucketizer relies on this
/// layout independence. Per-rank volume matches the ring's.
fn linear_rs(a: &mut Vec<Action>, g: usize, pos: usize, chunk: usize, src: Src, acc: Range<usize>) {
    // All sends first (the transport never blocks on send), then
    // receive in group-position order so every owner folds the same way
    // whatever the arrival order.
    for o in (0..g).filter(|&o| o != pos) {
        a.push(Action::Send {
            to: Slot {
                peer: o,
                lane: lane::LRS,
                step: 0,
            },
            src,
            range: region(o, chunk),
            segmented: true,
        });
    }
    for p in 0..g {
        let combine = if p == 0 {
            Combine::Copy
        } else {
            Combine::Reduce(ReduceOp::Sum)
        };
        a.push(if p == pos {
            Action::Local {
                src,
                from: region(pos, chunk),
                to: acc.clone(),
                combine,
            }
        } else {
            recv(p, lane::LRS, 0, acc.clone(), combine, true)
        });
    }
}

/// Recursive halving: at step `s` the window of regions this position
/// still owns is halved — it sends the half its partner (`window/2`
/// positions away) keeps and folds the partner's contribution into its
/// own half as `own = op(own, incoming)`. `⌈log2 g⌉` steps at the ring's
/// volume; power-of-two groups only.
fn halving_rs(a: &mut Vec<Action>, g: usize, pos: usize, chunk: usize, op: ReduceOp) {
    assert!(
        g.is_power_of_two(),
        "recursive halving needs a power-of-two group"
    );
    let (mut lo, mut span, mut s) = (0usize, g, 0usize);
    while span > 1 {
        let half = span / 2;
        let mid = lo + half;
        let in_lower = pos < mid;
        let partner = if in_lower { pos + half } else { pos - half };
        let (keep, give) = if in_lower {
            (lo * chunk..mid * chunk, mid * chunk..(lo + span) * chunk)
        } else {
            (mid * chunk..(lo + span) * chunk, lo * chunk..mid * chunk)
        };
        a.push(send(partner, lane::RHD, s, give, false));
        a.push(recv(
            partner,
            lane::RHD,
            s,
            keep,
            Combine::Reduce(op),
            false,
        ));
        if !in_lower {
            lo = mid;
        }
        span = half;
        s += 1;
    }
}

/// Recursive doubling: at step `s` (distance `d = 2^s`) each position
/// swaps its aligned block of `d` regions with position `pos XOR d`.
/// `⌈log2 g⌉` steps at the ring's volume; power-of-two groups only.
fn doubling_ag(a: &mut Vec<Action>, g: usize, pos: usize, chunk: usize) {
    assert!(
        g.is_power_of_two(),
        "recursive doubling needs a power-of-two group"
    );
    let (mut d, mut s) = (1usize, 0usize);
    while d < g {
        let base = pos & !(d - 1);
        let theirs = base ^ d;
        a.push(send(
            pos ^ d,
            lane::RDAG,
            s,
            base * chunk..(base + d) * chunk,
            false,
        ));
        let block = theirs * chunk..(theirs + d) * chunk;
        a.push(recv(pos ^ d, lane::RDAG, s, block, Combine::Copy, false));
        d <<= 1;
        s += 1;
    }
}

/// Binomial-tree reduce to position 0: at step `s` (mask `2^s`) a
/// position with that bit set hands its whole buffer to `pos - mask`
/// and leaves; the others fold `pos + mask`'s buffer, when it exists.
fn tree_reduce(a: &mut Vec<Action>, g: usize, pos: usize, n: usize, op: ReduceOp) {
    let (mut mask, mut s) = (1usize, 0usize);
    while mask < g {
        if pos & mask != 0 {
            a.push(send(pos - mask, lane::TREE_UP, s, 0..n, false));
            return;
        }
        if pos + mask < g {
            a.push(recv(
                pos + mask,
                lane::TREE_UP,
                s,
                0..n,
                Combine::Reduce(op),
                false,
            ));
        }
        mask <<= 1;
        s += 1;
    }
}

/// Binomial-tree broadcast from `root`: with positions renumbered so the
/// root is virtual rank 0, virtual rank `v` receives from
/// `v - 2^⌊log2 v⌋` at step `⌊log2 v⌋`, then sends to `v + 2^k` for
/// each higher step `k` while that child exists.
fn tree_bcast(a: &mut Vec<Action>, g: usize, pos: usize, root: usize, n: usize) {
    let v = (pos + g - root) % g;
    let mut k = 0;
    if v > 0 {
        let s = v.ilog2() as usize;
        let parent = (v - (1 << s) + root) % g;
        a.push(recv(parent, lane::TREE_DOWN, s, 0..n, Combine::Copy, false));
        k = s + 1;
    }
    while v + (1 << k) < g {
        let child = (v + (1 << k) + root) % g;
        a.push(send(child, lane::TREE_DOWN, k, 0..n, false));
        k += 1;
    }
}

/// Pipelined chain broadcast from `root` around the ring; the position
/// at distance `g-1` from the root is the tail and forwards nothing.
fn chain_bcast(a: &mut Vec<Action>, g: usize, pos: usize, root: usize, n: usize) {
    if g == 1 {
        return;
    }
    let dist = (pos + g - root) % g;
    let (next, prev) = ((pos + 1) % g, (pos + g - 1) % g);
    a.push(if dist == 0 {
        send(next, lane::BCAST, 0, 0..n, true)
    } else {
        Action::Relay {
            from: Slot {
                peer: prev,
                lane: lane::BCAST,
                step: 0,
            },
            to: (dist + 1 < g).then_some(next),
            range: 0..n,
            segmented: true,
        }
    });
}

/// Per-collective transport statistics gathered by the executor: how the
/// payload was segmented and how the slab pool behaved. Kept local to
/// the operation (not read back from the world-wide pool) so concurrent
/// collectives on the compute and comm-worker threads don't smear each
/// other's numbers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HopStats {
    pub(crate) chunks: u32,
    pub(crate) alloc_bytes: u64,
    pub(crate) pool_hits: u64,
    pub(crate) pool_misses: u64,
}

impl HopStats {
    pub(crate) fn xfer(&self) -> XferStats {
        XferStats {
            chunks: self.chunks,
            alloc_bytes: self.alloc_bytes,
            pool_hits: self.pool_hits,
            pool_misses: self.pool_misses,
        }
    }
}

/// Copy `src` into a pooled slab, tallying the checkout into `stats`.
fn pooled(shared: &CommShared, src: &[f32], stats: &mut HopStats) -> Payload {
    let (payload, hit) = Payload::copy_pooled(shared.transport.pool(), src);
    if hit {
        stats.pool_hits += 1;
    } else {
        stats.pool_misses += 1;
        stats.alloc_bytes += (src.len() * 4) as u64;
    }
    payload
}

fn combine_into(combine: Combine, dst: &mut [f32], src: &[f32]) {
    match combine {
        Combine::Copy => dst.copy_from_slice(src),
        Combine::Reduce(op) => fold::fold_op(op, dst, src),
    }
}

/// Disjoint `(dst, src)` views of two non-overlapping ranges of `work`.
fn split_pair(work: &mut [f32], dst: Range<usize>, src: Range<usize>) -> (&mut [f32], &[f32]) {
    if src.end <= dst.start {
        let (lo, hi) = work.split_at_mut(dst.start);
        (&mut hi[..dst.len()], &lo[src])
    } else {
        let (lo, hi) = work.split_at_mut(src.start);
        (&mut lo[dst], &hi[..src.len()])
    }
}

/// Run `program` as `rank` of `group` for the collective with issue
/// sequence `seq`, over `work` (`program.work_len` elements). `input` is
/// the caller's buffer, read by [`Src::Input`] actions only.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    program: &Program,
    input: &[f32],
    work: &mut [f32],
    stats: &mut HopStats,
) -> Result<(), CommError> {
    program.check(shared)?;
    assert_eq!(work.len(), program.work_len, "work buffer length");
    stats.chunks = stats.chunks.max(program.segments as u32);
    let transport = &shared.transport;
    let gk = group.key();
    let key = |slot: &Slot, segment: usize| msg_key(gk, seq, slot.lane + sub(slot.step, segment));
    let mismatch = || format!("{} length mismatch", program.kind);
    for action in &program.actions {
        match action {
            Action::Send {
                to,
                src,
                range,
                segmented,
            } => {
                for (j, r) in program.split(range, *segmented) {
                    let block = match src {
                        Src::Work => &work[r],
                        Src::Input => &input[r],
                    };
                    let payload = pooled(shared, block, stats);
                    transport.send(rank, group.rank_at(to.peer), key(to, j), payload);
                }
            }
            Action::Recv {
                from,
                range,
                combine,
                segmented,
            } => {
                for (j, r) in program.split(range, *segmented) {
                    let peer = group.rank_at(from.peer);
                    let data = transport.recv_result(rank, peer, key(from, j))?;
                    assert_eq!(data.len(), r.len(), "{}", mismatch());
                    combine_into(*combine, &mut work[r], &data);
                }
            }
            Action::Relay {
                from,
                to,
                range,
                segmented,
            } => {
                for (j, r) in program.split(range, *segmented) {
                    let k = key(from, j);
                    let data = transport.recv_result(rank, group.rank_at(from.peer), k)?;
                    if let Some(to) = to {
                        transport.send(rank, group.rank_at(*to), k, data.clone());
                    }
                    assert_eq!(data.len(), r.len(), "{}", mismatch());
                    work[r].copy_from_slice(&data);
                }
            }
            Action::Local {
                src,
                from,
                to,
                combine,
            } => {
                let (dst, block) = match src {
                    Src::Input => (&mut work[to.clone()], &input[from.clone()]),
                    Src::Work => split_pair(work, to.clone(), from.clone()),
                };
                combine_into(*combine, dst, block);
            }
        }
    }
    Ok(())
}

/// Run `program` on the read-only `input` and return its result.
pub(crate) fn run_on(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    program: &Program,
    input: &[f32],
    stats: &mut HopStats,
) -> Result<Vec<f32>, CommError> {
    let mut work = program.work(input);
    run(shared, rank, group, seq, program, input, &mut work, stats)?;
    Ok(if program.result == (0..work.len()) {
        work
    } else {
        work[program.result.clone()].to_vec()
    })
}

/// Run `program` in place on `buf`, which holds the input and receives
/// the result: directly when the work buffer is `buf` itself, else
/// through a padded copy.
pub(crate) fn run_in_place(
    shared: &CommShared,
    rank: usize,
    group: &ProcessGroup,
    seq: u64,
    program: &Program,
    buf: &mut [f32],
    stats: &mut HopStats,
) -> Result<(), CommError> {
    if program.input_at == Some(0) && program.work_len == buf.len() {
        return run(shared, rank, group, seq, program, &[], buf, stats);
    }
    let mut work = program.work(buf);
    run(shared, rank, group, seq, program, &[], &mut work, stats)?;
    buf.copy_from_slice(&work[program.result.clone()]);
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Static checks on the step programs themselves: they build no
    //! world and start no thread, so they also run under miri (on a
    //! smaller sweep).

    use super::*;
    use crate::cost::{CostModel, RingCostModel};
    use SchedKind as K;

    /// Every kind legal on a `g`-member group.
    fn legal_kinds(g: usize) -> Vec<SchedKind> {
        let mut kinds = vec![
            K::AllGather,
            K::ReduceScatter,
            K::ReduceScatterLinear,
            K::AllReduce,
            K::AllReduceLinear,
            K::AllReduceTree,
            K::Broadcast,
            K::BroadcastTree,
            K::Barrier,
        ];
        if g.is_power_of_two() {
            kinds.extend([K::AllGatherRd, K::ReduceScatterRh, K::AllReduceRhd]);
        }
        kinds
    }

    /// One message: (from position, to position, sub-key, length).
    type Msg = (usize, usize, u32, usize);

    /// Every message the group's programs send and receive, plus the
    /// bytes each position sends. Also checks every range lies inside
    /// the buffer it addresses.
    fn messages(programs: &[Program]) -> (Vec<Msg>, Vec<Msg>, Vec<usize>) {
        let (mut sends, mut recvs) = (Vec::new(), Vec::new());
        let mut sent = vec![0; programs.len()];
        for (pos, p) in programs.iter().enumerate() {
            let fits = |src: Src, r: &Range<usize>| {
                let len = match src {
                    Src::Work => p.work_len,
                    Src::Input => p.elems,
                };
                assert!(r.end <= len, "{} pos {pos}: {r:?} past {len}", p.kind);
            };
            let key = |slot: &Slot, j| slot.lane + sub(slot.step, j);
            for action in &p.actions {
                match action {
                    Action::Send {
                        to,
                        src,
                        range,
                        segmented,
                    } => {
                        fits(*src, range);
                        for (j, r) in p.split(range, *segmented) {
                            sends.push((pos, to.peer, key(to, j), r.len()));
                            sent[pos] += r.len() * 4;
                        }
                    }
                    Action::Recv {
                        from,
                        range,
                        segmented,
                        ..
                    } => {
                        fits(Src::Work, range);
                        for (j, r) in p.split(range, *segmented) {
                            recvs.push((from.peer, pos, key(from, j), r.len()));
                        }
                    }
                    Action::Relay {
                        from,
                        to,
                        range,
                        segmented,
                    } => {
                        fits(Src::Work, range);
                        for (j, r) in p.split(range, *segmented) {
                            recvs.push((from.peer, pos, key(from, j), r.len()));
                            if let Some(to) = to {
                                sends.push((pos, *to, key(from, j), r.len()));
                                sent[pos] += r.len() * 4;
                            }
                        }
                    }
                    Action::Local { src, from, to, .. } => {
                        fits(*src, from);
                        fits(Src::Work, to);
                    }
                }
            }
            assert!(p.result.end <= p.work_len, "{} result range", p.kind);
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        (sends, recvs, sent)
    }

    /// Sends pair one-to-one with receives for every legal kind, group
    /// size, length, segment count and root; and where the cost model
    /// charges a per-rank volume, the busiest rank sends exactly it.
    #[test]
    fn sends_pair_with_receives_and_volumes_match_the_cost_model() {
        let (max_g, max_len, max_segs) = if cfg!(miri) { (4, 6, 2) } else { (9, 40, 4) };
        let model = RingCostModel::new(1.0, 1.0);
        for g in 1..=max_g {
            for kind in legal_kinds(g) {
                let roots: Vec<Option<usize>> = match kind {
                    K::Broadcast | K::BroadcastTree => (0..g).map(Some).collect(),
                    _ => vec![None],
                };
                let lens = if kind == K::Barrier {
                    1..=1
                } else {
                    1..=max_len
                };
                for (elems, segs, root) in lens
                    .flat_map(|n| (1..=max_segs).map(move |s| (n, s)))
                    .flat_map(|(n, s)| roots.iter().map(move |&r| (n, s, r)))
                {
                    let pipeline = PipelineConfig {
                        min_chunk_elems: 1,
                        max_chunks: segs,
                    };
                    let programs: Vec<Program> = (0..g)
                        .map(|pos| {
                            Program::new(kind, g, pos, elems, root, ReduceOp::Sum, &pipeline)
                        })
                        .collect();
                    let case = format!("{kind} g={g} n={elems} segs={segs} root={root:?}");
                    let (sends, recvs, sent) = messages(&programs);
                    assert_eq!(sends, recvs, "{case}");
                    let priced = matches!(
                        kind,
                        K::AllGather
                            | K::ReduceScatter
                            | K::ReduceScatterLinear
                            | K::AllReduce
                            | K::AllReduceLinear
                            | K::ReduceScatterRh
                            | K::AllGatherRd
                            | K::AllReduceRhd
                            | K::Broadcast
                    );
                    let divisible = elems.is_multiple_of(g) || kind == K::AllGather;
                    if priced && divisible && g > 1 {
                        let bytes = kind.charged_bytes(elems, g) as f64;
                        let volume = model.collective_seconds(kind.collective_kind(), g, bytes);
                        let busiest = *sent.iter().max().unwrap() as f64;
                        assert!(
                            (busiest - volume).abs() < 1e-6,
                            "{case}: {busiest} vs {volume}"
                        );
                    }
                }
            }
        }
    }

    /// Reduce-scatters reject an indivisible buffer before any message
    /// moves; all-reduces pad it instead.
    #[test]
    fn indivisible_reduce_scatters_move_nothing() {
        let pipeline = PipelineConfig::default();
        for kind in [K::ReduceScatter, K::ReduceScatterRh, K::ReduceScatterLinear] {
            let p = Program::new(kind, 4, 1, 7, None, ReduceOp::Sum, &pipeline);
            assert!(p.indivisible.is_some() && p.actions.is_empty(), "{kind}");
        }
        let p = Program::new(K::AllReduce, 4, 1, 7, None, ReduceOp::Max, &pipeline);
        assert_eq!((p.work_len, p.pad, p.result), (8, f32::NEG_INFINITY, 0..7));
    }
}
