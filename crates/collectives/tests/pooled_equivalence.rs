//! The pooled, chunk-pipelined rings must be *bit-identical* to the
//! seed's naive reference implementations (kept in
//! `axonn_collectives::reference`) for every group size, payload length
//! (including indivisible and size-1) and segmentation policy — pooling
//! and pipelining are transport optimizations, never numerics changes.
//! Also covers the typed indivisible-length error, pool recycling, and
//! the fault path through a dropped pipeline chunk.

use std::time::Duration;

use axonn_collectives::{
    AlgoPolicy, Comm, CommError, CommWorld, DropRule, FaultConfig, PipelineConfig, ProcessGroup,
};
use proptest::prelude::*;
use std::thread;

/// Run `body` on every rank of a pre-built world; collect results.
fn spmd_world<T: Send + 'static>(
    comms: Vec<Comm>,
    body: impl Fn(Comm) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let handles: Vec<_> = comms
        .into_iter()
        .map(|c| {
            let body = body.clone();
            thread::spawn(move || body(c))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// A world whose transport is forced to segment payloads of `min`
/// elements or more into up to `chunks` pipeline chunks.
fn pipelined_world(size: usize, min: usize, chunks: usize) -> Vec<Comm> {
    // Pin the ring algorithms: this suite proves the pooled *ring*
    // transport against the naive reference rings, so message-size
    // algorithm selection must not reroute small payloads to the
    // tree/halving paths (those have their own oracle suite in
    // `algo_equivalence`).
    CommWorld::builder(size)
        .algo(AlgoPolicy::ring_only())
        .pipeline(PipelineConfig {
            min_chunk_elems: min,
            max_chunks: chunks,
        })
        .build()
}

/// Deterministic per-rank buffer with irrational-ish values so float
/// addition order differences would actually show up bitwise.
fn buffer(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((rank * 131 + i * 17) % 97) as f32).sin() * 3.7)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn all_gather_bitwise_matches_reference(
        world in 2usize..6,
        shard in 1usize..48,
        min in 1usize..16,
        chunks in 1usize..5,
    ) {
        let comms = pipelined_world(world, min, chunks);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let pooled = c.all_gather(&g, &buffer(c.rank(), shard));
            let reference = c.reference_all_gather(&g, &buffer(c.rank(), shard));
            (pooled, reference)
        });
        for (pooled, reference) in results {
            // Bitwise: all-gather only moves data, any mismatch is a bug.
            prop_assert_eq!(pooled, reference);
        }
    }

    #[test]
    fn reduce_scatter_bitwise_matches_reference(
        world in 2usize..6,
        per in 1usize..24,
        min in 1usize..16,
        chunks in 1usize..5,
    ) {
        let comms = pipelined_world(world, min, chunks);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let buf = buffer(c.rank(), per * world);
            let pooled = c.reduce_scatter(&g, &buf);
            let reference = c.reference_reduce_scatter(&g, &buf);
            (pooled, reference)
        });
        for (pooled, reference) in results {
            // Segmentation preserves the elementwise combine pairing, so
            // float sums must agree bit-for-bit, not just approximately.
            prop_assert_eq!(pooled.len(), reference.len());
            for (a, b) in pooled.iter().zip(reference.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn all_reduce_bitwise_matches_reference(
        world in 2usize..6,
        // Deliberately includes lengths indivisible by the world size
        // and the degenerate size-1 payload.
        len in 1usize..50,
        min in 1usize..16,
        chunks in 1usize..5,
    ) {
        let comms = pipelined_world(world, min, chunks);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut pooled = buffer(c.rank(), len);
            c.all_reduce(&g, &mut pooled);
            let mut reference = buffer(c.rank(), len);
            c.reference_all_reduce(&g, &mut reference);
            (pooled, reference)
        });
        for (pooled, reference) in results {
            for (a, b) in pooled.iter().zip(reference.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} vs {}", a, b);
            }
        }
    }

    #[test]
    fn broadcast_chain_matches_reference_star(
        world in 2usize..6,
        len in 1usize..64,
        root in 0usize..6,
        min in 1usize..16,
        chunks in 1usize..5,
    ) {
        let root = root % world;
        let comms = pipelined_world(world, min, chunks);
        let results = spmd_world(comms, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut chained = buffer(root, len);
            c.broadcast(&g, root, &mut chained);
            let mut starred = buffer(root, len);
            c.reference_broadcast(&g, root, &mut starred);
            (chained, starred)
        });
        let expect = buffer(root, len);
        for (chained, starred) in results {
            prop_assert_eq!(&chained, &expect);
            prop_assert_eq!(&chained, &starred);
        }
    }
}

#[test]
fn indivisible_reduce_scatter_is_a_typed_error() {
    let comms = CommWorld::builder(3).build();
    let errs = spmd_world(comms, |c| {
        let g = ProcessGroup::new(vec![0, 1, 2]);
        // 3 ranks, 7 elements: must be rejected before any message moves.
        c.try_reduce_scatter(&g, &buffer(c.rank(), 7)).unwrap_err()
    });
    for e in errs {
        match e {
            CommError::InvalidBuffer { op, detail } => {
                assert_eq!(op, "reduce_scatter");
                assert!(detail.contains('7') && detail.contains('3'), "{detail}");
            }
            other => panic!("expected InvalidBuffer, got {other:?}"),
        }
    }
}

#[test]
fn repeated_all_reduce_recycles_pooled_slabs() {
    let comms = pipelined_world(4, 256, 4);
    let stats = spmd_world(comms, |c| {
        let g = ProcessGroup::new(vec![0, 1, 2, 3]);
        let warm = |c: &Comm| {
            let mut buf = buffer(c.rank(), 8192);
            c.all_reduce(&g, &mut buf);
        };
        warm(&c);
        c.barrier(&g);
        let s1 = c.pool_stats();
        for _ in 0..5 {
            warm(&c);
        }
        c.barrier(&g);
        (s1, c.pool_stats())
    });
    // The pool is world-wide, so every rank observes the same counters
    // (up to barrier ordering): after warmup, steady-state traffic must
    // be dominated by recycled slabs, not fresh allocations.
    let (s1, s2) = stats[0];
    let new_hits = s2.hits - s1.hits;
    let new_misses = s2.misses - s1.misses;
    assert!(
        new_hits > new_misses,
        "steady state must be hit-dominated: {new_hits} hits vs {new_misses} misses"
    );
    assert!(
        s2.alloc_bytes < 2 * s1.alloc_bytes,
        "five more all-reduces must not double cold-start allocation \
         ({} -> {} bytes)",
        s1.alloc_bytes,
        s2.alloc_bytes
    );
}

#[test]
fn dropped_pipeline_chunk_surfaces_peer_lost() {
    // Force 4 segments per ring step, then drop a *middle* segment on
    // the 0 -> 1 link: rank 1 must report PeerLost quickly instead of
    // hanging on the missing chunk.
    let comms = CommWorld::builder(2)
        .algo(AlgoPolicy::ring_only())
        .pipeline(PipelineConfig {
            min_chunk_elems: 1024,
            max_chunks: 4,
        })
        .faults(
            FaultConfig::none()
                .with_drop(DropRule {
                    src: 0,
                    dst: 1,
                    nth: 2,
                })
                .with_recv_timeout(Duration::from_millis(100)),
        )
        .build();
    let results = spmd_world(comms, |c| {
        let g = ProcessGroup::new(vec![0, 1]);
        let mut buf = buffer(c.rank(), 32_768);
        c.try_all_reduce(&g, &mut buf)
    });
    let rank1 = results[1].as_ref().expect_err("rank 1 lost a chunk");
    match rank1 {
        CommError::PeerLost { peer: 0, .. } => {}
        other => panic!("expected PeerLost from rank 0, got {other:?}"),
    }
    // Rank 0 either finished its sends and timed out waiting for rank 1
    // or saw the loss itself — the world must terminate either way.
    if let Err(e) = &results[0] {
        assert!(matches!(e, CommError::PeerLost { .. }), "{e:?}");
    }
}
