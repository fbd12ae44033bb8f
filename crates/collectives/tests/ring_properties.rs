//! Ring-collective correctness over randomly drawn worlds, groups, and
//! buffer sizes, checked against direct (non-distributed) reductions.

use axonn_collectives::{Comm, CommWorld, ProcessGroup};
use proptest::prelude::*;
use std::thread;

/// Run `body` on every rank of a fresh world; collect results.
fn spmd<T: Send + 'static>(
    world: usize,
    body: impl Fn(Comm) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let comms = CommWorld::builder(world).build();
    let handles: Vec<_> = comms
        .into_iter()
        .map(|c| {
            let body = body.clone();
            thread::spawn(move || body(c))
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// Deterministic per-rank buffer.
fn buffer(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((rank * 31 + i * 7) % 23) as f32 - 11.0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_reduce_equals_direct_sum(world in 2usize..7, len in 1usize..40) {
        let results = spmd(world, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut buf = buffer(c.rank(), len);
            c.all_reduce(&g, &mut buf);
            buf
        });
        let expect: Vec<f32> = (0..len)
            .map(|i| (0..world).map(|r| buffer(r, len)[i]).sum())
            .collect();
        for r in &results {
            for (a, b) in r.iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn all_gather_concatenates_in_group_order(world in 2usize..7, shard in 1usize..20) {
        let results = spmd(world, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            c.all_gather(&g, &buffer(c.rank(), shard))
        });
        let expect: Vec<f32> = (0..world).flat_map(|r| buffer(r, shard)).collect();
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn reduce_scatter_chunks_match_positions(world in 2usize..7, per in 1usize..12) {
        let len = per; // chunk length per rank
        let results = spmd(world, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let buf = buffer(c.rank(), len * world);
            c.reduce_scatter(&g, &buf)
        });
        for (rank, chunk) in results.iter().enumerate() {
            prop_assert_eq!(chunk.len(), len);
            for (i, v) in chunk.iter().enumerate() {
                let idx = rank * len + i;
                let expect: f32 = (0..world).map(|r| buffer(r, len * world)[idx]).sum();
                prop_assert!((v - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn subgroup_collectives_respect_membership(world in 4usize..8, len in 1usize..16) {
        // Split the world into evens and odds; each group reduces only
        // its members' data.
        let results = spmd(world, move |c| {
            let mine: Vec<usize> = (0..world).filter(|r| r % 2 == c.rank() % 2).collect();
            let g = ProcessGroup::new(mine);
            let mut buf = buffer(c.rank(), len);
            c.all_reduce(&g, &mut buf);
            buf
        });
        for (rank, r) in results.iter().enumerate() {
            let members: Vec<usize> = (0..world).filter(|x| x % 2 == rank % 2).collect();
            for (i, v) in r.iter().enumerate() {
                let expect: f32 = members.iter().map(|&m| buffer(m, len)[i]).sum();
                prop_assert!((v - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn broadcast_copies_root_buffer(world in 2usize..7, len in 1usize..20, root in 0usize..6) {
        let root = root % world;
        let results = spmd(world, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut buf = buffer(c.rank(), len);
            c.broadcast(&g, root, &mut buf);
            buf
        });
        let expect = buffer(root, len);
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    #[test]
    fn all_reduce_with_nondivisible_lengths(world in 2usize..6, len in 1usize..17) {
        // Internal padding must be invisible to callers.
        let results = spmd(world, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut buf = vec![1.0f32; len];
            c.all_reduce(&g, &mut buf);
            buf
        });
        for r in results {
            prop_assert_eq!(r.len(), len);
            prop_assert!(r.iter().all(|&v| (v - world as f32).abs() < 1e-4));
        }
    }
}

#[test]
fn async_linear_reduce_scatter_matches_blocking_bitwise() {
    let results = spmd(4, |c| {
        let g = ProcessGroup::new(vec![0, 1, 2, 3]);
        let buf = buffer(c.rank(), 48);
        let async_out = c.ireduce_scatter_linear_pooled(&g, &buf).wait();
        let blocking = c.reduce_scatter_linear(&g, &buf);
        (async_out, blocking)
    });
    for (a, b) in &results {
        assert_eq!(a, b);
    }
}

#[test]
fn collectives_are_deterministic_across_runs() {
    let run = || {
        spmd(4, |c| {
            let g = ProcessGroup::new(vec![0, 1, 2, 3]);
            let mut buf: Vec<f32> = (0..33)
                .map(|i| (i as f32 + c.rank() as f32) * 0.3)
                .collect();
            c.all_reduce(&g, &mut buf);
            buf
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn group_order_defines_ring_and_results_are_order_independent_for_sum() {
    // Summation over a ring must not depend on member order.
    let a = spmd(4, |c| {
        let g = ProcessGroup::new(vec![0, 1, 2, 3]);
        let mut buf = vec![c.rank() as f32 + 1.0];
        c.all_reduce(&g, &mut buf);
        buf[0]
    });
    let b = spmd(4, |c| {
        let g = ProcessGroup::new(vec![3, 1, 0, 2]);
        let mut buf = vec![c.rank() as f32 + 1.0];
        c.all_reduce(&g, &mut buf);
        buf[0]
    });
    assert_eq!(a, b);
    assert!(a.iter().all(|&x| x == 10.0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn linear_reduce_scatter_folds_in_group_order(world in 2usize..7, per in 1usize..12) {
        let results = spmd(world, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let buf = buffer(c.rank(), per * world);
            c.reduce_scatter_linear(&g, &buf)
        });
        for (rank, chunk) in results.iter().enumerate() {
            prop_assert_eq!(chunk.len(), per);
            for (i, v) in chunk.iter().enumerate() {
                let idx = rank * per + i;
                // The canonical fold is exactly group order — a bit-exact
                // contract, unlike the ring's rotation-dependent order.
                let mut expect: Option<f32> = None;
                for r in 0..world {
                    let x = buffer(r, per * world)[idx];
                    expect = Some(match expect { None => x, Some(a) => a + x });
                }
                prop_assert_eq!(v.to_bits(), expect.unwrap().to_bits());
            }
        }
    }

    #[test]
    fn all_reduce_linear_matches_rank_order_fold(world in 2usize..6, len in 1usize..33) {
        // Nondivisible lengths exercise the internal padding too.
        let results = spmd(world, move |c| {
            let g = ProcessGroup::new((0..world).collect());
            let mut buf = buffer(c.rank(), len);
            c.all_reduce_linear(&g, &mut buf);
            buf
        });
        for r in &results {
            prop_assert_eq!(r.len(), len);
            for (i, v) in r.iter().enumerate() {
                let mut expect: Option<f32> = None;
                for rk in 0..world {
                    let x = buffer(rk, len)[i];
                    expect = Some(match expect { None => x, Some(a) => a + x });
                }
                prop_assert_eq!(v.to_bits(), expect.unwrap().to_bits());
            }
        }
    }
}
