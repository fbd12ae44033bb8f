//! Workspace-level sentinel for the collective transport: every
//! algorithm `AlgoPolicy` can select, forced through
//! `WorldBuilder::algo` on a 4-rank world, checked against the serial
//! result. The bitwise suite (each algorithm's own fold order, every
//! legal group size) is `crates/collectives/tests/algo_equivalence.rs`.
//! Also: a training step's bits do not depend on where a rank's async
//! collectives run (comm worker or inline at issue).

use axonn::collectives::{
    AgAlgo, AlgoPolicy, ArAlgo, BcastAlgo, Comm, CommWorld, ProcessGroup, RsAlgo, SchedEvent,
    SchedKind,
};
use axonn::engine::{GridTopology, OverlapConfig, TransformerStack};
use axonn::exec::run_spmd_on;

const WORLD: usize = 4;

/// Deterministic per-rank buffer whose values do not sum exactly, so a
/// fold that drops or repeats a rank shows up.
fn input(rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| (((rank * 131 + i * 17) % 97) as f32).sin() * 3.7)
        .collect()
}

/// Run `body` over the whole world on ranks pinned to `policy`. Returns
/// the per-rank results and the collective kinds rank 0 recorded.
fn forced<T: Send + 'static>(
    policy: AlgoPolicy,
    body: impl Fn(&Comm, &ProcessGroup) -> T + Send + Sync + 'static,
) -> (Vec<T>, Vec<SchedKind>) {
    let comms = CommWorld::builder(WORLD)
        .algo(policy)
        .record_schedule(true)
        .build();
    let probe = comms[0].clone();
    let results = run_spmd_on(comms, move |comm| {
        body(&comm, &ProcessGroup::new((0..WORLD).collect()))
    });
    let kinds = probe.schedule_streams().expect("recording was forced on")[0]
        .iter()
        .filter_map(|e| match e {
            SchedEvent::Issue(op) => Some(op.kind),
            _ => None,
        })
        .collect();
    (results, kinds)
}

/// Assert `got` equals the rank-order fold `((x0 + x1) + x2) + x3` of
/// the inputs at `offset..`, within 1e-5 of the summed magnitudes.
fn assert_rank_order_sum(got: &[f32], len: usize, offset: usize, what: &str) {
    let inputs: Vec<Vec<f32>> = (0..WORLD).map(|r| input(r, len)).collect();
    for (i, &g) in got.iter().enumerate() {
        let terms = inputs.iter().map(|x| x[offset + i]);
        let want = terms.clone().reduce(|a, b| a + b).expect("non-empty world");
        let scale: f32 = terms.map(f32::abs).sum();
        assert!(
            (g - want).abs() <= 1e-5 * scale,
            "{what}: element {} is {g}, rank-order fold {want}",
            offset + i
        );
    }
}

#[test]
fn every_selectable_algorithm_matches_the_serial_result() {
    let base = AlgoPolicy::default();
    // Not a multiple of the world, so the padded paths run too.
    let len = 37;
    for (algo, kind) in [
        (ArAlgo::Ring, SchedKind::AllReduce),
        (ArAlgo::Rhd, SchedKind::AllReduceRhd),
        (ArAlgo::Tree, SchedKind::AllReduceTree),
    ] {
        let policy = AlgoPolicy {
            force_ar: Some(algo),
            ..base
        };
        let (out, kinds) = forced(policy, move |c, g| {
            let mut buf = input(c.rank(), len);
            c.all_reduce(g, &mut buf);
            buf
        });
        assert_eq!(kinds, [kind], "{algo:?} all-reduce ran as {kinds:?}");
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got.len(), len);
            assert_rank_order_sum(got, len, 0, &format!("{algo:?} all-reduce rank {rank}"));
        }
    }

    let per = 9;
    for (algo, kind) in [
        (RsAlgo::Ring, SchedKind::ReduceScatter),
        (RsAlgo::Rh, SchedKind::ReduceScatterRh),
    ] {
        let policy = AlgoPolicy {
            force_rs: Some(algo),
            ..base
        };
        let (out, kinds) = forced(policy, move |c, g| {
            c.reduce_scatter(g, &input(c.rank(), per * WORLD))
        });
        assert_eq!(kinds, [kind], "{algo:?} reduce-scatter ran as {kinds:?}");
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got.len(), per);
            let what = format!("{algo:?} reduce-scatter rank {rank}");
            assert_rank_order_sum(got, per * WORLD, rank * per, &what);
        }
    }

    let gathered: Vec<f32> = (0..WORLD).flat_map(|r| input(r, per)).collect();
    for (algo, kind) in [
        (AgAlgo::Ring, SchedKind::AllGather),
        (AgAlgo::Rd, SchedKind::AllGatherRd),
    ] {
        let policy = AlgoPolicy {
            force_ag: Some(algo),
            ..base
        };
        let (out, kinds) = forced(policy, move |c, g| c.all_gather(g, &input(c.rank(), per)));
        assert_eq!(kinds, [kind], "{algo:?} all-gather ran as {kinds:?}");
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got, &gathered, "{algo:?} all-gather rank {rank}");
        }
    }

    let root = 1;
    for (algo, kind) in [
        (BcastAlgo::Chain, SchedKind::Broadcast),
        (BcastAlgo::Tree, SchedKind::BroadcastTree),
    ] {
        let policy = AlgoPolicy {
            force_bcast: Some(algo),
            ..base
        };
        let (out, kinds) = forced(policy, move |c, g| {
            let mut buf = input(c.rank(), len);
            c.broadcast(g, root, &mut buf);
            buf
        });
        assert_eq!(kinds, [kind], "{algo:?} broadcast ran as {kinds:?}");
        for (rank, got) in out.iter().enumerate() {
            assert_eq!(got, &input(root, len), "{algo:?} broadcast rank {rank}");
        }
    }
}

#[test]
fn comm_stream_placement_changes_no_bit() {
    // The benchmark's training shape: hidden 128, 4 heads, 2 layers,
    // 8 sequences of 32 tokens over a 256-token vocabulary.
    const VOCAB: usize = 256;
    const SEQ: usize = 32;
    const TOKENS: usize = 8 * SEQ;
    // Loss bits of three steps, and an FNV-1a64 over every weight
    // tensor, per rank. The world is built under a pool of `cores`
    // threads, which gives each of its two ranks `cores / 2` of them:
    // one runs async collectives at issue, two keep a comm worker.
    let run = |grid: (usize, usize, usize, usize), cores: usize| {
        let comms = rayon::ThreadPoolBuilder::new()
            .num_threads(cores)
            .build()
            .unwrap()
            .install(|| CommWorld::builder(2).build());
        run_spmd_on(comms, move |comm| {
            let topo = GridTopology::new(grid.0, grid.1, grid.2, grid.3, comm.rank());
            let mut stack =
                TransformerStack::new(&topo, VOCAB, 128, 4, 2, SEQ, 42, OverlapConfig::all());
            let tokens: Vec<usize> = (0..TOKENS).map(|i| (i * 5 + 1) % VOCAB).collect();
            let targets: Vec<usize> = (0..TOKENS).map(|i| (i * 3 + 2) % VOCAB).collect();
            let losses: Vec<u32> = (0..3)
                .map(|_| {
                    stack
                        .train_step(&comm, &topo, &tokens, &targets, 0.01)
                        .to_bits()
                })
                .collect();
            let mut tensors = vec![stack.emb.table.clone(), stack.head.weight_shard().clone()];
            for b in &mut stack.blocks {
                for ln in [&b.ln1, &b.ln2] {
                    tensors.extend([ln.gain.clone(), ln.bias.clone()]);
                }
                tensors.extend(b.fc_layers_mut().map(|fc| fc.weight_shard().clone()));
            }
            tensors.extend([stack.final_ln.gain.clone(), stack.final_ln.bias.clone()]);
            let weights = tensors.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, m| {
                (h ^ m.fnv1a64()).wrapping_mul(0x0000_0100_0000_01b3)
            });
            (losses, weights)
        })
    };
    for grid in [(1, 1, 2, 1), (1, 1, 1, 2)] {
        let inline = run(grid, 2);
        assert_eq!(run(grid, 4), inline, "grid {grid:?}: worker vs inline");
    }
}
