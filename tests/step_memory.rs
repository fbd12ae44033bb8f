//! Memory sentinel for the training step: the peak heap one
//! `TransformerStack::train_step` adds on top of what is live before it,
//! at the benchmark's model shape (vocab 256, hidden 128, 4 heads,
//! 2 layers, seq 32, 8 sequences) on grids 1x1x1x1 and 1x1x1x2.
//!
//! A counting global allocator tracks live and peak bytes for the whole
//! process, so this file holds a single test: no sibling test may
//! allocate while the step is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use axonn::collectives::ProcessGroup;
use axonn::engine::{GridTopology, OverlapConfig, TransformerStack};
use axonn::exec::run_spmd;

struct Counting;

// Statistics only: nothing is published through these, so Relaxed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated
// memory and itself allocates nothing (two atomics).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations carry over to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc` for `ptr`; the caller's `new_size`
        // obligations carry over to `System`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const VOCAB: usize = 256;
const SEQ_LEN: usize = 32;
const SEQS: usize = 8;

/// Peak bytes live during one step after three warm-up steps, above the
/// bytes live just before it, for the whole world of `grid`.
fn step_peak_bytes(grid: (usize, usize, usize, usize)) -> usize {
    let (gx, gy, gz, gd) = grid;
    let out = run_spmd(gx * gy * gz * gd, move |comm| {
        let topo = GridTopology::new(gx, gy, gz, gd, comm.rank());
        let world = ProcessGroup::new((0..comm.world_size()).collect());
        let mut stack =
            TransformerStack::new(&topo, VOCAB, 128, 4, 2, SEQ_LEN, 7, OverlapConfig::all());
        let tokens: Vec<usize> = (0..SEQS * SEQ_LEN).map(|i| (i * 31 + 5) % VOCAB).collect();
        let targets: Vec<usize> = (0..SEQS * SEQ_LEN).map(|i| (i * 17 + 3) % VOCAB).collect();
        for _ in 0..3 {
            stack.train_step(&comm, &topo, &tokens, &targets, 0.05);
        }
        comm.barrier(&world);
        let base = LIVE.load(Relaxed);
        if comm.rank() == 0 {
            PEAK.store(base, Relaxed);
        }
        comm.barrier(&world);
        stack.train_step(&comm, &topo, &tokens, &targets, 0.05);
        comm.barrier(&world);
        PEAK.load(Relaxed).saturating_sub(base)
    });
    out[0]
}

/// Measured on x86-64 (2-core Sapphire Rapids VM), debug and release
/// builds alike, in MiB for 1x1x1x1 / 1x1x1x2: 7.52 / 9.40–10.15 while
/// the step still copied every weight and gradient on one-rank groups
/// (a cached one-rank all-gather per layer, one-rank reduce-scatters,
/// optimizer buckets), 5.90 / 5.84–6.15 since it stopped. The 1x1x1x2
/// peak sums two concurrent ranks, hence its spread. Each ceiling sits
/// between the two.
#[test]
fn train_step_peak_heap_stays_under_ceiling() {
    for (grid, ceiling_mib) in [((1, 1, 1, 1), 6.7), ((1, 1, 1, 2), 7.8)] {
        let peak = step_peak_bytes(grid) as f64 / (1024.0 * 1024.0);
        eprintln!("grid {grid:?}: step peak {peak:.3} MiB (ceiling {ceiling_mib})");
        assert!(
            peak < ceiling_mib,
            "grid {grid:?}: one train_step peaked {peak:.3} MiB above its start, \
             ceiling {ceiling_mib} MiB"
        );
    }
}
