//! Memory sentinel for the training step: the heap allocations one
//! `TransformerStack::train_step` makes on the four benchmark grids, and
//! on grids 1x1x1x1 and 1x1x1x2 the peak heap it adds on top of what is
//! live before it and the live bytes it leaves behind, at the
//! benchmark's model shape (vocab 256, hidden 128, 4 heads, 2 layers,
//! seq 32, 8 sequences).
//!
//! A counting global allocator tracks allocator calls and live and peak
//! bytes for the whole process, so this file holds a single test: no
//! sibling test may allocate while the step is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Barrier};

use axonn::collectives::CommWorld;
use axonn::engine::{GridTopology, OverlapConfig, TransformerStack};
use axonn::exec::run_spmd_on;

struct Counting;

// Statistics only: nothing is published through these, so Relaxed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls that hand out new memory: `alloc`, `alloc_zeroed` and a
/// growing `realloc`.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn allocated(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    grew(bytes);
}

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated
// memory and itself allocates nothing (three atomics).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations carry over to `System`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            allocated(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            allocated(layout.size());
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
            if new_size > layout.size() {
                allocated(new_size - layout.size());
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

/// Steady-state steps measured per grid. The mailbox's hash table of
/// waiting messages grows, and never shrinks, on the rare step where more
/// messages than ever before wait at once (one step in a few dozen on
/// 1x1x1x2, which then makes one allocation more); a buffer kept by the
/// step that grew would grow on every step.
const MEASURED: usize = 5;

/// One steady-state step of a whole world.
struct Step {
    /// Peak of bytes live during the step above the bytes live just
    /// before it.
    peak: usize,
    /// Bytes live after the step less those before it.
    grown: isize,
    /// Allocator calls that handed out new memory during the step.
    allocs: usize,
}

/// Cores of the host every grid is measured on. The world takes each
/// rank's core share from the pool it is built in, and a share of two or
/// more gives the rank a comm worker, whose async collectives allocate a
/// reply channel each; a fixed host pool keeps the placement, and so the
/// count, the same on every machine.
const HOST_CORES: usize = 2;

/// [`MEASURED`] steady-state steps of the whole world of `grid`, on a
/// host of [`HOST_CORES`].
fn measure(grid: (usize, usize, usize, usize)) -> Vec<Step> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(HOST_CORES)
        .build()
        .expect("a pool with a fixed worker count")
        .install(|| measure_on_host(grid))
}

fn measure_on_host(grid: (usize, usize, usize, usize)) -> Vec<Step> {
    let (gx, gy, gz, gd) = grid;
    let ranks = gx * gy * gz * gd;
    // Debug builds log every collective for schedule certification by
    // default, a record that grows with the run by design; off here.
    let comms = CommWorld::builder(ranks).record_schedule(false).build();
    // Ranks meet between steps at a std barrier, which allocates nothing:
    // a count read between two meetings sees no rank inside a step or a
    // collective's tail.
    let quiet = Arc::new(Barrier::new(ranks));
    let out = run_spmd_on(comms, move |comm| {
        let topo = GridTopology::new(gx, gy, gz, gd, comm.rank());
        let mut stack =
            TransformerStack::new(&topo, VOCAB, 128, 4, 2, SEQ_LEN, 7, OverlapConfig::all());
        let tokens: Vec<usize> = (0..SEQS * SEQ_LEN).map(|i| (i * 31 + 5) % VOCAB).collect();
        let targets: Vec<usize> = (0..SEQS * SEQ_LEN).map(|i| (i * 17 + 3) % VOCAB).collect();
        // One step between meetings.
        let mut measured_step = || {
            quiet.wait();
            let (base, base_allocs) = (LIVE.load(Relaxed), ALLOCS.load(Relaxed));
            if comm.rank() == 0 {
                PEAK.store(base, Relaxed);
            }
            quiet.wait();
            stack.train_step(&comm, &topo, &tokens, &targets, 0.05);
            quiet.wait();
            let (end, end_allocs) = (LIVE.load(Relaxed), ALLOCS.load(Relaxed));
            quiet.wait();
            Step {
                peak: PEAK.load(Relaxed).saturating_sub(base),
                grown: end as isize - base as isize,
                allocs: end_allocs - base_allocs,
            }
        };
        // Warm up until the flight recorder's bounded ring of collective
        // labels stops filling: from then on a step evicts as many
        // labels as it records, the same ones.
        let flight = comm.flight().clone();
        let mut warm = 0;
        loop {
            let before = flight.len();
            measured_step();
            warm += 1;
            if warm >= 3 && flight.len() == before {
                break;
            }
        }
        (0..MEASURED)
            .map(|_| measured_step())
            .collect::<Vec<Step>>()
    });
    out.into_iter().next().expect("rank 0")
}

/// Peak bytes, measured on x86-64 (2-core Sapphire Rapids VM), debug and
/// release builds alike, in MiB for 1x1x1x1 / 1x1x1x2: 7.52 / 9.40–10.15
/// while the step still copied every weight and gradient on one-rank
/// groups (a cached one-rank all-gather per layer, one-rank
/// reduce-scatters, optimizer buckets); 5.90 / 5.84–6.15 while saved
/// activations were allocated and freed by every step; 0.78 / 0.75–0.80
/// since each rank keeps them, with their allocations, across steps (they
/// are part of the bytes live before the step, so the step adds only its
/// temporaries). The 1x1x1x2 peak sums two concurrent ranks, hence its
/// spread. Each ceiling sits between the last two. A steady-state step
/// ends at the live bytes it started with: kept buffers do not grow from
/// step to step.
///
/// Allocations per step, the whole world's, are exact and the same in
/// debug and release builds: 63 / 254 / 438 / 582 on 1x1x1x1 / 2x1x1x1
/// / 1x1x2x1 / 1x1x1x2, and each ceiling is that count. They hold for
/// the placement of a [`HOST_CORES`]-core host: the one-rank grid with a
/// comm worker, the two-rank grids with collectives inline (a worker per
/// rank makes 274 on 2x1x1x1). An explicit `AXONN_THREADS` overrides
/// that placement, so the count is then printed but not held to a
/// ceiling. The median over the measured steps is held to it, because
/// the rare step that grows the mailbox's hash table makes one more. A
/// ceiling only ever goes down: a change that removes allocations lowers
/// it to the new count.
#[test]
fn train_step_peak_heap_stays_under_ceiling() {
    let explicit = std::env::var("AXONN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0);
    for (grid, ceiling_mib, max_allocs) in [
        ((1, 1, 1, 1), Some(3.3), 63),
        ((2, 1, 1, 1), None, 254),
        ((1, 1, 2, 1), None, 438),
        ((1, 1, 1, 2), Some(3.4), 582),
    ] {
        let steps = measure(grid);
        let allocs: Vec<usize> = steps.iter().map(|s| s.allocs).collect();
        let mut sorted = allocs.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let peak = steps.iter().map(|s| s.peak).max().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        let grown: Vec<isize> = steps.iter().map(|s| s.grown).collect();
        eprintln!(
            "grid {grid:?}: allocations per step {allocs:?} (ceiling {max_allocs}), \
             step peak {peak:.3} MiB (ceiling {ceiling_mib:?}), live bytes grew by {grown:?}"
        );
        assert!(
            explicit.is_some() || median <= max_allocs,
            "grid {grid:?}: a steady-state train_step made {median} allocations \
             (median of {allocs:?}), ceiling {max_allocs}"
        );
        let Some(ceiling_mib) = ceiling_mib else {
            continue;
        };
        assert!(
            peak < ceiling_mib,
            "grid {grid:?}: one train_step peaked {peak:.3} MiB above its start, \
             ceiling {ceiling_mib} MiB"
        );
        assert!(
            grown.contains(&0),
            "grid {grid:?}: no steady-state train_step ended at the live bytes it started \
             with; they grew by {grown:?}"
        );
    }
}
