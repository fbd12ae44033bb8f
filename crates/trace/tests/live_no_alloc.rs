//! `trace::live` design constraint 1: no allocation on the update path.
//!
//! A counting global allocator records the bytes this test's thread
//! allocates while it hammers every hot-path update of the live plane.
//! Registration and one warm-up call of each update may allocate; the
//! updates after them must not.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use axonn_trace::{CollOp, LiveCollectives, LiveRegistry, XferStats, SECONDS_BOUNDS};

struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Only the measuring thread counts, so the test harness's own
    // threads cannot add to the total.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocated
// memory and itself allocates nothing (a const-initialised `Cell` and
// an atomic).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations carry over to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: as `dealloc` for `ptr`; the caller's `new_size`
        // obligations carry over to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn live_updates_allocate_nothing() {
    let registry = LiveRegistry::new_enabled(true);
    let counter = registry.counter("test.calls");
    let gauge = registry.gauge("test.load");
    let hist = registry.histogram("test.seconds", &SECONDS_BOUNDS);
    let colls = LiveCollectives::new(&registry);
    let xfer = XferStats {
        chunks: 2,
        alloc_bytes: 0,
        pool_hits: 1,
        pool_misses: 0,
    };
    let update = |i: u64| {
        counter.add(i);
        gauge.set(i as f64);
        hist.observe(i as f64 * 1e-6);
        colls.record_collective(CollOp::AllReduce, 4096, Some(1e-5), xfer);
        colls.record_wait(2e-6);
    };
    update(0);

    COUNTING.with(|c| c.set(true));
    for i in 1..=10_000 {
        update(i);
    }
    COUNTING.with(|c| c.set(false));

    assert_eq!(ALLOCATED.load(Ordering::Relaxed), 0, "bytes allocated");
    let snap = registry.snapshot();
    assert_eq!(snap.counters["collective.all_reduce.calls"], 10_001);
    assert_eq!(snap.histograms["test.seconds"].count(), 10_001);
}
