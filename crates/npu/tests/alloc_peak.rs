//! Peak heap-allocation size and allocation count of a model run. A run
//! simulates every node in performance mode, which reads no data, so it
//! needs no scratchpad or DRAM storage: no single allocation during a
//! cold run, cached or uncached, may be as large as one Interim BUF. The
//! number of allocations is the host cost that wall-time floors are too
//! noisy to guard on a shared host, so it is pinned too. Sizes and counts
//! are deterministic, so they are checked under a counting global
//! allocator. A cold cached run of BERT-128, whose 536 non-GEMM nodes
//! have 30 distinct signatures, pins the count of the run's per-node
//! work too. This file holds a single test so that no other test's
//! allocations are measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tandem_model::zoo;
use tandem_npu::{Npu, NpuConfig};

struct Counting;

/// The largest allocation, in bytes, since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);
/// Allocations (including reallocations) since the last reset.
static COUNT: AtomicUsize = AtomicUsize::new(0);

/// Records one allocation of `size` bytes.
fn record(size: usize) {
    LARGEST.fetch_max(size, Ordering::Relaxed);
    COUNT.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are the caller's; the counter touches no
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest allocation `step` makes, in bytes, and how many it makes.
fn allocations(step: impl FnOnce()) -> (usize, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    COUNT.store(0, Ordering::Relaxed);
    step();
    (
        LARGEST.load(Ordering::Relaxed),
        COUNT.load(Ordering::Relaxed),
    )
}

#[test]
fn a_cold_run_allocates_nothing_the_size_of_an_interim_buf() {
    let graph = zoo::resnet50();
    let cfg = NpuConfig::paper();
    let interim_buf = cfg.tandem.interim_rows * cfg.tandem.lanes * 4;
    let (cached, cached_count) = allocations(|| {
        Npu::new(cfg.clone()).run(&graph);
    });
    let (uncached, uncached_count) = allocations(|| {
        Npu::uncached(cfg.clone()).run(&graph);
    });
    eprintln!(
        "largest allocation of a cold ResNet-50 run: cached {cached} B, \
         uncached {uncached} B (Interim BUF {interim_buf} B)"
    );
    eprintln!(
        "allocations of a cold ResNet-50 run: cached {cached_count}, \
         uncached {uncached_count}"
    );
    // Budgets: 1.05x the counts measured in a debug build (390 cached,
    // 459 uncached; a release build makes 350 and 459).
    assert!(
        cached_count <= 410,
        "cached run made {cached_count} allocations (budget 410)"
    );
    assert!(
        uncached_count <= 481,
        "uncached run made {uncached_count} allocations (budget 481)"
    );
    assert!(cached < interim_buf, "cached run allocated {cached} B");
    assert!(
        uncached < interim_buf,
        "uncached run allocated {uncached} B"
    );
    let bert = zoo::bert_base(128);
    let (_, bert_count) = allocations(|| {
        Npu::new(cfg.clone()).run(&bert);
    });
    eprintln!("allocations of a cold cached BERT-128 run: {bert_count}");
    // Budget: 1.05x the debug count (845; a release build makes 785).
    assert!(
        bert_count <= 888,
        "cached BERT-128 run made {bert_count} allocations (budget 888)"
    );
}
