//! Peak heap-allocation size of a model run. A run simulates every node
//! in performance mode, which reads no data, so it needs no scratchpad or
//! DRAM storage: no single allocation during a cold run, cached or
//! uncached, may be as large as one Interim BUF. The sizes are
//! deterministic, so they are checked under a counting global allocator.
//! This file holds a single test so that no other test's allocations are
//! measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tandem_model::zoo;
use tandem_npu::{Npu, NpuConfig};

struct Counting;

/// The largest allocation, in bytes, since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are the caller's; the counter touches no
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The largest allocation `step` makes.
fn largest(step: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    step();
    LARGEST.load(Ordering::Relaxed)
}

#[test]
fn a_cold_run_allocates_nothing_the_size_of_an_interim_buf() {
    let graph = zoo::resnet50();
    let cfg = NpuConfig::paper();
    let interim_buf = cfg.tandem.interim_rows * cfg.tandem.lanes * 4;
    let cached = largest(|| {
        Npu::new(cfg.clone()).run(&graph);
    });
    let uncached = largest(|| {
        Npu::uncached(cfg.clone()).run(&graph);
    });
    eprintln!(
        "largest allocation of a cold ResNet-50 run: cached {cached} B, \
         uncached {uncached} B (Interim BUF {interim_buf} B)"
    );
    assert!(cached < interim_buf, "cached run allocated {cached} B");
    assert!(
        uncached < interim_buf,
        "uncached run allocated {uncached} B"
    );
}
