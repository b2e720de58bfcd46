//! Heap-allocation budget of graph construction. Building the GPT-2
//! decode step is the largest host stage of LLM serving (its tables build
//! one graph per context knot), and wall-time floors are too noisy on a
//! shared host to guard it. The allocation count is deterministic, so it
//! is pinned here under a counting global allocator. Node and tensor
//! names are stored as parts (`tandem_model::Name`) and allocate nothing,
//! so the budgets sit about 3.5% above the measured counts (2,212 and
//! 2,188): a build that allocated one string per name again would make
//! about 1,600 more. This file holds a single test so that no other
//! test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use tandem_model::{zoo, Graph};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are the caller's; the counter touches no
// allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `build` runs; the graph is dropped afterwards.
fn allocations(build: impl FnOnce() -> Graph) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    let g = build();
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    drop(g);
    n
}

#[test]
fn graph_builds_stay_within_allocation_budget() {
    let decode = allocations(|| zoo::gpt2_decode_step(16));
    let bert = allocations(|| zoo::bert_base(128));
    eprintln!("gpt2_decode_step(16): {decode} allocations; bert_base(128): {bert}");
    assert!(
        decode <= 2_290,
        "gpt2_decode_step(16) made {decode} allocations (budget 2290)"
    );
    assert!(
        bert <= 2_270,
        "bert_base(128) made {bert} allocations (budget 2270)"
    );
}
