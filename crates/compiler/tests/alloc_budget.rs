//! Heap-allocation budget of lowering. Lowering a node is the largest
//! cold host stage (compile, verify, uncached and cold runs all pay it),
//! and its cost per emitted instruction was mostly heap traffic: an
//! IMM-constant cache map, a `Vec` per constant write, a body `Vec` per
//! loop nest and a program grown by doubling. A lowered node now
//! allocates its output (its one program) plus at most the builder's one
//! staged-body buffer, so no template may make more than 2 allocations
//! per node. Counts are deterministic, so they are pinned under a
//! counting global allocator, with zoo-wide totals for lowering and for
//! block assembly (`schedule_graph_opts`, verify off) about 5% above the
//! measured counts (`--nocapture` prints them).
//! This file holds a single test so that no other test's allocations
//! are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use tandem_compiler::{schedule_graph_opts, CompileOptions, OpLowering};
use tandem_model::zoo::Benchmark;
use tandem_model::OpClass;

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

/// Allocations made while `step` runs; its result is dropped afterwards.
fn allocations<T>(step: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = step();
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    drop(out);
    n
}

#[test]
fn lowering_stays_within_allocation_budget() {
    let lowering = OpLowering::new(32, 512);
    let opts = CompileOptions {
        verify: false,
        ..CompileOptions::default()
    };
    let graphs: Vec<_> = Benchmark::ALL.iter().map(|b| b.graph()).collect();
    // Per operator kind: the most allocations one node made.
    let mut worst: BTreeMap<String, usize> = BTreeMap::new();
    let (mut lowered, mut lower_total, mut schedule_total) = (0usize, 0usize, 0usize);
    for graph in &graphs {
        for node in graph.nodes() {
            if node.kind.class() == OpClass::Gemm {
                continue;
            }
            let n = allocations(|| lowering.lower_node(graph, node));
            let w = worst.entry(node.kind.to_string()).or_default();
            *w = (*w).max(n);
            lowered += 1;
            lower_total += n;
        }
        schedule_total += allocations(|| schedule_graph_opts(&lowering, graph, &opts));
    }
    eprintln!("most allocations per lowered node, by template: {worst:?}");
    eprintln!(
        "zoo on 32x512: {lowered} nodes lowered with {lower_total} allocations; \
         schedule_graph_opts (verify off) made {schedule_total}"
    );
    for (kind, &n) in &worst {
        assert!(
            n <= 2,
            "lowering one {kind} node made {n} allocations (budget 2)"
        );
    }
    assert!(
        lower_total <= LOWER_BUDGET,
        "lowering the zoo made {lower_total} allocations (budget {LOWER_BUDGET})"
    );
    assert!(
        schedule_total <= SCHEDULE_BUDGET,
        "scheduling the zoo made {schedule_total} allocations (budget {SCHEDULE_BUDGET})"
    );
}

/// Zoo-wide lowering budget: 1.05x the measured 2,526 (debug and
/// release alike; a tile list per node made it 3,939).
const LOWER_BUDGET: usize = 2_652;
/// Zoo-wide `schedule_graph_opts` budget: 1.05x the measured 5,055 (a
/// tile list per node made it 6,468).
const SCHEDULE_BUDGET: usize = 5_308;
