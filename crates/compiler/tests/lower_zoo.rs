//! Whole-suite lowering: every non-GEMM node of all seven benchmark DNNs
//! must compile to tile programs that the simulator accepts (performance
//! mode), with sensible tile counts.

use tandem_compiler::{OpLowering, Partitioner};
use tandem_core::{Dram, Mode, TandemConfig, TandemProcessor};
use tandem_model::zoo::Benchmark;
use tandem_model::OpClass;

#[test]
fn every_non_gemm_node_in_the_suite_lowers_and_runs() {
    let cfg = TandemConfig::paper();
    let lowering = OpLowering::new(cfg.lanes, cfg.interim_rows);
    for bench in Benchmark::ALL {
        let graph = bench.graph();
        let mut proc = TandemProcessor::with_mode(cfg.clone(), Mode::Performance);
        let mut dram = Dram::new(1 << 20);
        let mut lowered = 0usize;
        for node in graph.nodes() {
            if node.kind.class() == OpClass::Gemm {
                continue;
            }
            let compiled = lowering
                .lower_node(&graph, node)
                .unwrap_or_else(|e| panic!("{}: {} failed: {e}", graph.name, node.kind));
            if let Some((prog, reps)) = &compiled.tiles {
                assert!(*reps > 0, "{}: {} zero reps", graph.name, node.kind);
                assert!(
                    *reps < 2_000_000,
                    "{}: {} implausible tile count {reps}",
                    graph.name,
                    node.kind
                );
                proc.run(prog, &mut dram).unwrap_or_else(|e| {
                    panic!("{}: {} program rejected: {e}", graph.name, node.kind)
                });
            }
            lowered += 1;
        }
        assert!(lowered > 0, "{}: nothing lowered", graph.name);
    }
}

#[test]
fn partitioning_covers_the_suite() {
    for bench in Benchmark::ALL {
        let graph = bench.graph();
        let blocks = Partitioner::new().partition(&graph);
        let covered: usize = blocks.iter().map(|b| b.len()).sum();
        assert_eq!(covered, graph.nodes().len(), "{}", graph.name);
    }
}

#[test]
fn lowered_work_scales_with_tensor_size() {
    // The same operator over a bigger tensor must execute more tiles ×
    // cycles.
    use tandem_model::{GraphBuilder, OpKind};
    let cfg = TandemConfig::paper();
    let lowering = OpLowering::new(cfg.lanes, cfg.interim_rows);

    let cycles_for = |elems: usize| -> u64 {
        let mut b = GraphBuilder::new("t", 2024);
        let x = b.input("x", [1, elems]);
        let y = b.relu(x);
        b.output(y);
        let g = b.finish();
        let node = g.nodes().iter().find(|n| n.kind == OpKind::Relu).unwrap();
        let compiled = lowering.lower_node(&g, node).unwrap();
        let mut proc = TandemProcessor::with_mode(cfg.clone(), Mode::Performance);
        let mut dram = Dram::new(1024);
        let (prog, reps) = compiled.tiles.expect("Relu has a program");
        proc.run(&prog, &mut dram).unwrap().compute_cycles * reps
    };

    let small = cycles_for(32 * 1024);
    let large = cycles_for(32 * 1024 * 8);
    assert!(
        large > small * 6 && large < small * 10,
        "small {small}, large {large}"
    );
}
