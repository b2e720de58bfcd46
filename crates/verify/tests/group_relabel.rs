//! The verifier cannot tell a block's sync group apart from any other.
//!
//! Every sync the compiler weaves into a block carries that block's one
//! group, and the sync and deadlock passes only compare groups for
//! equality. Two memos rest on this: the compiler verifies a block
//! whose program equals an earlier clean block's up to the group only
//! once (`schedule_graph_with`), and the NPU keys its gate verdicts
//! without the group (`Npu::verify_schedule`). This oracle assembles
//! every block of the zoo at its own group and at group 0 and checks
//! that both verify alike, finding for finding.

use tandem_compiler::{schedule_block, OpLowering, Partitioner};
use tandem_model::zoo::Benchmark;
use tandem_verify::{Diagnostic, Severity, Verifier, VerifyConfig, VerifyReport};

/// A finding with its message left out: messages name the group.
fn shape(d: &Diagnostic) -> (usize, &'static str, Severity, Option<u64>) {
    (d.pc, d.rule.code(), d.severity(), d.wasted_words)
}

fn findings(report: &VerifyReport) -> Vec<(usize, &'static str, Severity, Option<u64>)> {
    report.diagnostics.iter().map(shape).collect()
}

#[test]
fn every_zoo_block_verifies_alike_under_group_zero() {
    let (mut checked, mut unclean) = (0, 0);
    // The paper machine, the unit-test machine, and the paper machine
    // running programs tiled for 8x its Interim BUF rows: blocks with
    // out-of-bounds errors must relabel alike too.
    for (lanes, rows, tiled_for) in [(32, 512, 512), (8, 64, 64), (32, 512, 4096)] {
        let lowering = OpLowering::new(lanes, tiled_for);
        let verifier = Verifier::new(VerifyConfig::for_lowering(lanes, rows));
        for bench in Benchmark::ALL {
            let graph = bench.graph();
            // Each node lowered once, for both assemblies of its block.
            let lowered: Vec<_> = graph
                .nodes()
                .iter()
                .map(|node| lowering.lower_node(&graph, node))
                .collect();
            let lower = |node: &tandem_model::Node| &lowered[node.id.index()];
            for (i, block) in Partitioner::new().partition(&graph).iter().enumerate() {
                let own = (i % 32) as u8;
                let at = |group| {
                    let sb = schedule_block(&graph, block, group, lower)
                        .unwrap_or_else(|e| panic!("{} block {i}: {e}", graph.name));
                    verifier.verify(&sb.program)
                };
                let (mine, zero) = (at(own), at(0));
                let what = format!(
                    "{} at {lanes}x{rows} tiled for {tiled_for}, block {i}",
                    graph.name
                );
                assert_eq!(mine.is_clean(), zero.is_clean(), "{what}: verdict");
                assert_eq!(findings(&mine), findings(&zero), "{what}: findings");
                checked += 1;
                unclean += usize::from(!mine.is_clean());
            }
        }
    }
    // 1,293 blocks, 390 of them unclean: an empty partition or a
    // lowering that broke nothing would pass vacuously.
    assert!(checked > 1000, "only {checked} blocks checked");
    assert!(unclean > 100, "only {unclean} unclean blocks checked");
}
