//! The compiler's verify gate verifies each distinct block program once.
//!
//! `schedule_graph_with` skips a block whose syncs all carry its own
//! group and whose program equals an earlier clean block's up to that
//! group. These tests hold the skip to its rules: the verified schedule
//! is the unverified one, every block it passes is clean on its own, a
//! corrupted later twin is still caught at its own index, and a block
//! with a foreign sync group is never matched.

use tandem_compiler::{
    schedule_graph_opts, schedule_graph_with, CompileError, CompileOptions, CompiledOp, OpLowering,
    Partitioner,
};
use tandem_isa::{Instruction, Program, SyncEdge, SyncKind, SyncUnit};
use tandem_model::zoo::{self, Benchmark};
use tandem_model::{Graph, Node, NodeId, OpKind};
use tandem_verify::{Verifier, VerifyConfig, VerifyReport};

fn unverified() -> CompileOptions {
    CompileOptions {
        verify: false,
        ..CompileOptions::default()
    }
}

#[test]
fn verified_zoo_schedules_equal_unverified_ones() {
    for (lanes, rows) in [(32, 512), (8, 64)] {
        let lowering = OpLowering::new(lanes, rows);
        let verifier = Verifier::new(VerifyConfig::for_lowering(lanes, rows));
        for bench in Benchmark::ALL {
            let g = bench.graph();
            let what = format!("{} at {lanes}x{rows}", g.name);
            let verified = schedule_graph_opts(&lowering, &g, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let unverified = schedule_graph_opts(&lowering, &g, &unverified()).unwrap();
            assert_eq!(verified, unverified, "{what}");
            for (i, sb) in verified.iter().enumerate() {
                let report = verifier.verify(&sb.program);
                assert!(report.is_clean(), "{what}, block {i}:\n{report}");
            }
        }
    }
}

/// BERT-128 on the paper machine, its blocks, and its Softmax nodes in
/// graph order with the index of the block each one sits in.
fn bert() -> (Graph, OpLowering, Verifier, Vec<(NodeId, usize)>) {
    let g = zoo::bert_base(128);
    let blocks = Partitioner::new().partition(&g);
    let softmaxes = g
        .nodes()
        .iter()
        .filter(|n| n.kind == OpKind::Softmax)
        .map(|n| {
            let block = blocks
                .iter()
                .position(|b| b.non_gemm.contains(&n.id))
                .expect("every non-GEMM node sits in a block");
            (n.id, block)
        })
        .collect();
    let verifier = Verifier::new(VerifyConfig::for_lowering(32, 512));
    (g, OpLowering::new(32, 512), verifier, softmaxes)
}

/// `program`'s instructions with every sync group set to 0.
fn ungrouped(program: &Program) -> Vec<Instruction> {
    program.iter().map(|i| i.ungrouped()).collect()
}

/// The whole-graph gate's error, which must be a verification failure.
fn rejected(
    result: Result<Vec<tandem_compiler::ScheduledBlock>, CompileError>,
) -> (usize, VerifyReport) {
    match result {
        Err(CompileError::Verification { block, report }) => (block, report),
        other => panic!("expected a verification error, got {other:?}"),
    }
}

#[test]
fn a_corrupted_later_twin_is_reported_at_its_own_index() {
    let (g, lowering, verifier, softmaxes) = bert();
    let [(_, first), (second, bad_block), ..] = softmaxes[..] else {
        panic!("BERT has a Softmax per layer");
    };
    // The two Softmax blocks are twins under the real lowering.
    let real = schedule_graph_opts(&lowering, &g, &unverified()).unwrap();
    assert_ne!(first % 32, bad_block % 32);
    assert_eq!(
        ungrouped(&real[first].program),
        ungrouped(&real[bad_block].program)
    );
    // Only the second Softmax is tiled for 8x the Interim BUF rows.
    let oversized = OpLowering::new(32, 512 * 8);
    let bad = |node: &Node| {
        let lowering = if node.id == second {
            &oversized
        } else {
            &lowering
        };
        lowering.lower_node(&g, node)
    };
    let (block, report) = rejected(schedule_graph_with(&g, Some(&verifier), bad));
    assert_eq!(block, bad_block);
    let own = schedule_graph_with(&g, None, bad).unwrap();
    assert_eq!(report, verifier.verify(&own[bad_block].program));
    assert!(!report.is_clean());
}

/// Closes the block's Tandem region and reopens it under `group`.
fn reopen(compiled: CompiledOp, group: u8) -> CompiledOp {
    let mut tiles = compiled.tiles;
    let (program, _) = tiles
        .as_mut()
        .expect("the block's first node has a program");
    program.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Exec,
        group,
    ));
    program.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::Start,
        SyncKind::Exec,
        group,
    ));
    CompiledOp { tiles, ..compiled }
}

#[test]
fn a_block_with_a_foreign_sync_group_is_verified_on_its_own() {
    let (g, lowering, verifier, softmaxes) = bert();
    // Every Softmax closes and reopens its block's region. Under the
    // block's own group that is clean; the second Softmax uses the next
    // group, so its block differs from the first one's only in groups
    // and its region pairs break.
    let group_of = |id: NodeId| {
        let k = softmaxes.iter().position(|s| s.0 == id).unwrap();
        ((softmaxes[k].1 + usize::from(k == 1)) % 32) as u8
    };
    let lower = |node: &Node| {
        let lowered = lowering.lower_node(&g, node);
        match node.kind {
            OpKind::Softmax => lowered.map(|c| reopen(c, group_of(node.id))),
            _ => lowered,
        }
    };
    let (block, report) = rejected(schedule_graph_with(&g, Some(&verifier), lower));
    assert_eq!(block, softmaxes[1].1);
    assert!(
        report.errors().all(|d| d.rule.code().starts_with("sync")),
        "{report}"
    );
    // Zeroing every group would make it a twin of the clean first one.
    let own = schedule_graph_with(&g, None, lower).unwrap();
    let (first, foreign) = (&own[softmaxes[0].1].program, &own[block].program);
    assert!(verifier.verify(first).is_clean());
    assert_eq!(ungrouped(first), ungrouped(foreign));
}
