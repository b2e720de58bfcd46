//! Block-program assembly (paper Figure 10, step 0): weaving the
//! synchronization instructions around the GEMM configuration region and
//! the per-tile non-GEMM program so the NPU's Inst. Dispatch unit can
//! route each region to its unit and the execution controller can track
//! tile completion and Output-BUF ownership.

use crate::blocks::{BlockKind, ExecutionBlock};
use crate::lower::{CompileError, CompiledOp, OpLowering};
use crate::tune_space::Schedule;
use std::borrow::Borrow;
use tandem_isa::{CastTarget, Instruction, Program, SyncEdge, SyncKind, SyncUnit};
use tandem_model::{Graph, Node, OpClass};
use tandem_verify::{Verifier, VerifyConfig, VerifyMode};

/// Options controlling graph compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the `tandem-verify` static dataflow pass over every scheduled
    /// block and fail compilation on any error-severity finding. Defaults
    /// to on in debug builds (so every test exercises it) and off in
    /// release builds, where it is opt-in.
    pub verify: bool,
    /// Loop-summarization mode for the verifier. Defaults to the exact
    /// per-iteration oracle in debug builds (tests double-check the
    /// widening) and the O(program-size) widened summaries in release
    /// builds, where verification may gate an autotuner search loop.
    pub verify_mode: VerifyMode,
    /// Tuner schedule overriding per-site tile decisions. The empty
    /// schedule (the default) reproduces the hand-rolled compiler bit
    /// for bit; `tandem-tune` materializes each search candidate by
    /// compiling the graph under its schedule.
    pub schedule: Schedule,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            verify: cfg!(debug_assertions),
            verify_mode: if cfg!(debug_assertions) {
                VerifyMode::Exact
            } else {
                VerifyMode::Widened
            },
            schedule: Schedule::empty(),
        }
    }
}

/// A fully scheduled execution block: the combined instruction stream of
/// Figure 10 plus its tile count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledBlock {
    /// Block topology.
    pub kind: BlockKind,
    /// The combined instruction stream (GEMM region + per-tile non-GEMM
    /// program, delimited by synchronization instructions).
    pub program: Program,
    /// Tiles the block executes.
    pub tiles: u64,
}

/// Assembles the combined instruction stream for one execution block.
///
/// Layout (paper Figure 10):
/// ```text
/// sync.gemm.start.exec      ─┐ GEMM region: macro-configuration the
///   <gemm config>            │ dispatch unit forwards to the GEMM unit
/// sync.gemm.end.exec        ─┘
/// sync.simd.start.exec      ─┐ Tandem region, executed once per tile:
///   <tile program …>         │   consume the Output BUF …
///   sync.simd.end.buf        │   … release it for the next GEMM tile …
///   <tile program tail>      │   … finish private-buffer work
/// sync.simd.end.exec        ─┘ (Tandem_done → execution FSM)
/// ```
///
/// `lower` supplies each non-GEMM node's tile programs: an uncached
/// [`OpLowering::lower_node`] in [`schedule_graph_opts`], a lowering
/// memoized on the node's [`crate::NodeSignature`] in the NPU's verify
/// gate.
///
/// # Errors
///
/// Propagates [`CompileError`] from lowering the block's non-GEMM nodes.
pub fn schedule_block<R>(
    graph: &Graph,
    block: &ExecutionBlock,
    group: u8,
    mut lower: impl FnMut(&Node) -> R,
) -> Result<ScheduledBlock, CompileError>
where
    R: Borrow<Result<CompiledOp, CompileError>>,
{
    let mut program = Program::new();
    let mut tiles = 1u64;

    if let Some(gemm_id) = block.gemm {
        let node = graph.node(gemm_id);
        debug_assert_eq!(node.kind.class(), OpClass::Gemm);
        program.push(Instruction::sync(
            SyncUnit::Gemm,
            SyncEdge::Start,
            SyncKind::Exec,
            group,
        ));
        // The GEMM unit operates at macro-operation level (paper §4.2):
        // its region carries configuration instructions the dispatch unit
        // decodes, not a von Neumann stream. We stand in with the
        // datatype configuration the real compiler emits.
        program.push(Instruction::DatatypeConfig {
            target: CastTarget::Fxp8,
        });
        program.push(Instruction::sync(
            SyncUnit::Gemm,
            SyncEdge::End,
            SyncKind::Exec,
            group,
        ));
    }

    if !block.non_gemm.is_empty() {
        program.push(Instruction::sync(
            SyncUnit::Simd,
            SyncEdge::Start,
            SyncKind::Exec,
            group,
        ));
        let mut obuf_released = block.gemm.is_none();
        for (i, &id) in block.non_gemm.iter().enumerate() {
            let lowered = lower(graph.node(id));
            let compiled = match lowered.borrow() {
                Ok(c) => c,
                Err(CompileError::Unsupported { .. }) => continue,
                Err(e) => return Err(e.clone()),
            };
            for (prog, reps) in &compiled.tiles {
                tiles = tiles.max(*reps);
                program.extend(prog.iter().copied());
            }
            // After the first operator consumed the GEMM output tile the
            // compiler releases the Output BUF so the GEMM unit can
            // proceed (paper §4.2: "the compiler inserts a synchronization
            // instruction right after the instructions consuming the data
            // on the Output BUF").
            if !obuf_released && i == 0 {
                program.push(Instruction::sync(
                    SyncUnit::Simd,
                    SyncEdge::End,
                    SyncKind::Buf,
                    group,
                ));
                obuf_released = true;
            }
        }
        program.push(Instruction::sync(
            SyncUnit::Simd,
            SyncEdge::End,
            SyncKind::Exec,
            group,
        ));
    }

    Ok(ScheduledBlock {
        kind: block.kind(),
        program,
        tiles,
    })
}

/// Schedules every block of a graph, numbering sync groups modulo the
/// 5-bit group-id space.
///
/// # Errors
///
/// Propagates the first [`CompileError`].
pub fn schedule_graph(
    lowering: &OpLowering,
    graph: &Graph,
) -> Result<Vec<ScheduledBlock>, CompileError> {
    schedule_graph_opts(lowering, graph, &CompileOptions::default())
}

/// [`schedule_graph`] with explicit [`CompileOptions`]. With
/// `opts.verify` set, every assembled block runs through the
/// `tandem-verify` static pass (sync pairing, scratchpad bounds, loop
/// discipline, encode/decode closure) before the schedule is returned.
///
/// # Errors
///
/// Propagates the first [`CompileError`]; a block with error-severity
/// verifier findings yields [`CompileError::Verification`].
pub fn schedule_graph_opts(
    lowering: &OpLowering,
    graph: &Graph,
    opts: &CompileOptions,
) -> Result<Vec<ScheduledBlock>, CompileError> {
    // Materialize the candidate: a non-empty schedule overrides per-site
    // tile decisions for every node lowered below.
    let tuned;
    let lowering = if opts.schedule.is_empty() {
        lowering
    } else {
        tuned = lowering.clone().with_schedule(opts.schedule.clone());
        &tuned
    };
    let verifier = opts.verify.then(|| {
        Verifier::new(
            VerifyConfig::for_lowering(lowering.lanes(), lowering.interim_rows())
                .with_mode(opts.verify_mode),
        )
    });
    schedule_graph_with(graph, verifier.as_ref(), |node| {
        lowering.lower_node(graph, node)
    })
}

/// The body of [`schedule_graph_opts`] with the node lowering supplied
/// by the caller (see [`schedule_block`]): partitions `graph`, assembles
/// every block under sync group `index % 32`, then runs `verifier` (if
/// any) over each assembled program in block order.
///
/// # Errors
///
/// Propagates the first [`CompileError`]; the first block with
/// error-severity verifier findings yields
/// [`CompileError::Verification`].
pub fn schedule_graph_with<R>(
    graph: &Graph,
    verifier: Option<&Verifier>,
    mut lower: impl FnMut(&Node) -> R,
) -> Result<Vec<ScheduledBlock>, CompileError>
where
    R: Borrow<Result<CompiledOp, CompileError>>,
{
    let blocks: Vec<ScheduledBlock> = crate::blocks::Partitioner::new()
        .partition(graph)
        .iter()
        .enumerate()
        .map(|(i, b)| schedule_block(graph, b, (i % 32) as u8, &mut lower))
        .collect::<Result<_, _>>()?;
    if let Some(verifier) = verifier {
        for (i, sb) in blocks.iter().enumerate() {
            let report = verifier.verify(&sb.program);
            if !report.is_clean() {
                return Err(CompileError::Verification { block: i, report });
            }
        }
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::{GraphBuilder, Padding};

    fn lowering() -> OpLowering {
        OpLowering::new(32, 512)
    }

    fn fused_graph() -> Graph {
        let mut b = GraphBuilder::new("t", 2024);
        let x = b.input("x", [1, 32, 16, 16]);
        let c = b.conv(x, 32, 3, 1, Padding::Same);
        let r = b.relu(c);
        let m = b.max_pool(r, 2, 2);
        b.output(m);
        b.finish()
    }

    #[test]
    fn fused_block_has_both_regions_and_a_buf_release() {
        let g = fused_graph();
        let blocks = schedule_graph(&lowering(), &g).unwrap();
        assert_eq!(blocks.len(), 1);
        let sb = &blocks[0];
        assert_eq!(sb.kind, BlockKind::Fused);
        let text = sb.program.to_string();
        assert!(text.contains("sync.gemm.start.exec"));
        assert!(text.contains("sync.gemm.end.exec"));
        assert!(text.contains("sync.simd.start.exec"));
        assert!(
            text.contains("sync.simd.end.buf"),
            "missing OBUF release:\n{text}"
        );
        assert!(text.contains("sync.simd.end.exec"));
        // buf release must come after the first consumer's instructions
        // and before the final end marker
        let buf_pos = text.find("sync.simd.end.buf").unwrap();
        let end_pos = text.rfind("sync.simd.end.exec").unwrap();
        assert!(buf_pos < end_pos);
        assert!(sb.program.compute_count() > 0);
    }

    #[test]
    fn whole_suite_schedules() {
        let low = lowering();
        for bench in tandem_model::zoo::Benchmark::ALL {
            let g = bench.graph();
            let blocks = schedule_graph(&low, &g).unwrap();
            assert!(!blocks.is_empty(), "{}", g.name);
            for sb in &blocks {
                // every program decodes back from its binary form
                let words = sb.program.encode();
                let decoded = Program::decode(&words).unwrap();
                assert_eq!(decoded, sb.program);
            }
        }
    }
}
