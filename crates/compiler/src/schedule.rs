//! Block-program assembly (paper Figure 10, step 0): weaving the
//! synchronization instructions around the GEMM configuration region and
//! the per-tile non-GEMM program so the NPU's Inst. Dispatch unit can
//! route each region to its unit and the execution controller can track
//! tile completion and Output-BUF ownership.

use crate::blocks::{BlockKind, ExecutionBlock};
use crate::lower::{CompileError, CompiledOp, OpLowering};
use crate::tune_space::Schedule;
use std::borrow::Borrow;
use std::hash::Hasher;
use tandem_isa::{CastTarget, Instruction, Program, SyncEdge, SyncKind, SyncUnit};
use tandem_model::hash::{WordHasher, WordMap};
use tandem_model::{Graph, Node, OpClass};
use tandem_verify::{Verifier, VerifyConfig, VerifyMode};

/// Options controlling graph compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileOptions {
    /// Run the `tandem-verify` static passes over the scheduled blocks,
    /// each distinct program once, and fail compilation on any
    /// error-severity finding. Defaults to on in every build profile;
    /// callers that only want the programs (`tandem_lint`, which
    /// verifies them itself) turn it off.
    pub verify: bool,
    /// Loop-summarization mode for the verifier. Defaults to the
    /// O(program-size) widened summaries in every build, the mode the
    /// NPU and the autotuner gate run; the exact per-iteration oracle is
    /// for differential tests.
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
            verify: true,
            verify_mode: VerifyMode::Widened,
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
    // Lower the nodes first (up to the first error that is not
    // `Unsupported`, as assembly would meet it) so the program is sized
    // once: up to three GEMM-region instructions, the Tandem region's
    // start, end and Output-BUF release, and every tile program.
    let mut lowered = Vec::with_capacity(block.non_gemm.len());
    let mut len = 6;
    for &id in &block.non_gemm {
        let r = lower(graph.node(id));
        match r.borrow() {
            Ok(c) => len += c.tiles.as_ref().map_or(0, |(p, _)| p.len()),
            Err(CompileError::Unsupported { .. }) => {}
            Err(e) => return Err(e.clone()),
        }
        lowered.push(r);
    }
    let mut program = Program::with_capacity(len);
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
        for (i, lowered) in lowered.iter().enumerate() {
            let Ok(compiled) = lowered.borrow() else {
                continue; // `Unsupported`: nothing to run on the Tandem side
            };
            if let Some((prog, reps)) = &compiled.tiles {
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
/// `opts.verify` set, the `tandem-verify` pipeline (closure, sync
/// pairing, deadlock, scratchpad, dead traffic) runs once per distinct
/// block program before the schedule is returned; see
/// [`schedule_graph_with`].
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
/// every block under sync group `index % 32`, then gates the assembled
/// programs in block order on [`Verifier::is_clean`] (if a `verifier`
/// is given), which skips the warnings-only dead-traffic pass. The first
/// failing block is verified in full for its report.
///
/// A block whose syncs all carry its own group and whose program equals
/// an earlier clean block's up to that group is clean without being
/// verified: the five passes (closure, sync pairing, deadlock,
/// scratchpad, dead traffic) compare sync groups only for equality, so
/// relabeling a block's one group changes no finding. Every other block
/// is verified itself, the first failing one included.
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
        // The first clean block of each group-free fingerprint.
        let mut clean: WordMap<u64, usize> = WordMap::default();
        for (i, sb) in blocks.iter().enumerate() {
            let fingerprint = group_free_fingerprint(&sb.program, (i % 32) as u8);
            if has_clean_twin(&blocks, &clean, fingerprint, &sb.program) {
                continue;
            }
            if !verifier.is_clean(&sb.program) {
                let report = verifier.verify(&sb.program);
                return Err(CompileError::Verification { block: i, report });
            }
            if let Some(fp) = fingerprint {
                clean.entry(fp).or_insert(i);
            }
        }
    }
    Ok(blocks)
}

/// A hash of `program`'s encoded words with every sync group zeroed, or
/// `None` when some sync carries a group other than the block's own
/// `group`. Only a block whose syncs all carry one group verifies like
/// any relabeling of it: the sync and deadlock passes compare groups
/// only for equality.
fn group_free_fingerprint(program: &Program, group: u8) -> Option<u64> {
    let mut h = WordHasher::default();
    for &instr in program {
        if matches!(instr, Instruction::Sync(info) if info.group != group) {
            return None;
        }
        h.write_u32(instr.ungrouped().encode());
    }
    Some(h.finish())
}

/// Whether `program`, of group-free `fingerprint`, equals a clean block
/// of `blocks` (indexed in `clean` by fingerprint) up to sync groups, so
/// that it is clean too. A fingerprint alone never decides.
fn has_clean_twin(
    blocks: &[ScheduledBlock],
    clean: &WordMap<u64, usize>,
    fingerprint: Option<u64>,
    program: &Program,
) -> bool {
    let Some(&j) = fingerprint.and_then(|fp| clean.get(&fp)) else {
        return false;
    };
    let twin = &blocks[j].program;
    twin.len() == program.len()
        && twin
            .iter()
            .zip(program)
            .all(|(a, b)| a.ungrouped() == b.ungrouped())
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
    fn a_fingerprint_match_alone_is_no_twin() {
        let g = fused_graph();
        let blocks = schedule_graph(&lowering(), &g).unwrap();
        let program = &blocks[0].program;
        let fp = group_free_fingerprint(program, 0);
        // The same program under another group is a twin …
        let relabeled: Program = program.iter().map(|&i| regrouped(i, 5)).collect();
        let fp5 = group_free_fingerprint(&relabeled, 5);
        assert_eq!(fp5, fp);
        let clean: WordMap<u64, usize> = [(fp.unwrap(), 0)].into_iter().collect();
        assert!(has_clean_twin(&blocks, &clean, fp5, &relabeled));
        // … a program that only shares its fingerprint is not …
        let mut other = program.clone();
        other.push(Instruction::DatatypeConfig {
            target: CastTarget::Fxp8,
        });
        assert!(!has_clean_twin(&blocks, &clean, fp, &other));
        // … and a foreign group rules a block out of matching.
        assert_eq!(group_free_fingerprint(&relabeled, 0), None);
    }

    /// `instr` with its sync group, if it has one, set to `group`.
    fn regrouped(instr: Instruction, group: u8) -> Instruction {
        match instr {
            Instruction::Sync(info) => Instruction::sync(info.unit, info.edge, info.kind, group),
            other => other,
        }
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
