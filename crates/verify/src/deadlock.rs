//! Cross-engine happens-before analysis: builds the GEMM↔Tandem
//! sync-region graph and finds ordering deadlocks the structural
//! pairing check cannot see.
//!
//! The model (paper §4.2, Figure 10): the Inst. Dispatch unit streams
//! execution regions in program order, so region *i+1* cannot begin
//! before region *i* was dispatched — a **dispatch** edge `i → i+1`.
//! A Tandem (SIMD) region that releases Output-BUF ownership of group
//! *g* (`sync.simd.end.buf g`) consumes the tile the GEMM region of
//! group *g* produced, so the GEMM region must **complete before** the
//! Tandem region may run — a **wait** edge `GEMM(g) → SIMD(g)`. Two
//! failure shapes follow:
//!
//! * **Ordering cycle** — the producing GEMM region sits *after* the
//!   consuming Tandem region in program order: the dispatch chain
//!   orders `SIMD(g) → … → GEMM(g)` while the wait edge orders
//!   `GEMM(g) → SIMD(g)`. Both units starve. The pairing check is
//!   blind to this — every region is perfectly matched.
//! * **Unreachable wait** — the Tandem region waits on a group no GEMM
//!   region anywhere signals; the completion can never arrive.
//!
//! The analysis runs only over structurally well-formed region streams
//! (pairing errors already reported by `sync-pairing` would make the
//! graph meaningless), so the two passes never double-report.

use crate::diag::{Diagnostic, Rule};
use crate::sync::unit_name;
use tandem_isa::{Instruction, Program, SyncEdge, SyncKind, SyncUnit};

/// One well-formed execution region of the sync stream.
struct Region {
    unit: SyncUnit,
    group: u8,
    start_pc: usize,
    /// Output-BUF groups this region releases (`end.buf`), in order.
    releases: Vec<(u8, usize)>,
}

/// The `sync-deadlock` pass: the happens-before deadlock analysis.
pub(crate) fn check(program: &Program, diags: &mut Vec<Diagnostic>) {
    let Some(regions) = extract_regions(program) else {
        return; // malformed stream — sync-pairing owns those findings
    };
    let n = regions.len();

    // Adjacency: dispatch serialization i → i+1, plus wait edges
    // GEMM(g) → SIMD region releasing g. The wait source is the
    // nearest GEMM(g) *before* the consumer when one exists,
    // otherwise the earliest GEMM(g) anywhere (whose later position
    // is exactly the cycle being diagnosed).
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for i in 1..n {
        edges[i - 1].push(i);
    }
    for (ri, region) in regions.iter().enumerate() {
        if region.unit != SyncUnit::Simd {
            continue;
        }
        for &(group, release_pc) in &region.releases {
            let producer = regions[..ri]
                .iter()
                .rposition(|r| r.unit == SyncUnit::Gemm && r.group == group)
                .or_else(|| {
                    regions
                        .iter()
                        .position(|r| r.unit == SyncUnit::Gemm && r.group == group)
                });
            match producer {
                Some(pi) => edges[pi].push(ri),
                None => diags.push(Diagnostic::new(
                    release_pc,
                    Rule::SyncDeadlock,
                    format!(
                        "region {}/{} waits to hand off Output-BUF group {group}, \
                             but no gemm region ever signals that group — the \
                             completion cannot arrive",
                        unit_name(region.unit),
                        region.group,
                    ),
                )),
            }
        }
    }

    // Cycle detection: DFS three-coloring over the happens-before
    // graph; a back edge closes a cycle. Each node is reported at
    // most once (at the wait that closes its cycle).
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut reported = vec![false; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS with an explicit edge cursor.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&(node, cursor)) = stack.last() {
            if cursor < edges[node].len() {
                stack.last_mut().expect("stack is non-empty").1 += 1;
                let next = edges[node][cursor];
                match color[next] {
                    0 => {
                        color[next] = 1;
                        stack.push((next, 0));
                    }
                    // Back edge node → next: the cycle is the
                    // stack suffix from `next` through `node`.
                    1 if !reported[next] => {
                        reported[next] = true;
                        let members: Vec<String> = stack
                            .iter()
                            .skip_while(|&&(v, _)| v != next)
                            .map(|&(v, _)| {
                                format!(
                                    "{}/{} (pc {})",
                                    unit_name(regions[v].unit),
                                    regions[v].group,
                                    regions[v].start_pc,
                                )
                            })
                            .collect();
                        diags.push(Diagnostic::new(
                            regions[next].start_pc,
                            Rule::SyncDeadlock,
                            format!(
                                "happens-before cycle between sync regions \
                                     [{}] — dispatch order and Output-BUF \
                                     handoff each wait on the other",
                                members.join(" → "),
                            ),
                        ));
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
}

/// Extracts the region stream, or `None` when any structural pairing
/// rule is violated (unmatched/overlapping regions, releases outside a
/// region, start.buf).
fn extract_regions(program: &Program) -> Option<Vec<Region>> {
    let mut regions: Vec<Region> = Vec::new();
    let mut open: Option<Region> = None;
    for (pc, instr) in program.iter().enumerate() {
        let Instruction::Sync(info) = instr else {
            continue;
        };
        match (info.kind, info.edge) {
            (SyncKind::Exec, SyncEdge::Start) => {
                if open.is_some() {
                    return None;
                }
                open = Some(Region {
                    unit: info.unit,
                    group: info.group,
                    start_pc: pc,
                    releases: Vec::new(),
                });
            }
            (SyncKind::Exec, SyncEdge::End) => {
                let region = open.take()?;
                if region.unit != info.unit || region.group != info.group {
                    return None;
                }
                regions.push(region);
            }
            (SyncKind::Buf, SyncEdge::End) => {
                let region = open.as_mut()?;
                if region.unit != info.unit || region.group != info.group {
                    return None;
                }
                region.releases.push((info.group, pc));
            }
            (SyncKind::Buf, SyncEdge::Start) => return None,
        }
    }
    if open.is_some() {
        return None;
    }
    Some(regions)
}
