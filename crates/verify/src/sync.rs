//! Synchronization pairing: every `sync.*.start.exec` must be closed by
//! the matching `sync.*.end.exec` (same unit and group, innermost
//! first), Output-BUF releases must sit inside their unit's open region,
//! and no two execution regions may overlap — the Inst. Dispatch unit
//! routes one contiguous region at a time (paper §4.2, Figure 10).

use crate::diag::{Diagnostic, Rule};
use tandem_isa::{Instruction, Program, SyncEdge, SyncKind, SyncUnit};

pub(crate) fn unit_name(unit: SyncUnit) -> &'static str {
    match unit {
        SyncUnit::Gemm => "gemm",
        SyncUnit::Simd => "simd",
    }
}

/// The `sync-pairing` pass: the structural pairing check.
pub(crate) fn check(program: &Program, diags: &mut Vec<Diagnostic>) {
    // Open execution regions as (unit, group, pc-of-start). The dispatch
    // unit is single-stream, so this behaves as a strict stack; any
    // nesting at all is already a violation, reported once at the inner
    // start and still tracked so the matching ends resolve.
    let mut open: Vec<(SyncUnit, u8, usize)> = Vec::new();
    let mut released: Vec<(SyncUnit, u8)> = Vec::new();
    for (pc, instr) in program.iter().enumerate() {
        let Instruction::Sync(info) = instr else {
            continue;
        };
        match (info.kind, info.edge) {
            (SyncKind::Exec, SyncEdge::Start) => {
                if let Some(&(u, g, p)) = open.last() {
                    diags.push(Diagnostic::new(
                        pc,
                        Rule::OverlappingSyncRegions,
                        format!(
                            "execution region {}/{} starts while {}/{} (opened at pc {p}) \
                             is still open — the units would deadlock waiting on each other",
                            unit_name(info.unit),
                            info.group,
                            unit_name(u),
                            g,
                        ),
                    ));
                }
                open.push((info.unit, info.group, pc));
            }
            (SyncKind::Exec, SyncEdge::End) => match open.pop() {
                Some((u, g, p)) if u == info.unit && g == info.group => {
                    let _ = p;
                }
                Some((u, g, p)) => {
                    diags.push(Diagnostic::new(
                        pc,
                        Rule::UnmatchedSyncEnd,
                        format!(
                            "sync.{}.end.exec group {} closes over region {}/{} opened at \
                             pc {p} — reordered start/end pair",
                            unit_name(info.unit),
                            info.group,
                            unit_name(u),
                            g,
                        ),
                    ));
                }
                None => {
                    diags.push(Diagnostic::new(
                        pc,
                        Rule::UnmatchedSyncEnd,
                        format!(
                            "sync.{}.end.exec group {} has no open execution region",
                            unit_name(info.unit),
                            info.group,
                        ),
                    ));
                }
            },
            (SyncKind::Buf, SyncEdge::End) => {
                let inside = open
                    .iter()
                    .any(|&(u, g, _)| u == info.unit && g == info.group);
                if !inside {
                    diags.push(Diagnostic::new(
                        pc,
                        Rule::BufReleaseOutsideRegion,
                        format!(
                            "Output-BUF release sync.{}.end.buf group {} outside the \
                             {}/{} execution region it belongs to",
                            unit_name(info.unit),
                            info.group,
                            unit_name(info.unit),
                            info.group,
                        ),
                    ));
                }
                let key = (info.unit, info.group);
                if released.contains(&key) {
                    diags.push(Diagnostic::new(
                        pc,
                        Rule::DuplicateBufRelease,
                        format!(
                            "Output-BUF ownership of {}/{} released twice — the GEMM unit \
                             would overrun a buffer the Tandem side still reads",
                            unit_name(info.unit),
                            info.group,
                        ),
                    ));
                } else {
                    released.push(key);
                }
            }
            (SyncKind::Buf, SyncEdge::Start) => {
                diags.push(Diagnostic::new(
                    pc,
                    Rule::BufAcquireUnsupported,
                    "sync.*.start.buf has no hardware semantics — ownership transfers \
                     on the End edge only (paper §3.5 fluid Output-BUF ownership)"
                        .to_string(),
                ));
            }
        }
    }
    for (u, g, p) in open {
        diags.push(Diagnostic::new(
            p,
            Rule::UnmatchedSyncStart,
            format!(
                "execution region {}/{} opened here is never closed — the execution \
                 FSM waits for a completion that cannot arrive",
                unit_name(u),
                g,
            ),
        ));
    }
}
