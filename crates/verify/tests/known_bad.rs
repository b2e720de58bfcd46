//! Known-bad fixtures: hand-built programs that each violate exactly one
//! hardware invariant, asserting the verifier reports the precise rule at
//! the precise instruction.

use tandem_isa::{
    AluFunc, Instruction, LoopBindings, Namespace, Operand, Program, SyncEdge, SyncInfo, SyncKind,
    SyncUnit,
};
use tandem_verify::{Rule, Severity, Verifier, VerifyConfig, VerifyReport};

fn verify(p: &Program) -> VerifyReport {
    // tiny machine: 8 lanes, 64 Interim rows, 128 OBUF rows, 32 IMM slots
    let verifier = Verifier::new(VerifyConfig::tiny());
    let report = verifier.verify(p);
    // The gate and prior entry points run a subset of the passes; on
    // every fixture they must agree with the full report.
    assert_eq!(
        (verifier.is_clean(p), verifier.wasted_words(p)),
        (report.is_clean(), report.wasted_words()),
        "entry points disagree with verify:\n{report}"
    );
    report
}

#[track_caller]
fn assert_diag(report: &VerifyReport, rule: Rule, pc: usize) {
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == rule && d.pc == pc),
        "expected {rule:?} at pc {pc}, got:\n{report}"
    );
}

fn op(ns: Namespace, index: u8) -> Operand {
    Operand::new(ns, index)
}

fn i1(index: u8) -> Operand {
    op(Namespace::Interim1, index)
}

fn imm(index: u8) -> Operand {
    op(Namespace::Imm, index)
}

// --- sync pairing ---

#[test]
fn unpaired_sync_start_is_a_deadlock() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::Start,
        SyncKind::Exec,
        0,
    ));
    let r = verify(&p);
    assert!(!r.is_clean());
    assert_diag(&r, Rule::UnmatchedSyncStart, 0);
}

#[test]
fn unpaired_sync_end_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Gemm,
        SyncEdge::End,
        SyncKind::Exec,
        0,
    ));
    let r = verify(&p);
    assert_diag(&r, Rule::UnmatchedSyncEnd, 0);
}

#[test]
fn reordered_sync_pairs_are_flagged() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Gemm,
        SyncEdge::Start,
        SyncKind::Exec,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::Start,
        SyncKind::Exec,
        1,
    ));
    p.push(Instruction::sync(
        SyncUnit::Gemm,
        SyncEdge::End,
        SyncKind::Exec,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Exec,
        1,
    ));
    let r = verify(&p);
    assert_diag(&r, Rule::OverlappingSyncRegions, 1);
    assert_diag(&r, Rule::UnmatchedSyncEnd, 2);
}

#[test]
fn buf_release_outside_its_region_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Buf,
        0,
    ));
    let r = verify(&p);
    assert_diag(&r, Rule::BufReleaseOutsideRegion, 0);
}

#[test]
fn duplicate_buf_release_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::Start,
        SyncKind::Exec,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Buf,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Buf,
        0,
    ));
    p.push(Instruction::sync(
        SyncUnit::Simd,
        SyncEdge::End,
        SyncKind::Exec,
        0,
    ));
    let r = verify(&p);
    assert_diag(&r, Rule::DuplicateBufRelease, 2);
}

// --- scratchpad bounds ---

#[test]
fn oob_namespace_write_is_flagged() {
    // Base 60, stride 1, 10 iterations: rows [60, 69] of a 64-row BUF.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 60,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 10,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(0)),
            src1: None,
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    let r = verify(&p);
    assert!(!r.is_clean());
    assert_diag(&r, Rule::OobWrite, 5);
    let d = r.diagnostics.iter().find(|d| d.rule == Rule::OobWrite);
    assert!(
        d.unwrap().message.contains("[60, 69]"),
        "message should carry the offending interval: {r}"
    );
}

#[test]
fn oob_namespace_read_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 60,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 1,
        stride: 1,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 10,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(1)),
            src1: Some(i1(0)),
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Max, i1(1), i1(0), i1(0)));
    let r = verify(&p);
    assert_diag(&r, Rule::OobRead, 6);
    // the destination walk [0, 9] is fine — no write diagnostic
    assert!(!r.diagnostics.iter().any(|d| d.rule == Rule::OobWrite));
}

#[test]
fn frozen_destination_waw_hazard_is_flagged() {
    // The destination's address never advances while the source walks 4
    // rows, nothing reads the destination back, and the op is not
    // read-modify-write: 3 of the 4 iterations' values are lost.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 32,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 1,
        stride: 0,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 4,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: None,
            src1: Some(i1(0)),
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Add, i1(1), i1(0), imm(0)));
    let r = verify(&p);
    assert!(!r.is_clean());
    assert_diag(&r, Rule::WriteAfterWrite, 7);
}

#[test]
fn macc_accumulation_is_not_a_waw_hazard() {
    // Same shape as the WAW fixture but with MACC, which reads its
    // destination — a legitimate reduction.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 32,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 1,
        stride: 0,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 4,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: None,
            src1: Some(i1(0)),
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Macc, i1(1), i1(0), imm(0)));
    let r = verify(&p);
    assert!(r.is_clean(), "{r}");
}

// --- loop discipline ---

#[test]
fn ill_nested_loop_level_is_flagged() {
    // Level 1 configured before level 0 exists.
    let mut p = Program::new();
    p.push(Instruction::LoopSetIter {
        loop_id: 1,
        count: 4,
    });
    let r = verify(&p);
    assert_diag(&r, Rule::LoopLevelOrder, 0);
}

#[test]
fn set_index_without_a_level_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings::none(),
    });
    let r = verify(&p);
    assert_diag(&r, Rule::LoopIndexWithoutLevel, 0);
}

#[test]
fn loop_body_overrunning_the_program_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 2,
    });
    // program ends here — the declared 2-instruction body does not exist
    let r = verify(&p);
    assert_diag(&r, Rule::MalformedLoopBody, 1);
}

#[test]
fn non_compute_loop_body_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 0,
    }); // configuration inside a repeated body
    let r = verify(&p);
    assert_diag(&r, Rule::MalformedLoopBody, 3);
}

#[test]
fn zero_iteration_loop_is_a_warning_not_an_error() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 0,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(0)),
            src1: None,
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    let r = verify(&p);
    assert_diag(&r, Rule::LoopZeroIterations, 3);
    assert_eq!(r.diagnostics[0].severity(), Severity::Warning);
    assert!(r.is_clean(), "warnings must not fail verification: {r}");
}

// --- operand legality ---

#[test]
fn imm_destination_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::alu(AluFunc::Add, imm(1), imm(0), imm(0)));
    let r = verify(&p);
    assert_diag(&r, Rule::ImmDestination, 1);
}

#[test]
fn uninitialized_imm_read_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(3), imm(3)));
    let r = verify(&p);
    assert_diag(&r, Rule::UninitializedImmRead, 1);
}

#[test]
fn unconfigured_iterator_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::alu(AluFunc::Max, i1(0), i1(1), i1(1)));
    let r = verify(&p);
    assert_diag(&r, Rule::UnconfiguredIterator, 0);
}

// --- permute engine ---

#[test]
fn permute_start_without_configuration_is_flagged() {
    let mut p = Program::new();
    p.push(Instruction::PermuteStart { cross_lane: false });
    let r = verify(&p);
    assert_diag(&r, Rule::PermuteNotConfigured, 0);
}

#[test]
fn permute_walk_past_the_scratchpad_is_flagged() {
    // tiny machine: 64 rows × 8 lanes = 512 words per Interim BUF.
    let mut p = Program::new();
    p.push(Instruction::PermuteSetBase {
        is_dst: false,
        ns: Namespace::Interim1,
        addr: 600,
    });
    p.push(Instruction::PermuteStart { cross_lane: false });
    let r = verify(&p);
    assert_diag(&r, Rule::PermuteOutOfBounds, 1);
}

// --- cross-engine happens-before (sync-deadlock) ---

fn sync(unit: SyncUnit, edge: SyncEdge, kind: SyncKind, group: u8) -> Instruction {
    Instruction::sync(unit, edge, kind, group)
}

#[test]
fn obuf_handoff_before_its_producer_is_a_deadlock_cycle() {
    // Perfectly paired regions — the structural check is happy — but the
    // Tandem region hands off Output-BUF group 1 *before* the GEMM
    // region that signals group 1 is dispatched: dispatch order says
    // simd-then-gemm, the handoff says gemm-before-simd. Cycle.
    let mut p = Program::new();
    p.push(sync(SyncUnit::Simd, SyncEdge::Start, SyncKind::Exec, 1)); // 0
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Buf, 1)); // 1
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Exec, 1)); // 2
    p.push(sync(SyncUnit::Gemm, SyncEdge::Start, SyncKind::Exec, 1)); // 3
    p.push(sync(SyncUnit::Gemm, SyncEdge::End, SyncKind::Exec, 1)); // 4
    let r = verify(&p);
    assert!(
        !r.diagnostics.iter().any(|d| d.rule != Rule::SyncDeadlock),
        "pairing must be clean so the cycle is the only finding: {r}"
    );
    assert_diag(&r, Rule::SyncDeadlock, 0);
    assert!(!r.is_clean());
}

#[test]
fn obuf_handoff_with_no_producer_is_an_unreachable_wait() {
    // The Tandem region releases Output-BUF group 0, but no GEMM region
    // anywhere signals group 0 — the completion can never arrive.
    let mut p = Program::new();
    p.push(sync(SyncUnit::Simd, SyncEdge::Start, SyncKind::Exec, 0)); // 0
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Buf, 0)); // 1
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Exec, 0)); // 2
    let r = verify(&p);
    assert_diag(&r, Rule::SyncDeadlock, 1);
    assert!(!r.is_clean());
}

#[test]
fn producer_before_consumer_is_not_a_deadlock() {
    // The compiled-schedule shape: gemm region, then the simd region
    // consuming and releasing the same group. No finding.
    let mut p = Program::new();
    p.push(sync(SyncUnit::Gemm, SyncEdge::Start, SyncKind::Exec, 2));
    p.push(sync(SyncUnit::Gemm, SyncEdge::End, SyncKind::Exec, 2));
    p.push(sync(SyncUnit::Simd, SyncEdge::Start, SyncKind::Exec, 2));
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Buf, 2));
    p.push(sync(SyncUnit::Simd, SyncEdge::End, SyncKind::Exec, 2));
    let r = verify(&p);
    assert!(r.is_clean(), "{r}");
    assert!(r.diagnostics.is_empty(), "{r}");
}

// --- dead-traffic lints ---

#[test]
fn store_overwritten_before_any_read_is_a_dead_store() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 5,
    }); // 1
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 2: store row 5
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 3: overwrite, unread
    let r = verify(&p);
    assert_diag(&r, Rule::DeadStore, 2);
    let d = r
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::DeadStore)
        .unwrap();
    assert_eq!(d.severity(), Severity::Warning);
    // 1 dead row × 8 lanes on the tiny machine
    assert!(d.message.contains("~8 wasted words"), "{}", d.message);
    assert!(r.is_clean(), "a lint must not fail verification: {r}");
}

#[test]
fn store_read_before_overwrite_is_not_dead() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 5,
    }); // 1
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 9,
    }); // 2
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 3: store row 5
    p.push(Instruction::alu(AluFunc::Add, i1(1), i1(0), imm(0))); // 4: read row 5
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 5: overwrite after read
    let r = verify(&p);
    assert!(
        !r.diagnostics.iter().any(|d| d.rule == Rule::DeadStore),
        "{r}"
    );
}

#[test]
fn live_out_store_at_program_end_is_not_dead() {
    // The Data Access Engine stores result tiles after the program ends —
    // a pending store at the end is live-out, not waste.
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 });
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 5,
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    let r = verify(&p);
    assert!(
        !r.diagnostics.iter().any(|d| d.rule == Rule::DeadStore),
        "{r}"
    );
}

#[test]
fn imm_value_replaced_unread_is_redundant() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0: dead
    p.push(Instruction::ImmWriteLow { index: 0, value: 2 }); // 1: read below
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    }); // 2
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 3
    let r = verify(&p);
    assert_diag(&r, Rule::RedundantImmWrite, 0);
    assert_eq!(
        r.diagnostics
            .iter()
            .filter(|d| d.rule == Rule::RedundantImmWrite)
            .count(),
        1,
        "the live second write must not be flagged: {r}"
    );
    assert!(r.is_clean(), "{r}");
}

#[test]
fn imm_value_never_read_is_redundant() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 3, value: 7 }); // 0: never read
    let r = verify(&p);
    assert_diag(&r, Rule::RedundantImmWrite, 0);
}

#[test]
fn full_32bit_imm_write_pair_is_one_write_not_a_kill() {
    // ImmWriteLow + ImmWriteHigh materialize ONE 32-bit constant: the
    // high half must not kill the in-flight low half.
    let mut p = Program::new();
    for i in Instruction::imm_write(0, 100_000) {
        p.push(i); // 0: low, 1: high
    }
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 0,
    });
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0)));
    let r = verify(&p);
    assert!(
        !r.diagnostics
            .iter()
            .any(|d| d.rule == Rule::RedundantImmWrite),
        "{r}"
    );
}

#[test]
fn intra_nest_producer_consumer_store_is_not_dead() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 5,
    }); // 1
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 1,
        addr: 9,
    }); // 2
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    }); // 3
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings::none(),
    }); // 4
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 2,
    }); // 5
        // Body: pc 6 stores row 5 and pc 7 reads it into row 9, so every
        // iteration consumes the value the store just wrote.
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 6
    p.push(Instruction::alu(AluFunc::Add, i1(1), i1(0), imm(0))); // 7
                                                                  // A later overwrite of row 5 must not make pc 6 dead.
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 8
    let r = verify(&p);
    assert!(
        !r.diagnostics.iter().any(|d| d.rule == Rule::DeadStore),
        "store at pc 6 is read at pc 7 every iteration, yet: {r}"
    );
}

/// Pushes a one-level nest: `count` iterations of one store through
/// Interim1 iterator `index`, based at `base` with stride `stride`.
fn push_strided_store(p: &mut Program, index: u8, base: u16, stride: i16, count: u16) {
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index,
        addr: base,
    });
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index,
        stride,
    });
    p.push(Instruction::LoopSetIter { loop_id: 0, count });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(index)),
            src1: None,
            src2: None,
        },
    });
    p.push(Instruction::alu(AluFunc::Add, i1(index), imm(0), imm(0)));
}

/// The DeadStore findings of `r` as `(pc, wasted words)`.
fn dead_stores(r: &VerifyReport) -> Vec<(usize, Option<u64>)> {
    r.diagnostics
        .iter()
        .filter(|d| d.rule == Rule::DeadStore)
        .map(|d| (d.pc, d.wasted_words))
        .collect()
}

#[test]
fn gapped_store_kills_only_the_rows_it_writes() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    push_strided_store(&mut p, 0, 0, 1, 8); // 1..=5: pc 5 stores rows 0..=7
    push_strided_store(&mut p, 1, 0, 2, 4); // 6..=10: pc 10 stores rows 0, 2, 4, 6
    let r = verify(&p);
    // Rows 1, 3, 5 and 7 sit in the gaps of the strided store: they stay
    // live-out, so only 4 rows × 8 lanes of pc 5 are wasted.
    assert_eq!(dead_stores(&r), vec![(5, Some(32))], "{r}");
    assert!(r.is_clean(), "{r}");
}

#[test]
fn footprint_is_clipped_at_the_namespace_edge() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    push_strided_store(&mut p, 0, 60, 1, 10); // pc 5: rows 60..=69 of 64
    push_strided_store(&mut p, 1, 58, 1, 10); // pc 10: rows 58..=67 of 64
    let r = verify(&p);
    assert_diag(&r, Rule::OobWrite, 5);
    assert_diag(&r, Rule::OobWrite, 10);
    // Only the in-range overlap, rows 60..=63, is killed.
    assert_eq!(dead_stores(&r), vec![(5, Some(32))], "{r}");
}

#[test]
fn one_store_kills_two_earlier_stores_with_a_count_each() {
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    push_strided_store(&mut p, 0, 0, 1, 4); // pc 5: rows 0..=3
    push_strided_store(&mut p, 1, 4, 1, 6); // pc 10: rows 4..=9
    push_strided_store(&mut p, 2, 2, 1, 6); // pc 15: rows 2..=7
    let r = verify(&p);
    // pc 15 kills rows 2..=3 of pc 5 and rows 4..=7 of pc 10.
    assert_eq!(dead_stores(&r), vec![(5, Some(16)), (10, Some(32))], "{r}");
    let texts: Vec<&str> = r
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::DeadStore)
        .map(|d| d.message.as_str())
        .collect();
    assert!(texts[0].contains("writes 2 row(s)"), "{r}");
    assert!(texts[1].contains("writes 4 row(s)"), "{r}");
}

// --- binary closure ---

/// A sync group past the 5-bit field (built directly, bypassing
/// `Instruction::sync`'s range assert) encodes with its high bit cut
/// off: group 40 re-decodes as group 8. The region is otherwise well
/// paired, so the closure check alone must reject it.
#[test]
fn sync_group_past_its_field_fails_the_round_trip() {
    let sync = |edge| {
        Instruction::Sync(SyncInfo {
            unit: SyncUnit::Simd,
            edge,
            kind: SyncKind::Exec,
            group: 40,
        })
    };
    let mut p = Program::new();
    p.push(sync(SyncEdge::Start)); // 0
    p.push(sync(SyncEdge::End)); // 1
    let r = verify(&p);
    assert!(!r.is_clean());
    assert!(!Verifier::new(VerifyConfig::tiny()).is_clean(&p));
    let found: Vec<(usize, Rule)> = r.diagnostics.iter().map(|d| (d.pc, d.rule)).collect();
    assert_eq!(
        found,
        vec![
            (0, Rule::EncodeDecodeMismatch),
            (1, Rule::EncodeDecodeMismatch)
        ],
        "{r}"
    );
    assert!(r.diagnostics[0].message.contains("re-decodes as"), "{r}");
}

// --- widened vs exact agreement on a known overflow ---

/// The two summarization modes must catch the same scratchpad overflow
/// with byte-identical diagnostics: widening the affine streams loses
/// nothing on real programs, it only skips the per-iteration walk.
#[test]
fn widened_overflow_is_also_caught_by_exact() {
    use tandem_verify::VerifyMode;
    let mut p = Program::new();
    p.push(Instruction::ImmWriteLow { index: 0, value: 1 }); // 0
    p.push(Instruction::IterConfigBase {
        ns: Namespace::Interim1,
        index: 0,
        addr: 60,
    }); // 1
    p.push(Instruction::IterConfigStride {
        ns: Namespace::Interim1,
        index: 0,
        stride: 1,
    }); // 2
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 10,
    }); // 3
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(i1(0)),
            src1: None,
            src2: None,
        },
    }); // 4
    p.push(Instruction::alu(AluFunc::Add, i1(0), imm(0), imm(0))); // 5: rows [60, 69] of 64
    let wr = Verifier::new(VerifyConfig::tiny().with_mode(VerifyMode::Widened)).verify(&p);
    let er = Verifier::new(VerifyConfig::tiny().with_mode(VerifyMode::Exact)).verify(&p);
    assert_diag(&wr, Rule::OobWrite, 5);
    assert_diag(&er, Rule::OobWrite, 5);
    let d = wr
        .diagnostics
        .iter()
        .find(|d| d.rule == Rule::OobWrite)
        .unwrap();
    assert!(d.message.contains("[60, 69]"), "{}", d.message);
    assert_eq!(wr.diagnostics, er.diagnostics, "modes must bit-agree");
}
