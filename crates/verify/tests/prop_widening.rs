//! Property tests for the widened loop summarization, with shrinking
//! (the shared harness in `common/`: seeded xorshift64* generation,
//! minimal counterexamples, zero external dependencies).
//!
//! The contract under test is the soundness side of
//! `VerifyMode::Widened`: on any program — including adversarial random
//! ones full of malformed loops, unconfigured iterators and
//! out-of-bounds walks — the widened mode never reports *fewer*
//! error-severity diagnostics than the exact per-iteration oracle. On
//! the affine streams the Tandem ISA can express, the two modes in fact
//! agree bit-for-bit, which the second property and the 7-model zoo
//! test pin down.

mod common;

use common::{arb_program, Rng};
use tandem_isa::Program;
use tandem_verify::{Severity, Verifier, VerifyConfig, VerifyMode, VerifyReport};

fn verifier(mode: VerifyMode) -> Verifier {
    Verifier::new(VerifyConfig::tiny().with_mode(mode))
}

fn verify(mode: VerifyMode, p: &Program) -> VerifyReport {
    verifier(mode).verify(p)
}

fn errors(r: &VerifyReport) -> usize {
    r.diagnostics
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count()
}

fn forall_programs(seed: u64, cases: usize, prop: impl Fn(&Program) -> bool) {
    common::forall_programs(seed, cases, arb_program, prop, |p| {
        format!(
            "  widened:\n{}\n  exact:\n{}",
            verify(VerifyMode::Widened, p),
            verify(VerifyMode::Exact, p)
        )
    });
}

/// Soundness: widening may only over-approximate — it must never *miss*
/// an error the exact per-iteration oracle reports.
#[test]
fn widened_never_reports_fewer_errors_than_exact() {
    forall_programs(0x57A71C, 1500, |p| {
        errors(&verify(VerifyMode::Widened, p)) >= errors(&verify(VerifyMode::Exact, p))
    });
}

/// Precision: on affine address streams — all the ISA can express — the
/// interval summaries are exact, so the two modes agree diagnostic for
/// diagnostic, not just on counts. In both modes the gate and prior
/// entry points agree with the full report.
#[test]
fn widened_and_exact_agree_bit_for_bit_on_random_programs() {
    forall_programs(0xD1FF5, 1500, |p| {
        verify(VerifyMode::Widened, p).diagnostics == verify(VerifyMode::Exact, p).diagnostics
            && [VerifyMode::Widened, VerifyMode::Exact]
                .into_iter()
                .all(|mode| common::entry_points_agree(&verifier(mode), p))
    });
}

/// The random corpus must actually exercise the rules where the mode
/// matters — a generator that never produced an in-bounds/out-of-bounds
/// address stream would turn the properties above into vacuous truths
/// about sync-pairing noise.
#[test]
fn random_corpus_is_not_vacuous() {
    use tandem_verify::Rule;
    let mut rng = Rng::new(0xC0DE);
    let mut bounds_hits = 0usize;
    let mut distinct: std::collections::BTreeSet<&'static str> = std::collections::BTreeSet::new();
    for _ in 0..300 {
        let p = arb_program(&mut rng);
        for d in &verify(VerifyMode::Widened, &p).diagnostics {
            distinct.insert(d.rule.code());
            if matches!(d.rule, Rule::OobWrite | Rule::OobRead) {
                bounds_hits += 1;
            }
        }
    }
    assert!(
        bounds_hits >= 20,
        "only {bounds_hits} interval-driven bounds findings in 300 programs"
    );
    assert!(
        distinct.len() >= 8,
        "only {} distinct rules fired: {distinct:?}",
        distinct.len()
    );
}

/// The end-to-end agreement guarantee `tandem_lint` enforces in CI,
/// pinned as a test: on every block program of the 7-model zoo, and of
/// BERT-32 and MobileNetV2 under every single-site schedule the tuner's
/// seeding sweep proposes, the two modes produce byte-identical reports.
/// Each block program is checked once up to its sync group: a
/// single-site schedule leaves most blocks as they were, and blocks that
/// differ only in their group (a repeated layer) have the same address
/// streams, the only part of a program the mode reads.
#[test]
fn zoo_modes_agree_exactly() {
    use std::collections::{BTreeMap, HashSet};
    use tandem_compiler::{
        enumerate_sites, schedule_graph_opts, CompileOptions, OpLowering, Schedule,
    };
    use tandem_isa::{Instruction, SyncInfo};
    use tandem_model::{zoo, Graph};
    let (lanes, rows) = (32usize, 512usize);
    let lowering = OpLowering::new(lanes, rows);
    let widened =
        Verifier::new(VerifyConfig::for_lowering(lanes, rows).with_mode(VerifyMode::Widened));
    let exact = Verifier::new(VerifyConfig::for_lowering(lanes, rows).with_mode(VerifyMode::Exact));
    let mut seen = HashSet::new();
    let mut agree = |graph: &Graph, schedule: Schedule| {
        let opts = CompileOptions {
            verify: false,
            schedule,
            ..CompileOptions::default()
        };
        let blocks = schedule_graph_opts(&lowering, graph, &opts)
            .unwrap_or_else(|e| panic!("{}: scheduling failed: {e}", graph.name));
        for (bi, sb) in blocks.iter().enumerate() {
            let ungrouped: Vec<Instruction> = sb
                .program
                .iter()
                .map(|&i| match i {
                    Instruction::Sync(info) => Instruction::Sync(SyncInfo { group: 0, ..info }),
                    other => other,
                })
                .collect();
            if !seen.insert(ungrouped) {
                continue;
            }
            assert_eq!(
                widened.verify(&sb.program),
                exact.verify(&sb.program),
                "{} block {bi} (schedule {:016x}): modes diverge",
                graph.name,
                opts.schedule.digest()
            );
        }
    };
    for bench in zoo::Benchmark::ALL {
        agree(&bench.graph(), Schedule::empty());
    }
    for graph in [zoo::bert_base(32), zoo::mobilenetv2()] {
        let sites = enumerate_sites(&lowering, &graph, |n| lowering.site_key(&graph, n));
        assert!(sites.len() >= 4, "{}: {} sites", graph.name, sites.len());
        for site in &sites {
            for &choice in &site.candidates {
                agree(&graph, Schedule::new(BTreeMap::from([(site.key, choice)])));
            }
        }
    }
}
