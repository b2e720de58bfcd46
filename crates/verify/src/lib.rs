//! # tandem-verify
//!
//! A static dataflow verifier for compiled Tandem ISA programs: an
//! abstract interpretation of the configuration/loop/compute stream that
//! proves — without running the cycle-level simulator — that a program
//! respects the hardware invariants of paper §4–§5:
//!
//! * **Sync correctness** — every GEMM↔Tandem execution region is
//!   opened and closed by a matched `SyncInfo` pair (unit, edge, kind,
//!   group); unmatched or reordered pairs are reported as potential
//!   deadlocks, Output-BUF releases must sit inside their region.
//! * **Scratchpad safety** — interval arithmetic over every loop nest's
//!   address streams bounds each `Namespace` access against the
//!   capacities of [`tandem_core::TandemConfig`]; IMM BUF reads must be
//!   preceded by writes, and frozen-destination loops that advance their
//!   sources are flagged as lost-update (write-after-write) hazards.
//! * **Loop discipline** — Code Repeater levels configured
//!   outermost-first, `SET_INDEX` only with a live level, bodies
//!   compute-only and in range, at most eight levels.
//! * **Encode/decode closure** — the program round-trips bit-identically
//!   through the binary instruction format.
//!
//! The verifier is exact with respect to the reference semantics of
//! `tandem_core::TandemProcessor`: the abstract address of an operand is
//! computed with the same
//! `offset(op) + Σ_L counter[L] × stride(binding[L][slot])` rule the
//! simulator executes.
//!
//! ```
//! use tandem_isa::{Instruction, Program, SyncEdge, SyncKind, SyncUnit};
//! use tandem_verify::{Rule, Verifier, VerifyConfig};
//!
//! let mut p = Program::new();
//! p.push(Instruction::sync(SyncUnit::Simd, SyncEdge::Start, SyncKind::Exec, 0));
//! // missing end marker…
//! let report = Verifier::new(VerifyConfig::paper()).verify(&p);
//! assert_eq!(report.diagnostics[0].rule, Rule::UnmatchedSyncStart);
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod dataflow;
mod deadcode;
mod deadlock;
mod diag;
mod sync;

pub use analysis::{AffineInterval, PassStat, RowSet, VerifyMode};
pub use diag::{Diagnostic, Rule, Severity, VerifyReport};

use std::time::Instant;
use tandem_core::TandemConfig;
use tandem_isa::{Instruction, Namespace, Program};

/// The machine capacities the verifier checks programs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// SIMD lanes (scratchpad banks; permute word capacity = rows × lanes).
    pub lanes: usize,
    /// Rows per Interim BUF.
    pub interim_rows: usize,
    /// Rows in the Output BUF view.
    pub obuf_rows: usize,
    /// IMM BUF slots.
    pub imm_slots: usize,
    /// How loop address streams are summarized ([`VerifyMode::Widened`]
    /// by default; the two modes report identical diagnostics on affine
    /// streams — widened is simply O(program size) instead of O(trips)).
    pub mode: VerifyMode,
}

impl VerifyConfig {
    /// The paper's Table 3 capacities.
    pub fn paper() -> Self {
        VerifyConfig::from(&TandemConfig::paper())
    }

    /// The small unit-test machine.
    pub fn tiny() -> Self {
        VerifyConfig::from(&TandemConfig::tiny())
    }

    /// Capacities for a compiler targeting `lanes` × `interim_rows`
    /// (Output-BUF and IMM sizes keep the paper's values — compiled
    /// Tandem programs address Interim and IMM namespaces only).
    pub fn for_lowering(lanes: usize, interim_rows: usize) -> Self {
        VerifyConfig {
            lanes,
            interim_rows,
            ..Self::paper()
        }
    }

    /// The same capacities with the loop-summarization mode replaced.
    pub fn with_mode(self, mode: VerifyMode) -> Self {
        VerifyConfig { mode, ..self }
    }

    /// Addressable rows (IMM: slots) of `ns`.
    pub fn rows(&self, ns: Namespace) -> usize {
        match ns {
            Namespace::Interim1 | Namespace::Interim2 => self.interim_rows,
            Namespace::Imm => self.imm_slots,
            Namespace::Obuf => self.obuf_rows,
        }
    }
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl From<&TandemConfig> for VerifyConfig {
    fn from(cfg: &TandemConfig) -> Self {
        VerifyConfig {
            lanes: cfg.lanes,
            interim_rows: cfg.namespace_rows(Namespace::Interim1),
            obuf_rows: cfg.namespace_rows(Namespace::Obuf),
            imm_slots: cfg.namespace_rows(Namespace::Imm),
            mode: VerifyMode::default(),
        }
    }
}

/// A verification outcome together with per-pass wall-time statistics.
/// Timings live here — outside [`VerifyReport`] — so report equality
/// stays deterministic across hosts and runs.
#[derive(Debug, Clone)]
pub struct VerifyRun {
    /// The deterministic findings.
    pub report: VerifyReport,
    /// Wall-time and diagnostic yield per pass, in pipeline order.
    pub passes: Vec<PassStat>,
}

/// The static verifier. Stateless across programs; cheap to construct.
#[derive(Debug, Clone, Default)]
pub struct Verifier {
    cfg: VerifyConfig,
}

impl Verifier {
    /// Creates a verifier for the given machine capacities.
    pub fn new(cfg: VerifyConfig) -> Self {
        Verifier { cfg }
    }

    /// The capacities this verifier checks against.
    pub fn config(&self) -> &VerifyConfig {
        &self.cfg
    }

    /// Runs the pass pipeline over `program` and returns the findings
    /// in program order.
    pub fn verify(&self, program: &Program) -> VerifyReport {
        self.verify_timed(program).report
    }

    /// `verify(program).is_clean()`, computed by only the passes that can
    /// report an error: closure, sync pairing, deadlock and scratchpad,
    /// untimed. The dead-traffic pass is skipped because it reports only
    /// [`Rule::DeadStore`] and [`Rule::RedundantImmWrite`], both
    /// [`Severity::Warning`], so it can never change the verdict. The
    /// compiler's and the NPU's verify gates call this; a caller that
    /// needs the findings of a failing program runs [`Verifier::verify`]
    /// on it.
    pub fn is_clean(&self, program: &Program) -> bool {
        let mut diags = Vec::new();
        check_closure(program, &mut diags);
        sync::check(program, &mut diags);
        deadlock::check(program, &mut diags);
        dataflow::check(&self.cfg, program, &mut diags);
        report(program, diags).is_clean()
    }

    /// `verify(program).wasted_words()`, computed by the dead-traffic
    /// pass alone: it is the only pass whose findings carry a
    /// [`Diagnostic::wasted_words`] estimate. The counts are summed as
    /// the pass finds them; no message or [`Diagnostic`] is built. The
    /// autotuner's mutation prior calls this.
    pub fn wasted_words(&self, program: &Program) -> u64 {
        deadcode::wasted_words(&self.cfg, program)
    }

    /// Like [`Verifier::verify`], additionally returning wall-time and
    /// diagnostic counts per pass (for `TANDEM_LINT.json` and the
    /// autotuner budget guard).
    ///
    /// The pipeline is fixed: encode/decode closure, sync pairing,
    /// cross-engine deadlock, scratchpad safety (followed by its
    /// `loop-summaries` sub-stat, whose wall is part of the scratchpad
    /// pass's) and the dead-traffic lints. Diagnostics come back stably
    /// sorted by program counter, so same-pc findings keep pass order.
    pub fn verify_timed(&self, program: &Program) -> VerifyRun {
        let (cfg, mut diags) = (&self.cfg, Vec::new());
        let (closure, ()) = timed("closure", &mut diags, |d| check_closure(program, d));
        let (pairing, ()) = timed("sync-pairing", &mut diags, |d| sync::check(program, d));
        let (deadlock, ()) = timed("sync-deadlock", &mut diags, |d| deadlock::check(program, d));
        let (scratchpad, summaries) = timed("scratchpad", &mut diags, |d| {
            dataflow::check(cfg, program, d)
        });
        let (dead, ()) = timed("dead-traffic", &mut diags, |d| {
            deadcode::check(cfg, program, d)
        });
        diags.sort_by_key(|d| d.pc);
        VerifyRun {
            report: report(program, diags),
            passes: vec![closure, pairing, deadlock, scratchpad, summaries, dead],
        }
    }
}

/// The report of `program` with findings `diags`.
fn report(program: &Program, diags: Vec<Diagnostic>) -> VerifyReport {
    VerifyReport {
        instructions: program.len(),
        diagnostics: diags,
    }
}

/// Runs one pipeline pass, appending its findings to `diags`, and
/// records its wall-time and diagnostic yield.
fn timed<R>(
    name: &'static str,
    diags: &mut Vec<Diagnostic>,
    pass: impl FnOnce(&mut Vec<Diagnostic>) -> R,
) -> (PassStat, R) {
    let before = diags.len();
    let start = Instant::now();
    let out = pass(diags);
    let stat = PassStat {
        name,
        wall: start.elapsed(),
        diagnostics: diags.len() - before,
    };
    (stat, out)
}

/// Encode/decode closure: a verified program must survive the trip
/// through its 32-bit binary form bit-identically (any instruction the
/// rest of the pipeline — caches, dispatch, the simulator — re-decodes
/// must mean the same thing). Each instruction is checked on its own
/// word, so the check allocates nothing for a program that round-trips.
fn check_closure(program: &Program, diags: &mut Vec<Diagnostic>) {
    for (pc, &instr) in program.iter().enumerate() {
        let message = match Instruction::decode(instr.encode()) {
            Ok(back) if back == instr => continue,
            Ok(back) => format!("instruction re-decodes as `{back}` instead of `{instr}`"),
            Err(e) => format!("encoded instruction fails to decode: {e}"),
        };
        diags.push(Diagnostic::new(pc, Rule::EncodeDecodeMismatch, message));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_isa::{AluFunc, Operand};

    #[test]
    fn empty_program_is_clean() {
        let report = Verifier::default().verify(&Program::new());
        assert!(report.is_clean());
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn config_capacities_follow_tandem_config() {
        let cfg = VerifyConfig::from(&TandemConfig::tiny());
        assert_eq!(cfg.rows(Namespace::Interim1), 64);
        assert_eq!(cfg.rows(Namespace::Obuf), 128);
        assert_eq!(cfg.rows(Namespace::Imm), 32);
        assert_eq!(cfg.lanes, 8);
    }

    #[test]
    fn single_configured_compute_is_clean() {
        let mut p = Program::new();
        p.push(Instruction::ImmWriteLow { index: 0, value: 7 });
        p.push(Instruction::IterConfigBase {
            ns: Namespace::Interim1,
            index: 0,
            addr: 3,
        });
        p.push(Instruction::IterConfigStride {
            ns: Namespace::Interim1,
            index: 0,
            stride: 1,
        });
        let op = Operand::new(Namespace::Interim1, 0);
        let imm = Operand::new(Namespace::Imm, 0);
        p.push(Instruction::alu(AluFunc::Add, op, op, imm));
        let report = Verifier::new(VerifyConfig::tiny()).verify(&p);
        assert!(report.is_clean(), "{report}");
    }
}
