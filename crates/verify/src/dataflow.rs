//! Scratchpad safety: bounds, uninitialized reads, IMM discipline and
//! lost-update (write-after-write) hazards over every loop nest's
//! address streams, evaluated in the configured [`VerifyMode`].
//!
//! The abstraction mirrors `tandem_core::TandemProcessor::run` exactly:
//! the address of operand slot `s` at loop counters `c` is
//! `offset(op) + Σ_L c[L] × stride(binding[L][s])` — the base offset
//! comes from the operand's own iterator-table entry, the per-level
//! stride from the entry named by that level's `SET_INDEX` binding.
//! Because that map is affine and the levels are independent, the
//! widened per-level interval summary and the exact per-iteration
//! enumeration produce the *same* row bounds — `Widened` differs from
//! `Exact` only in wall-time (O(program) vs O(trip count)), a property
//! the `prop_widening` test suite pins down.

use crate::analysis::{Level, PassStat, Stream, StreamNote, VerifyMode, Visitor, Walker};
use crate::diag::{Diagnostic, Rule};
use crate::VerifyConfig;
use std::ops::Range;
use tandem_isa::{Instruction, Namespace, Operand, Program, IMM_BUF_SLOTS};

/// One deferred bounds check: `stream` of `op` over the levels of its
/// nest (a range of the collected levels).
struct BoundsQuery {
    pc: usize,
    op: Operand,
    stream: Stream,
    write: bool,
    levels: Range<usize>,
}

/// The `scratchpad` pass (bounds, IMM discipline, WAW) plus the
/// loop/permute discipline findings the shared walk reports.
///
/// Runs in two phases. **Collect**: one symbolic walk emits every
/// mode-independent finding and records a bounds *query* — `(pc,
/// operand, stream, levels)` — for each address stream a nest touches.
/// **Resolve**: the queries are answered with `cfg.mode`'s loop
/// summarization (closed-form interval vs. per-iteration odometer).
/// Only the resolve phase depends on the mode; it is timed separately
/// and returned as the `loop-summaries` sub-stat, so `TANDEM_LINT.json`
/// can report the summarization cost the mode actually changes,
/// undiluted by the shared walk.
pub(crate) fn check(
    cfg: &VerifyConfig,
    program: &Program,
    diags: &mut Vec<Diagnostic>,
) -> PassStat {
    let mut v = ScratchpadVisitor {
        cfg,
        diags,
        levels: Vec::new(),
        nest_levels: 0..0,
        queries: Vec::new(),
    };
    Walker::walk(cfg, program, &mut v);
    let ScratchpadVisitor {
        levels, queries, ..
    } = v;

    let before = diags.len();
    let start = std::time::Instant::now();
    for q in &queries {
        let levels = &levels[q.levels.clone()];
        let iv = match cfg.mode {
            VerifyMode::Widened => q.stream.interval_widened(levels),
            VerifyMode::Exact => q.stream.interval_exact(levels),
        };
        let Some((lo, hi)) = iv.bounds() else {
            continue;
        };
        let rows = cfg.rows(q.op.namespace()) as i64;
        if lo < 0 || hi >= rows {
            let (rule, what) = if q.write {
                (Rule::OobWrite, "writes")
            } else {
                (Rule::OobRead, "reads")
            };
            diags.push(Diagnostic::new(
                q.pc,
                rule,
                format!(
                    "operand {} {what} rows [{lo}, {hi}] but namespace {} has \
                     {rows} rows",
                    q.op,
                    q.op.namespace()
                ),
            ));
        }
    }
    PassStat {
        name: "loop-summaries",
        wall: start.elapsed(),
        diagnostics: diags.len() - before,
    }
}

struct ScratchpadVisitor<'a> {
    cfg: &'a VerifyConfig,
    diags: &'a mut Vec<Diagnostic>,
    /// The live Code Repeater levels of every nest seen, back to back.
    levels: Vec<Level>,
    /// The current nest's range of `levels`.
    nest_levels: Range<usize>,
    /// Deferred bounds checks, resolved after the walk in the
    /// configured mode.
    queries: Vec<BoundsQuery>,
}

impl ScratchpadVisitor<'_> {
    /// The stream of `op` in `slot`, with configuration problems
    /// reported as `UnconfiguredIterator` diagnostics.
    fn stream(&mut self, walker: &Walker, pc: usize, op: Operand, slot: usize) -> Option<Stream> {
        let (stream, notes) = walker.stream(op, slot);
        for note in notes {
            match note {
                StreamNote::BaseUnset => self.diags.push(Diagnostic::new(
                    pc,
                    Rule::UnconfiguredIterator,
                    format!(
                        "operand {op} addresses through iterator {}[{}] whose base \
                         address was never configured",
                        op.namespace(),
                        op.index()
                    ),
                )),
                StreamNote::StrideUnset { level, binding } => self.diags.push(Diagnostic::new(
                    pc,
                    Rule::UnconfiguredIterator,
                    format!(
                        "loop level {level} advances slot {slot} through iterator \
                         {}[{}] whose stride was never configured",
                        binding.namespace(),
                        binding.index()
                    ),
                )),
            }
        }
        stream
    }

    /// Defers a bounds check to the resolve phase, over the levels of
    /// the nest the current [`Visitor::nest`] call pushed.
    fn queue_bounds(&mut self, pc: usize, op: Operand, stream: Stream, write: bool) {
        self.queries.push(BoundsQuery {
            pc,
            op,
            stream,
            write,
            levels: self.nest_levels.clone(),
        });
    }

    fn check_imm_read(&mut self, walker: &Walker, pc: usize, op: Operand) {
        let slot = op.index() as usize;
        if slot >= self.cfg.imm_slots.min(IMM_BUF_SLOTS) {
            self.diags.push(Diagnostic::new(
                pc,
                Rule::ImmSlotOutOfRange,
                format!(
                    "read of IMM BUF slot {slot} but the machine has only {} slots",
                    self.cfg.imm_slots
                ),
            ));
        } else if !walker.imm_written(slot) {
            self.diags.push(Diagnostic::new(
                pc,
                Rule::UninitializedImmRead,
                format!("IMM BUF slot {slot} is read but no instruction ever wrote it"),
            ));
        }
    }
}

impl Visitor for ScratchpadVisitor<'_> {
    fn discipline(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// Checks one loop nest: `body` instructions executed over the
    /// currently configured levels (empty levels = single issue).
    fn nest(&mut self, walker: &Walker, body_start: usize, body: &[Instruction]) {
        let levels = walker.levels();
        self.nest_levels = self.levels.len()..self.levels.len() + levels.len();
        self.levels.extend_from_slice(levels);
        for (i, instr) in body.iter().enumerate() {
            let pc = body_start + i;
            let dst = instr.destination().expect("loop bodies are compute-only");
            let (src1, src2) = instr.sources().expect("compute has sources");

            let mut src_streams = [None; 2];
            for (slot, src) in [(1usize, Some(src1)), (2usize, src2)] {
                let Some(src) = src else { continue };
                if src.namespace() == Namespace::Imm {
                    self.check_imm_read(walker, pc, src);
                } else if let Some(s) = self.stream(walker, pc, src, slot) {
                    self.queue_bounds(pc, src, s, false);
                    src_streams[slot - 1] = Some(s);
                }
            }

            if dst.namespace() == Namespace::Imm {
                self.diags.push(Diagnostic::new(
                    pc,
                    Rule::ImmDestination,
                    format!("compute destination {dst} targets the read-only IMM BUF"),
                ));
                continue;
            }
            let Some(dst_stream) = self.stream(walker, pc, dst, 0) else {
                continue;
            };
            self.queue_bounds(pc, dst, dst_stream, true);

            // Lost-update hazard: a loop level that re-walks the sources
            // while the destination stands still overwrites the same rows
            // each iteration. Exempt read-modify-write functions (MACC,
            // COND_MOVE) and reductions that consume their own
            // destination stream through a source slot; also exempt
            // destinations that a later (or the same) body instruction
            // reads back within the iteration — those are pipelined
            // temporaries, not lost values. The predicate is purely
            // structural on strides, so both modes report identically.
            if instr.reads_destination() {
                continue;
            }
            let consumed = body.iter().enumerate().any(|(j, other)| {
                let (o1, o2) = match other.sources() {
                    Some(s) => s,
                    None => return false,
                };
                [Some(o1), o2].into_iter().flatten().any(|src| {
                    src == dst
                        || (j >= i
                            && src.namespace() == dst.namespace()
                            && src.namespace() != Namespace::Imm
                            && walker.iter_entry(src).offset_set
                            && walker.iter_entry(src).offset as i64 == dst_stream.base)
                })
            });
            if consumed || src_streams.contains(&Some(dst_stream)) {
                continue;
            }
            for (li, level) in levels.iter().enumerate() {
                if level.count > 1
                    && dst_stream.strides[li] == 0
                    && src_streams.iter().flatten().any(|s| s.strides[li] != 0)
                {
                    self.diags.push(Diagnostic::new(
                        pc,
                        Rule::WriteAfterWrite,
                        format!(
                            "destination {dst} is rewritten {}× by loop level {li} \
                             (its address never advances while the sources do) and \
                             nothing reads it back — all but the last iteration's \
                             values are lost",
                            level.count
                        ),
                    ));
                    break;
                }
            }
        }
    }

    fn permute_start(&mut self, walker: &Walker, pc: usize) {
        let permute = walker.permute();
        if !permute.configured {
            self.diags.push(Diagnostic::new(
                pc,
                Rule::PermuteNotConfigured,
                "PERMUTE START with no prior base/extent/stride configuration".to_string(),
            ));
            return;
        }
        // The walker consumes the configuration after this callback; a
        // second START without reconfiguration is an error the hardware
        // also raises.
        for is_dst in [false, true] {
            let ns = if is_dst {
                permute.dst_ns
            } else {
                permute.src_ns
            };
            let words = (self.cfg.rows(ns) * self.cfg.lanes) as i64;
            let Some((lo, hi)) = permute.interval(is_dst).bounds() else {
                continue;
            };
            if lo < 0 || hi >= words {
                let side = if is_dst { "destination" } else { "source" };
                self.diags.push(Diagnostic::new(
                    pc,
                    Rule::PermuteOutOfBounds,
                    format!(
                        "permute {side} walk spans words [{lo}, {hi}] but namespace \
                         {ns} holds {words} words"
                    ),
                ));
            }
        }
    }
}
