//! Dead-traffic lints: scratchpad stores whose rows are overwritten
//! before anything reads them, and IMM BUF writes whose value is
//! replaced or dropped without ever being consumed. Both are
//! [`crate::Severity::Warning`] optimization hints — the program is
//! correct, it just moves words for nothing — surfaced with an
//! estimated wasted-word count so the autotuner can rank candidate
//! schedules by useless traffic.
//!
//! The pass rides the shared [`Walker`] and tracks, per namespace, the
//! set of rows whose most recent write has not been read yet, using the
//! exact footprint of each nest's streams (an interval hull would close
//! over the gaps of a strided store and mis-flag the rows in between).
//! It works on maximal row runs `[lo, hi]`, not single rows. Each
//! footprint comes from [`crate::analysis::Stream::row_runs`]: one run
//! when the stream is contiguous (every compiled zoo stream is), else
//! the runs of its [`RowSet`] bitset. A read is then one `fill` per run;
//! a write is one scan per run that charges each earlier store once per
//! stretch of rows it still held; and the rows a nest reads are kept as
//! runs for the re-clear after its writes.
//!
//! Soundness of the *lint* direction: a store is only called dead when
//! a later store provably covers the row with no possible intervening
//! read — rows a nest reads are cleared both before its writes (an
//! earlier nest's store it consumes) and after them (a same-nest store
//! consumed by the same or a later iteration), a stream too wide to
//! materialize ([`RowSet::MAX_WINDOW`]) degrades to a namespace barrier,
//! and `TILE_LD_ST` / `PERMUTE START` (whose data effects this pass does
//! not model) clear all pending state. Rows still pending at the end of
//! the program are *live-out* — the Data Access Engine stores result
//! tiles after the program ends — and are never reported.

use crate::analysis::{Visitor, Walker};
use crate::diag::{Diagnostic, Rule};
use crate::VerifyConfig;
use std::ops::Range;
use tandem_isa::{Instruction, Namespace, Program, IMM_BUF_SLOTS};

/// The `dead-traffic` pass: the dead-store / redundant-IMM-traffic
/// lints.
pub(crate) fn check(cfg: &VerifyConfig, program: &Program, diags: &mut Vec<Diagnostic>) {
    run(cfg, program, Some(diags));
}

/// The words the `dead-traffic` findings would report wasted, summed
/// without building a message or a [`Diagnostic`] for any of them.
pub(crate) fn wasted_words(cfg: &VerifyConfig, program: &Program) -> u64 {
    run(cfg, program, None)
}

/// Runs the pass, pushing its findings to `diags` when given, and
/// returns their total wasted words.
fn run(cfg: &VerifyConfig, program: &Program, diags: Option<&mut Vec<Diagnostic>>) -> u64 {
    let mut v = DeadTrafficVisitor {
        cfg,
        pending: TRACKED.map(|ns| vec![0; cfg.rows(ns)]),
        dead: vec![None; program.len()],
        imm: [ImmSlot::default(); IMM_BUF_SLOTS],
        diags,
        wasted: 0,
    };
    Walker::walk(cfg, program, &mut v);
    v.finish();
    v.wasted
}

/// Lifecycle of one IMM BUF slot.
#[derive(Debug, Clone, Copy, Default)]
struct ImmSlot {
    /// Program counter of the slot's most recent full (low-half) write.
    written_at: Option<usize>,
    /// Whether any compute read the slot since that write.
    read_since: bool,
}

/// Scratchpad namespaces the lint tracks (IMM has its own slot model).
const TRACKED: [Namespace; 3] = [Namespace::Interim1, Namespace::Interim2, Namespace::Obuf];

fn tracked_index(ns: Namespace) -> Option<usize> {
    TRACKED.iter().position(|&t| t == ns)
}

/// The run `[lo, hi]` clipped to the `rows` rows of a namespace, as a
/// cell range (`None` when nothing of it is in range).
fn clamp(lo: i64, hi: i64, rows: usize) -> Option<Range<usize>> {
    let lo = lo.max(0);
    let hi = hi.min(rows as i64 - 1);
    (lo <= hi).then(|| lo as usize..hi as usize + 1)
}

struct DeadTrafficVisitor<'a> {
    cfg: &'a VerifyConfig,
    /// Per tracked namespace, one dense cell per row: `0` = no pending
    /// store, else `pc + 1` of the store whose value the row still holds
    /// unread. A run of rows is a contiguous slice, so clearing it is one
    /// `fill` and a store's kills are counted over slice stretches.
    pending: [Vec<u32>; 3],
    /// Per pc: the namespace and number of rows of that store killed
    /// before any read (`None` while nothing of it was killed).
    dead: Vec<Option<(Namespace, u64)>>,
    imm: [ImmSlot; IMM_BUF_SLOTS],
    /// Where findings go; `None` when only their wasted words are
    /// wanted, so no message is formatted.
    diags: Option<&'a mut Vec<Diagnostic>>,
    /// Wasted words of every finding so far.
    wasted: u64,
}

impl DeadTrafficVisitor<'_> {
    /// Records a finding at `pc` wasting `wasted` words; `message` is
    /// only formatted when findings are collected.
    fn report(&mut self, pc: usize, rule: Rule, wasted: u64, message: impl FnOnce() -> String) {
        self.wasted += wasted;
        if let Some(diags) = self.diags.as_deref_mut() {
            diags.push(Diagnostic::with_wasted(pc, rule, message(), wasted));
        }
    }

    /// Forget all pending stores of `ns` (an instruction with unmodeled
    /// reads may consume any of them).
    fn barrier_ns(&mut self, ns: Namespace) {
        if let Some(i) = tracked_index(ns) {
            self.pending[i].fill(0);
        }
    }

    /// Forget every pending store and mark all written IMM slots read.
    fn full_barrier(&mut self) {
        for p in &mut self.pending {
            p.fill(0);
        }
        for slot in &mut self.imm {
            if slot.written_at.is_some() {
                slot.read_since = true;
            }
        }
    }

    fn imm_read(&mut self, slot: usize) {
        if let Some(s) = self.imm.get_mut(slot) {
            s.read_since = true;
        }
    }

    /// End-of-program accounting: emit the accumulated dead stores and
    /// the IMM writes whose value was never consumed.
    fn finish(&mut self) {
        let lanes = self.cfg.lanes as u64;
        for (pc, dead) in std::mem::take(&mut self.dead).into_iter().enumerate() {
            let Some((ns, rows)) = dead else { continue };
            let words = rows * lanes;
            self.report(pc, Rule::DeadStore, words, || {
                format!(
                    "store to {ns} writes {rows} row(s) that are overwritten before \
                     anything reads them — ~{words} wasted words of scratchpad traffic"
                )
            });
        }
        for (slot, s) in self.imm.into_iter().enumerate() {
            if let (Some(pc), false) = (s.written_at, s.read_since) {
                self.report(pc, Rule::RedundantImmWrite, 1, || {
                    format!(
                        "IMM BUF slot {slot} is written here but no compute \
                         instruction ever reads the value — wasted IMM traffic"
                    )
                });
            }
        }
    }
}

impl Visitor for DeadTrafficVisitor<'_> {
    fn nest(&mut self, walker: &Walker, body_start: usize, body: &[Instruction]) {
        let levels = walker.levels();
        // Phase 1 — reads. Applied before the nest's writes: any row a
        // source stream can touch counts as consumed, which is the
        // conservative direction for a lint (never flags a store some
        // iteration interleaving might still read). The runs are also
        // remembered so phase 3 can re-clear them *after* the nest's
        // writes: a store in this body whose row the body also reads is
        // consumed by the same iteration (read after the store) or the
        // next one (read before it) and must never be left pending.
        let mut read_runs: Vec<(usize, Range<usize>)> = Vec::new();
        let mut read_barrier = [false; 3];
        for instr in body {
            let Some((src1, src2)) = instr.sources() else {
                continue;
            };
            let mut reads = [(1usize, Some(src1)), (2usize, src2), (0usize, None)];
            // Read-modify-write functions consume their destination too.
            if instr.reads_destination() {
                reads[2].1 = instr.destination();
            }
            for (slot, op) in reads {
                let Some(op) = op else { continue };
                if op.namespace() == Namespace::Imm {
                    // An IMM destination is the scratchpad pass's error,
                    // not a read of the slot.
                    if slot != 0 {
                        self.imm_read(op.index() as usize);
                    }
                    continue;
                }
                let Some(idx) = tracked_index(op.namespace()) else {
                    continue;
                };
                let (stream, _notes) = walker.stream(op, slot);
                match stream.and_then(|s| s.row_runs(levels)) {
                    Some(runs) => {
                        for (lo, hi) in runs.iter() {
                            if let Some(r) = clamp(lo, hi, self.pending[idx].len()) {
                                self.pending[idx][r.clone()].fill(0);
                                read_runs.push((idx, r));
                            }
                        }
                    }
                    // Unknown footprint: could read anything in the
                    // namespace.
                    None => {
                        self.barrier_ns(op.namespace());
                        read_barrier[idx] = true;
                    }
                }
            }
        }
        // Phase 2 — writes. A row already pending from an *earlier*
        // store is killed: that store's value is provably never read.
        for (i, instr) in body.iter().enumerate() {
            let pc = body_start + i;
            let Some(dst) = instr.destination() else {
                continue;
            };
            let Some(idx) = tracked_index(dst.namespace()) else {
                continue;
            };
            let (stream, _notes) = walker.stream(dst, 0);
            let Some(runs) = stream.and_then(|s| s.row_runs(levels)) else {
                // Unknown footprint: this store may cover anything, but
                // nothing is *provably* dead — drop all pending state.
                self.barrier_ns(dst.namespace());
                continue;
            };
            let marker = pc as u32 + 1;
            for (lo, hi) in runs.iter() {
                // Out-of-range rows are the bounds checker's finding,
                // not traffic.
                let Some(r) = clamp(lo, hi, self.pending[idx].len()) else {
                    continue;
                };
                let cells = &mut self.pending[idx][r];
                // One kill count per stretch of rows holding the same
                // earlier store.
                for stretch in cells.chunk_by(|a, b| a == b) {
                    let prev = stretch[0];
                    if prev != 0 && prev != marker {
                        let e = self.dead[prev as usize - 1].get_or_insert((dst.namespace(), 0));
                        e.1 += stretch.len() as u64;
                    }
                }
                cells.fill(marker);
            }
        }
        // Phase 3 — rows the body reads never stay pending: a same-nest
        // store to such a row is (or may be, across iterations) consumed
        // by that read. Store-over-store kills inside the nest were
        // already charged in phase 2.
        for (idx, r) in read_runs {
            self.pending[idx][r].fill(0);
        }
        for (idx, &b) in read_barrier.iter().enumerate() {
            if b {
                self.pending[idx].fill(0);
            }
        }
    }

    fn imm_write(&mut self, _walker: &Walker, pc: usize, slot: usize, replaces: bool) {
        let Some(&s) = self.imm.get(slot) else {
            return;
        };
        if replaces {
            // Low-half write: replaces the slot's value. If the previous
            // value was never read, the earlier write was redundant.
            if let (Some(prev), false) = (s.written_at, s.read_since) {
                self.report(prev, Rule::RedundantImmWrite, 1, || {
                    format!(
                        "IMM BUF slot {slot} is rewritten at pc {pc} before any \
                         compute instruction reads this value — the write is dead"
                    )
                });
            }
            self.imm[slot] = ImmSlot {
                written_at: Some(pc),
                read_since: false,
            };
        } else if s.written_at.is_none() {
            // High-half patch of a slot we never saw the low half of;
            // start tracking from here.
            self.imm[slot] = ImmSlot {
                written_at: Some(pc),
                read_since: false,
            };
        }
        // High-half writes otherwise extend the in-flight low write of
        // the same 32-bit constant (`Instruction::imm_write` idiom) and
        // neither kill nor refresh it.
    }

    fn permute_start(&mut self, _walker: &Walker, _pc: usize) {
        // The permute engine reads and writes word-addressed streams this
        // pass does not model — treat as a scratchpad barrier.
        for p in &mut self.pending {
            p.fill(0);
        }
    }

    fn barrier(&mut self, _walker: &Walker, _pc: usize) {
        // TILE_LD_ST moves tiles between DRAM and the scratchpads with
        // DAE-side state the walker does not track.
        self.full_barrier();
    }
}
