//! Differential property tests for the dead-traffic lints, with
//! shrinking (the shared harness in `common/`).
//!
//! The pass works on maximal row runs `[lo, hi]`, not single rows, so
//! two things are checked against per-row references:
//!
//! 1. `Stream::row_runs` equals the maximal runs of the per-row
//!    `Stream::row_set` bitset, which in turn equals a brute-force
//!    enumeration of the loop nest whenever the trip count is small.
//!    The random streams cover negative, zero and gapped strides, counts
//!    of 0 and 1, and windows wider than `RowSet::MAX_WINDOW`. The zoo's
//!    footprints are all contiguous, so this is the only test that
//!    reaches the bitset fallback.
//! 2. On random programs, the `spad-dead-store` and
//!    `imm-redundant-write` diagnostics equal those of a per-row
//!    reference kept here: its own walk of the instruction stream, each
//!    footprint enumerated iteration by iteration, and rows marked,
//!    killed and cleared one at a time.

mod common;

use common::Rng;
use std::collections::{BTreeMap, BTreeSet};
use tandem_isa::{
    AluFunc, Instruction, LoopBindings, Namespace, Operand, Program, IMM_BUF_SLOTS,
    ITERATOR_TABLE_ENTRIES, MAX_LOOP_LEVELS,
};
use tandem_verify::analysis::{Level, RowRuns, Stream};
use tandem_verify::{Diagnostic, RowSet, Rule, Verifier, VerifyConfig};

// --- property 1: row runs ---

/// One random stream: a base row and `(count, stride)` per level.
#[derive(Debug, Clone)]
struct StreamCase {
    base: i64,
    levels: Vec<(u32, i64)>,
}

impl StreamCase {
    fn stream(&self) -> (Stream, Vec<Level>) {
        let mut strides = [0i64; MAX_LOOP_LEVELS];
        for (s, &(_, stride)) in strides.iter_mut().zip(&self.levels) {
            *s = stride;
        }
        let levels = self
            .levels
            .iter()
            .map(|&(count, _)| Level {
                count,
                bindings: LoopBindings::none(),
            })
            .collect();
        (
            Stream {
                base: self.base,
                strides,
            },
            levels,
        )
    }

    /// Every iteration of the nest, as the Code Repeater steps it
    /// (zero-count levels run once); `None` past `limit` iterations.
    fn enumerate(&self, limit: u64) -> Option<BTreeSet<i64>> {
        let trips = self
            .levels
            .iter()
            .try_fold(1u64, |n, &(c, _)| n.checked_mul(c.max(1) as u64))?;
        if trips > limit {
            return None;
        }
        let mut rows = BTreeSet::from([self.base]);
        for &(count, stride) in &self.levels {
            rows = rows
                .iter()
                .flat_map(|&r| (0..count.max(1) as i64).map(move |k| r + k * stride))
                .collect();
        }
        Some(rows)
    }

    /// Smaller variants of a failing case, simplest first.
    fn shrinks(&self) -> Vec<StreamCase> {
        let mut out = Vec::new();
        for i in 0..self.levels.len() {
            let mut c = self.clone();
            c.levels.remove(i);
            out.push(c);
        }
        if self.base != 0 {
            out.push(StreamCase {
                base: self.base / 2,
                ..self.clone()
            });
        }
        for i in 0..self.levels.len() {
            let (count, stride) = self.levels[i];
            for smaller in [
                (count / 2, stride),
                (count, stride / 2),
                (count - count.min(1), stride),
            ] {
                if smaller != (count, stride) {
                    let mut c = self.clone();
                    c.levels[i] = smaller;
                    out.push(c);
                }
            }
        }
        out
    }
}

/// A stride that is zero, small, or a gap wider than most footprints,
/// of either sign.
fn arb_stride(rng: &mut Rng) -> i64 {
    let magnitude = match rng.below(4) {
        0 => 0,
        1 => 1 + rng.below(3) as i64,
        2 => 1 + rng.below(12) as i64,
        _ => 1 + rng.below(200) as i64,
    };
    if rng.bool() {
        -magnitude
    } else {
        magnitude
    }
}

fn arb_stream(rng: &mut Rng) -> StreamCase {
    let depth = rng.below(MAX_LOOP_LEVELS as u64 + 1) as usize;
    let levels = (0..depth)
        .map(|_| {
            let count = match rng.below(8) {
                0 => 0,
                1 => 1,
                // Rare huge level: the hull outgrows RowSet::MAX_WINDOW.
                2 if rng.below(4) == 0 => 200 + rng.below(60_000) as u32,
                _ => 2 + rng.below(7) as u32,
            };
            (count, arb_stride(rng))
        })
        .collect();
    StreamCase {
        base: rng.below(600) as i64 - 100,
        levels,
    }
}

/// Maximal runs of consecutive rows in an ascending row sequence.
fn runs_of(rows: impl IntoIterator<Item = i64>) -> Vec<(i64, i64)> {
    let mut runs: Vec<(i64, i64)> = Vec::new();
    for r in rows {
        match runs.last_mut() {
            Some((_, hi)) if *hi + 1 == r => *hi = r,
            _ => runs.push((r, r)),
        }
    }
    runs
}

/// `None` when the case holds; otherwise what went wrong.
fn check_stream(case: &StreamCase) -> Option<String> {
    let (stream, levels) = case.stream();
    let runs = stream
        .row_runs(&levels)
        .map(|r| r.iter().collect::<Vec<_>>());
    let set = stream.row_set(&levels);
    let expected = set.as_ref().map(|s| runs_of(s.rows()));
    if runs != expected {
        return Some(format!("row_runs {runs:?} but row_set runs {expected:?}"));
    }
    // The contiguity test is exact: the bitset fallback is taken only
    // for footprints that really have a gap.
    let hull = matches!(stream.row_runs(&levels), Some(RowRuns::Hull { .. }));
    if expected.is_some_and(|e| hull != (e.len() == 1)) {
        return Some(format!("hull {hull} for runs {runs:?}"));
    }
    if let (Some(set), Some(rows)) = (&set, case.enumerate(1 << 16)) {
        let got: Vec<i64> = set.rows().collect();
        let want: Vec<i64> = rows.into_iter().collect();
        if got != want {
            return Some(format!("row_set {got:?} but the nest visits {want:?}"));
        }
    }
    None
}

#[test]
fn row_runs_are_the_maximal_runs_of_the_row_set() {
    let mut rng = Rng::new(0x5EED_2025);
    let (mut hulls, mut gapped, mut too_wide) = (0usize, 0usize, 0usize);
    for case_no in 0..4000 {
        let case = arb_stream(&mut rng);
        if let Some(mut why) = check_stream(&case) {
            let mut minimal = case;
            'shrinking: loop {
                for c in minimal.shrinks() {
                    if let Some(w) = check_stream(&c) {
                        (minimal, why) = (c, w);
                        continue 'shrinking;
                    }
                }
                break;
            }
            panic!("case {case_no}: minimal stream {minimal:?}: {why}");
        }
        let (stream, levels) = case.stream();
        match stream.row_runs(&levels) {
            None => too_wide += 1,
            Some(RowRuns::Hull { .. }) => hulls += 1,
            Some(RowRuns::Gapped(_)) => gapped += 1,
        }
    }
    // Every branch must be exercised: single-run hulls, the gapped
    // bitset fallback, and streams too wide to materialize.
    assert!(
        hulls >= 500 && gapped >= 500 && too_wide >= 20,
        "hulls {hulls}, gapped {gapped}, too wide {too_wide}"
    );
}

// --- property 2: diagnostics against a per-row reference ---

const TRACKED: [Namespace; 3] = [Namespace::Interim1, Namespace::Interim2, Namespace::Obuf];

/// The per-row dead-traffic reference: its own walk of the program (the
/// Code Repeater, iterator-table and IMM semantics the verifier's shared
/// walker implements), each footprint enumerated iteration by iteration,
/// and every row marked, killed and cleared one at a time.
struct Reference {
    cfg: VerifyConfig,
    /// Per namespace and entry: configured base (if any) and stride.
    iters: [[(Option<u16>, i16); ITERATOR_TABLE_ENTRIES]; 4],
    levels: Vec<Level>,
    /// Per tracked namespace: `pc + 1` of the unread store each row holds.
    pending: [Vec<u32>; 3],
    dead: BTreeMap<usize, (Namespace, u64)>,
    /// Per IMM slot: last low-half write and whether it was read since.
    imm: [(Option<usize>, bool); IMM_BUF_SLOTS],
    diags: Vec<Diagnostic>,
}

fn lint(pc: usize, rule: Rule, message: String, wasted: u64) -> Diagnostic {
    Diagnostic {
        pc,
        rule,
        message,
        wasted_words: Some(wasted),
    }
}

impl Reference {
    fn run(cfg: VerifyConfig, program: &Program) -> Vec<Diagnostic> {
        let mut r = Reference {
            cfg,
            iters: [[(None, 0); ITERATOR_TABLE_ENTRIES]; 4],
            levels: Vec::new(),
            pending: TRACKED.map(|ns| vec![0; cfg.rows(ns)]),
            dead: BTreeMap::new(),
            imm: [(None, false); IMM_BUF_SLOTS],
            diags: Vec::new(),
        };
        let instrs = program.as_slice();
        let mut pc = 0;
        while pc < instrs.len() {
            let instr = instrs[pc];
            match instr {
                Instruction::IterConfigBase { ns, index, addr } => {
                    r.iters[ns as usize][index as usize].0 = Some(addr);
                }
                Instruction::IterConfigStride { ns, index, stride } => {
                    r.iters[ns as usize][index as usize].1 = stride;
                }
                Instruction::ImmWriteLow { index, .. }
                | Instruction::ImmWriteHigh { index, .. }
                    if (index as usize) < cfg.imm_slots.min(IMM_BUF_SLOTS) =>
                {
                    let low = matches!(instr, Instruction::ImmWriteLow { .. });
                    r.imm_write(pc, index as usize, low);
                }
                Instruction::LoopSetIter { loop_id, count } => {
                    let id = loop_id as usize;
                    if id < MAX_LOOP_LEVELS {
                        r.levels.truncate(id);
                        r.levels.push(Level {
                            count: count as u32,
                            bindings: LoopBindings::none(),
                        });
                    }
                }
                Instruction::LoopSetIndex { bindings } => {
                    if let Some(level) = r.levels.last_mut() {
                        level.bindings = bindings;
                    }
                }
                Instruction::LoopSetNumInst { count, .. } => {
                    let body = pc + 1..pc + 1 + count as usize;
                    if body.end <= instrs.len()
                        && instrs[body.clone()].iter().all(|i| i.is_compute())
                    {
                        r.nest(body.start, &instrs[body.clone()]);
                        r.levels.clear();
                        pc = body.end;
                    } else {
                        r.levels.clear();
                        pc += 1;
                    }
                    continue;
                }
                Instruction::PermuteStart { .. } => {
                    for p in &mut r.pending {
                        p.fill(0);
                    }
                }
                Instruction::TileLdSt { .. } => {
                    for p in &mut r.pending {
                        p.fill(0);
                    }
                    for slot in &mut r.imm {
                        slot.1 |= slot.0.is_some();
                    }
                }
                _ if instr.is_compute() => {
                    r.nest(pc, &instrs[pc..pc + 1]);
                    r.levels.clear();
                }
                _ => {}
            }
            pc += 1;
        }
        r.finish();
        r.diags
    }

    /// Every row `op` in operand slot `slot` touches over the current
    /// levels, or `None` when the footprint is unknown (no configured
    /// base) or wider than `RowSet::MAX_WINDOW` (a namespace barrier).
    fn footprint(&self, op: Operand, slot: usize) -> Option<BTreeSet<i64>> {
        let entry = |o: Operand| self.iters[o.namespace() as usize][o.index() as usize];
        let case = StreamCase {
            base: entry(op).0? as i64,
            levels: self
                .levels
                .iter()
                .map(|l| {
                    let stride = l.bindings.slot(slot).map_or(0, |b| entry(b).1 as i64);
                    (l.count, stride)
                })
                .collect(),
        };
        let width: u64 = 1 + case
            .levels
            .iter()
            .map(|&(c, s)| (c.max(1) as u64 - 1) * s.unsigned_abs())
            .sum::<u64>();
        if width > RowSet::MAX_WINDOW as u64 {
            return None;
        }
        case.enumerate(u64::MAX)
    }

    fn nest(&mut self, body_start: usize, body: &[Instruction]) {
        // Reads first: every row any iteration reads is consumed.
        let mut read_rows = Vec::new();
        let mut read_barrier = [false; 3];
        for instr in body {
            let Some((src1, src2)) = instr.sources() else {
                continue;
            };
            let mut reads = vec![(1, src1)];
            reads.extend(src2.map(|s| (2, s)));
            if instr.reads_destination() {
                reads.extend(instr.destination().map(|d| (0, d)));
            }
            for (slot, op) in reads {
                if op.namespace() == Namespace::Imm {
                    if slot != 0 {
                        if let Some(s) = self.imm.get_mut(op.index() as usize) {
                            s.1 = true;
                        }
                    }
                    continue;
                }
                let idx = TRACKED.iter().position(|&t| t == op.namespace()).unwrap();
                match self.footprint(op, slot) {
                    Some(rows) => {
                        for row in rows {
                            if let Some(cell) = usize::try_from(row)
                                .ok()
                                .and_then(|r| self.pending[idx].get_mut(r))
                            {
                                *cell = 0;
                                read_rows.push((idx, row as usize));
                            }
                        }
                    }
                    None => {
                        self.pending[idx].fill(0);
                        read_barrier[idx] = true;
                    }
                }
            }
        }
        // Then writes, row by row: a row still holding an earlier store
        // kills that store's row.
        for (i, instr) in body.iter().enumerate() {
            let Some(dst) = instr.destination() else {
                continue;
            };
            let Some(idx) = TRACKED.iter().position(|&t| t == dst.namespace()) else {
                continue;
            };
            let Some(rows) = self.footprint(dst, 0) else {
                self.pending[idx].fill(0);
                continue;
            };
            let marker = (body_start + i) as u32 + 1;
            for row in rows {
                let Some(cell) = usize::try_from(row)
                    .ok()
                    .and_then(|r| self.pending[idx].get_mut(r))
                else {
                    continue;
                };
                let prev = std::mem::replace(cell, marker);
                if prev != 0 && prev != marker {
                    self.dead
                        .entry(prev as usize - 1)
                        .or_insert((dst.namespace(), 0))
                        .1 += 1;
                }
            }
        }
        // Rows the body reads never stay pending.
        for (idx, row) in read_rows {
            self.pending[idx][row] = 0;
        }
        for (idx, b) in read_barrier.into_iter().enumerate() {
            if b {
                self.pending[idx].fill(0);
            }
        }
    }

    fn imm_write(&mut self, pc: usize, slot: usize, low: bool) {
        let s = &mut self.imm[slot];
        if low {
            if let (Some(prev), false) = *s {
                self.diags.push(lint(
                    prev,
                    Rule::RedundantImmWrite,
                    format!(
                        "IMM BUF slot {slot} is rewritten at pc {pc} before any \
                         compute instruction reads this value — the write is dead"
                    ),
                    1,
                ));
            }
            *s = (Some(pc), false);
        } else if s.0.is_none() {
            *s = (Some(pc), false);
        }
    }

    fn finish(&mut self) {
        let lanes = self.cfg.lanes as u64;
        for (&pc, &(ns, rows)) in &self.dead {
            self.diags.push(lint(
                pc,
                Rule::DeadStore,
                format!(
                    "store to {ns} writes {rows} row(s) that are overwritten before \
                     anything reads them — ~{} wasted words of scratchpad traffic",
                    rows * lanes
                ),
                rows * lanes,
            ));
        }
        for (slot, &(written, read)) in self.imm.iter().enumerate() {
            if let (Some(pc), false) = (written, read) {
                self.diags.push(lint(
                    pc,
                    Rule::RedundantImmWrite,
                    format!(
                        "IMM BUF slot {slot} is written here but no compute \
                         instruction ever reads the value — wasted IMM traffic"
                    ),
                    1,
                ));
            }
        }
    }
}

fn tiny_dead_traffic(p: &Program) -> Vec<Diagnostic> {
    Verifier::new(VerifyConfig::tiny())
        .verify(p)
        .diagnostics
        .into_iter()
        .filter(|d| matches!(d.rule, Rule::DeadStore | Rule::RedundantImmWrite))
        .collect()
}

/// The reference's findings in the verifier's order (stable by pc).
fn tiny_reference(p: &Program) -> Vec<Diagnostic> {
    let mut diags = Reference::run(VerifyConfig::tiny(), p);
    diags.sort_by_key(|d| d.pc);
    diags
}

fn render(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| format!("    {d} (wasted_words {:?})\n", d.wasted_words))
        .collect()
}

/// A tracked-namespace operand from a pool of four iterators per
/// namespace, so stores collide on rows.
fn arb_tracked(rng: &mut Rng) -> Operand {
    Operand::new(TRACKED[rng.below(3) as usize], rng.below(4) as u8)
}

/// One well-formed Code Repeater nest: one or two levels whose
/// bindings advance the destination (and sometimes a source), over a
/// body of up to three ALU stores. Sources are mostly IMM slots, so
/// multi-row stores pile up unread and kill each other.
fn push_nest(rng: &mut Rng, p: &mut Program) {
    let depth = 1 + rng.below(2) as u8;
    for loop_id in 0..depth {
        p.push(Instruction::LoopSetIter {
            loop_id,
            count: 1 + rng.below(6) as u16,
        });
        p.push(Instruction::LoopSetIndex {
            bindings: LoopBindings {
                dst: Some(arb_tracked(rng)),
                src1: rng.bool().then(|| arb_tracked(rng)),
                src2: None,
            },
        });
    }
    let body = 1 + rng.below(3) as u16;
    p.push(Instruction::LoopSetNumInst {
        loop_id: depth - 1,
        count: body,
    });
    for _ in 0..body {
        let mut src = || {
            if rng.below(4) == 0 {
                arb_tracked(rng)
            } else {
                Operand::new(Namespace::Imm, rng.below(4) as u8)
            }
        };
        let (src1, src2) = (src(), src());
        p.push(Instruction::alu(AluFunc::Add, arb_tracked(rng), src1, src2));
    }
}

/// `prop_widening`'s random instructions interleaved with well-formed
/// nests, behind a prelude that gives every tracked iterator a base and
/// a stride. Without the prelude most operands have no configured base
/// and act as namespace barriers; without the nests few stores span more
/// than one row. Either way almost no store would be provably dead.
fn arb_dead_traffic_program(rng: &mut Rng) -> Program {
    let mut p = Program::new();
    for ns in TRACKED {
        for index in 0..8 {
            p.push(Instruction::IterConfigBase {
                ns,
                index,
                addr: rng.below(64) as u16,
            });
            p.push(Instruction::IterConfigStride {
                ns,
                index,
                stride: rng.below(9) as i16 - 4,
            });
        }
    }
    for instr in common::arb_program(rng).iter() {
        if rng.bool() {
            push_nest(rng, &mut p);
        }
        p.push(*instr);
    }
    p
}

#[test]
fn dead_traffic_matches_the_per_row_reference() {
    common::forall_programs(
        0xDEAD_0057,
        3000,
        arb_dead_traffic_program,
        |p| {
            tiny_dead_traffic(p) == tiny_reference(p)
                && common::entry_points_agree(&Verifier::new(VerifyConfig::tiny()), p)
        },
        |p| {
            format!(
                "  verifier:\n{}  reference:\n{}",
                render(&tiny_dead_traffic(p)),
                render(&tiny_reference(p))
            )
        },
    );
}

/// The random corpus must actually produce dead-store findings, or the
/// property above says nothing about the run-based kill counting.
#[test]
fn random_corpus_exercises_dead_stores() {
    let mut rng = Rng::new(0xDEAD_0057);
    let mut dead = 0usize;
    for _ in 0..3000 {
        let p = arb_dead_traffic_program(&mut rng);
        dead += tiny_reference(&p)
            .iter()
            .filter(|d| d.rule == Rule::DeadStore)
            .count();
    }
    assert!(dead >= 10_000, "only {dead} dead stores in 3000 programs");
}
