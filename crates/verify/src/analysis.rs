//! The abstract-interpretation framework the verifier's analyses are
//! built on: abstract domains with a sound `join`, a shared
//! transfer-function walk over the configuration/loop/compute stream,
//! and the per-pass wall-time record the pipeline in `lib.rs` fills.
//!
//! Two abstract domains cover every analysis in the crate:
//!
//! * [`AffineInterval`] — the widened summary of one operand's address
//!   stream across a Code Repeater nest: `offset + [0, trips−1]·stride`
//!   per level, folded with `join` into a `[lo, hi]` row interval. Since
//!   per-level contributions are independent, the hull is *exact* for
//!   affine streams — widening trades nothing on the programs the
//!   compiler emits and makes verification O(program size) instead of
//!   O(trip count).
//! * [`RowSet`] — the concrete row footprint of a stream over a bounded
//!   window, used by the dead-traffic lints where interval hulls would
//!   be too coarse (a gap in a strided stream must not count as
//!   "overwritten"). Those lints read footprints as maximal runs
//!   ([`Stream::row_runs`]); a stream whose levels leave no gap is its
//!   hull, one run, and needs no bitset at all.
//!
//! The `Walker` is the shared transfer function: it interprets
//! iterator-table configuration, IMM BUF writes, Code Repeater levels
//! and Permute Engine state exactly the way
//! `tandem_core::TandemProcessor` does, and hands each loop nest (and
//! other interesting events) to a `Visitor`. The scratchpad-safety
//! pass and the dead-traffic pass are both visitors over the same walk,
//! so the machine-state abstraction exists exactly once.

use crate::diag::{Diagnostic, Rule};
use crate::VerifyConfig;
use std::time::Duration;
use tandem_isa::{
    Instruction, LoopBindings, Namespace, Operand, Program, IMM_BUF_SLOTS, ITERATOR_TABLE_ENTRIES,
    MAX_LOOP_LEVELS,
};

/// How the scratchpad-safety analysis evaluates loop address streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyMode {
    /// Enumerate every iteration of every Code Repeater nest and check
    /// each concrete address — the soundness oracle. Wall-time scales
    /// with trip counts, like the simulator itself.
    Exact,
    /// Summarize each operand's address stream per loop level as an
    /// affine interval `offset + [0, trips−1]·stride` and check the
    /// joined hull — O(program size), the mode fast enough to gate a
    /// search-based autotuner. Sound: never reports fewer errors than
    /// [`VerifyMode::Exact`] (property-tested).
    #[default]
    Widened,
}

impl VerifyMode {
    /// Stable lower-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Exact => "exact",
            VerifyMode::Widened => "widened",
        }
    }
}

/// A (possibly empty) integer interval `[lo, hi]` of scratchpad rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AffineInterval {
    /// No rows (bottom).
    Empty,
    /// Every row in `lo..=hi`.
    Range {
        /// Smallest row.
        lo: i64,
        /// Largest row.
        hi: i64,
    },
}

impl AffineInterval {
    /// The single-row interval `[x, x]`.
    pub fn point(x: i64) -> Self {
        AffineInterval::Range { lo: x, hi: x }
    }

    /// Adds the span a loop level contributes: `count` iterations of
    /// `stride` extend the interval by `(count−1)·stride` toward the
    /// stride's sign (zero-count levels behave like one iteration, the
    /// hardware's degenerate case).
    pub fn advance(self, count: u32, stride: i64) -> Self {
        match self {
            AffineInterval::Empty => AffineInterval::Empty,
            AffineInterval::Range { lo, hi } => {
                let span = (count.max(1) as i64 - 1) * stride;
                AffineInterval::Range {
                    lo: lo + span.min(0),
                    hi: hi + span.max(0),
                }
            }
        }
    }

    /// `(lo, hi)` of a non-empty interval.
    pub fn bounds(self) -> Option<(i64, i64)> {
        match self {
            AffineInterval::Empty => None,
            AffineInterval::Range { lo, hi } => Some((lo, hi)),
        }
    }

    /// The least element: no rows.
    pub fn bottom() -> Self {
        AffineInterval::Empty
    }

    /// Hull accumulation (least upper bound); returns `true` when `self`
    /// changed.
    pub fn join(&mut self, other: &Self) -> bool {
        match (*self, *other) {
            (_, AffineInterval::Empty) => false,
            (AffineInterval::Empty, r) => {
                *self = r;
                true
            }
            (AffineInterval::Range { lo, hi }, AffineInterval::Range { lo: ol, hi: oh }) => {
                let (nl, nh) = (lo.min(ol), hi.max(oh));
                let changed = nl != lo || nh != hi;
                *self = AffineInterval::Range { lo: nl, hi: nh };
                changed
            }
        }
    }
}

/// The concrete set of rows a stream touches, over a bounded window
/// `[offset, offset + capacity)` — a bitset, so per-level expansion is a
/// few word operations per iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSet {
    offset: i64,
    capacity: usize,
    bits: Vec<u64>,
}

impl RowSet {
    /// The widest window the dead-traffic pass materializes; streams
    /// whose interval is wider act as analysis barriers instead.
    pub const MAX_WINDOW: usize = 1 << 14;

    /// An empty set over the window `[offset, offset + capacity)`.
    pub fn window(offset: i64, capacity: usize) -> Self {
        RowSet {
            offset,
            capacity,
            bits: vec![0; capacity.div_ceil(64)],
        }
    }

    /// The least element: an empty zero-width window.
    pub fn bottom() -> Self {
        RowSet::window(0, 0)
    }

    /// Union (least upper bound), regrowing the window to the hull of
    /// both when they differ; returns `true` when `self` changed.
    pub fn join(&mut self, other: &Self) -> bool {
        if other.is_empty() {
            return false;
        }
        if self.offset == other.offset && self.capacity == other.capacity {
            let mut changed = false;
            for (a, b) in self.bits.iter_mut().zip(&other.bits) {
                let n = *a | b;
                changed |= n != *a;
                *a = n;
            }
            return changed;
        }
        // Window mismatch: regrow to the hull of both windows.
        let lo = self.offset.min(other.offset);
        let hi = (self.offset + self.capacity as i64).max(other.offset + other.capacity as i64);
        let mut grown = RowSet::window(lo, (hi - lo) as usize);
        for row in self.rows().chain(other.rows()) {
            grown.insert(row);
        }
        let changed = grown.len() != self.len() || grown.offset != self.offset;
        *self = grown;
        changed
    }

    /// Inserts `row` (ignored outside the window).
    pub fn insert(&mut self, row: i64) {
        let i = row - self.offset;
        if (0..self.capacity as i64).contains(&i) {
            self.bits[i as usize / 64] |= 1u64 << (i as usize % 64);
        }
    }

    /// `true` iff `row` is in the set.
    pub fn contains(&self, row: i64) -> bool {
        let i = row - self.offset;
        (0..self.capacity as i64).contains(&i)
            && self.bits[i as usize / 64] >> (i as usize % 64) & 1 == 1
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no row is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// The rows of the set, ascending. Zero words cost O(1): set bits
    /// are peeled with `trailing_zeros`, so iteration is proportional to
    /// the number of rows, not the window width.
    pub fn rows(&self) -> impl Iterator<Item = i64> + '_ {
        let offset = self.offset;
        self.bits.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut rem = w;
            std::iter::from_fn(move || {
                if rem == 0 {
                    return None;
                }
                let b = rem.trailing_zeros();
                rem &= rem - 1;
                Some(offset + (wi * 64 + b as usize) as i64)
            })
        })
    }

    /// The maximal runs `[lo, hi]` of consecutive rows in the set,
    /// ascending. Word-level: a run is measured with `trailing_ones`, one
    /// step per word it spans, so the cost is O(window words + runs),
    /// not O(rows).
    pub fn runs(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let bits = &self.bits;
        let mut wi = 0;
        // Word `wi` with the bits already handed out cleared.
        let mut rem = bits.first().copied().unwrap_or(0);
        std::iter::from_fn(move || {
            while rem == 0 {
                wi += 1;
                rem = *bits.get(wi)?;
            }
            let start = wi * 64 + rem.trailing_zeros() as usize;
            // A run reaching the top of a word continues into the next.
            let mut end = start;
            while let Some(&w) = bits.get(end / 64) {
                let ones = (w >> (end % 64)).trailing_ones() as usize;
                end += ones;
                if ones == 0 || !end.is_multiple_of(64) {
                    break;
                }
            }
            wi = end / 64;
            rem = bits.get(wi).map_or(0, |&w| w & (u64::MAX << (end % 64)));
            Some((self.offset + start as i64, self.offset + end as i64 - 1))
        })
    }

    /// The set shifted by `delta` rows (rows leaving the window are
    /// dropped; callers size the window so that cannot happen for
    /// in-analysis streams). Word-level: O(window words), not O(rows).
    fn shifted(&self, delta: i64) -> Self {
        let mut out = RowSet::window(self.offset, self.capacity);
        let n = self.bits.len();
        if n == 0 || delta.unsigned_abs() >= self.capacity as u64 {
            return out;
        }
        let (w, b) = (delta.div_euclid(64), delta.rem_euclid(64) as u32);
        let word = |i: i64| -> u64 {
            usize::try_from(i)
                .ok()
                .and_then(|i| self.bits.get(i).copied())
                .unwrap_or(0)
        };
        for (j, out_word) in out.bits.iter_mut().enumerate() {
            let src = j as i64 - w;
            let lo = word(src) << b;
            let hi = if b == 0 { 0 } else { word(src - 1) >> (64 - b) };
            *out_word = lo | hi;
        }
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = out.bits.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        out
    }

    /// Expands the set by one loop level: the union of the set shifted
    /// by `k·stride` for `k ∈ 0..count` (zero-count levels behave like
    /// one iteration, matching [`AffineInterval::advance`]). Doubling —
    /// once shifts `0..covered` are in the set, one more shift extends
    /// coverage to `0..2·covered` — keeps this O(log count) shifts.
    pub fn advance(&mut self, count: u32, stride: i64) {
        if stride == 0 || count <= 1 {
            return;
        }
        let total = count as i64;
        let mut covered: i64 = 1;
        while covered < total {
            let step = covered.min(total - covered);
            let moved = self.shifted(step * stride);
            self.join(&moved);
            covered += step;
        }
    }
}

/// Abstract iterator-table entry: the configured values plus whether
/// each half has been configured at all.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IterEntry {
    pub offset: u16,
    pub stride: i16,
    pub offset_set: bool,
    pub stride_set: bool,
}

/// One configured Code Repeater level.
#[derive(Debug, Clone, Copy)]
pub struct Level {
    /// Iteration count (`0` behaves like one iteration).
    pub count: u32,
    /// The iterators this level advances, per operand slot.
    pub bindings: LoopBindings,
}

/// Symbolic address stream of one operand slot across a nest: a base row
/// plus one effective stride per loop level. Strides live in a fixed
/// array (nests are ≤ [`MAX_LOOP_LEVELS`] deep) so building a stream
/// never allocates — this runs per operand per body instruction and is
/// the inner loop of the widened mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Row addressed at loop counters all zero.
    pub base: i64,
    /// Rows advanced per iteration of each level, outermost first.
    pub strides: [i64; MAX_LOOP_LEVELS],
}

/// A stream's row footprint as maximal runs of consecutive rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowRuns {
    /// The footprint is exactly its interval hull: one run.
    Hull {
        /// Smallest row.
        lo: i64,
        /// Largest row.
        hi: i64,
    },
    /// A footprint with gaps, materialized as a bitset.
    Gapped(RowSet),
}

impl RowRuns {
    /// The runs `[lo, hi]`, ascending and pairwise non-adjacent.
    pub fn iter(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let (hull, set) = match self {
            RowRuns::Hull { lo, hi } => (Some((*lo, *hi)), None),
            RowRuns::Gapped(set) => (None, Some(set)),
        };
        hull.into_iter()
            .chain(set.into_iter().flat_map(RowSet::runs))
    }
}

impl Stream {
    /// Widened summary: the affine-interval hull of the stream, folded
    /// level by level — O(levels).
    pub fn interval_widened(&self, levels: &[Level]) -> AffineInterval {
        let mut iv = AffineInterval::point(self.base);
        for (level, &stride) in levels.iter().zip(&self.strides) {
            iv = iv.advance(level.count, stride);
        }
        iv
    }

    /// Exact summary: enumerates every iteration of the nest (an
    /// odometer over the counters, exactly as the Code Repeater steps
    /// them) and accumulates the concrete address extremes — O(full trip
    /// count). This is the oracle the widened mode is checked against,
    /// so it deliberately mirrors the hardware's per-iteration walk with
    /// no shortcuts: collapsing stride-0 or single-trip levels would be
    /// a summarization step of its own, and the oracle's value is that
    /// it contains none.
    pub fn interval_exact(&self, levels: &[Level]) -> AffineInterval {
        let active: Vec<(u32, i64)> = levels
            .iter()
            .zip(&self.strides)
            .map(|(l, &s)| (l.count, s))
            .collect();
        let mut iv = AffineInterval::point(self.base);
        let mut counters = vec![0u32; active.len()];
        loop {
            let addr = self.base
                + counters
                    .iter()
                    .zip(&active)
                    .map(|(&c, &(_, s))| c as i64 * s)
                    .sum::<i64>();
            iv.join(&AffineInterval::point(addr));
            // Odometer increment; done when it wraps past the last digit.
            let mut done = true;
            for (c, &(count, _)) in counters.iter_mut().zip(&active) {
                *c += 1;
                if *c < count {
                    done = false;
                    break;
                }
                *c = 0;
            }
            if done {
                break;
            }
        }
        iv
    }

    /// The concrete row footprint of the stream over the nest, or `None`
    /// when the stream's interval exceeds [`RowSet::MAX_WINDOW`] (the
    /// dead-traffic pass treats that as an analysis barrier).
    pub fn row_set(&self, levels: &[Level]) -> Option<RowSet> {
        // Every partial sum of per-level contributions lies inside the
        // full interval (each level's contribution spans 0), so the hull
        // is a safe bitset window for the shift-based expansion.
        let (lo, width) = self.window(levels)?;
        let mut set = RowSet::window(lo, width);
        set.insert(self.base);
        for (level, &stride) in levels.iter().zip(&self.strides) {
            set.advance(level.count, stride);
        }
        Some(set)
    }

    /// The same footprint as [`Stream::row_set`], as maximal runs. The
    /// footprint is a sum of arithmetic progressions, one per level
    /// (`{0, s, …, (count−1)·s}`). Summed in order of increasing |s|, a
    /// level whose |s| is at most the width covered so far only extends
    /// a contiguous run, so when every level passes that test the
    /// footprint is exactly its interval hull and no bitset is built.
    /// Otherwise the bitset is materialized and read back run by run.
    pub fn row_runs(&self, levels: &[Level]) -> Option<RowRuns> {
        let (lo, width) = self.window(levels)?;
        let mut steps = [(0u64, 0u64); MAX_LOOP_LEVELS];
        let mut n = 0;
        for (level, &stride) in levels.iter().zip(&self.strides) {
            if stride != 0 && level.count > 1 {
                steps[n] = (stride.unsigned_abs(), level.count as u64 - 1);
                n += 1;
            }
        }
        let steps = &mut steps[..n];
        steps.sort_unstable();
        let mut covered = 1u64;
        for &(step, extra) in steps.iter() {
            if step > covered {
                return self.row_set(levels).map(RowRuns::Gapped);
            }
            covered += step * extra;
        }
        Some(RowRuns::Hull {
            lo,
            hi: lo + width as i64 - 1,
        })
    }

    /// `(lo, width)` of the stream's interval hull, or `None` when it is
    /// wider than [`RowSet::MAX_WINDOW`].
    fn window(&self, levels: &[Level]) -> Option<(i64, usize)> {
        let (lo, hi) = self.interval_widened(levels).bounds()?;
        let width = usize::try_from(hi - lo + 1).ok()?;
        (width <= RowSet::MAX_WINDOW).then_some((lo, width))
    }
}

/// Problems building a stream, reported back to the visitor (the
/// scratchpad pass turns them into diagnostics; the dead-traffic pass
/// skips the operand).
#[derive(Debug, Clone, Copy)]
pub(crate) enum StreamNote {
    /// The operand's iterator entry has no configured base address.
    BaseUnset,
    /// Loop `level` advances the slot through `binding`, whose stride
    /// was never configured (only noted when the level iterates).
    StrideUnset { level: usize, binding: Operand },
}

/// Callbacks a pass registers over the shared [`Walker`] transfer
/// function. Every method has a no-op default, so passes implement only
/// the events they analyze.
pub(crate) trait Visitor {
    /// One Code Repeater nest (or bare compute instruction): `body`
    /// starting at `body_start`, executed over `walker.levels()`.
    fn nest(&mut self, walker: &Walker, body_start: usize, body: &[Instruction]);

    /// An in-range IMM BUF write; `replaces` is `true` for the low half
    /// (which overwrites the slot's value) and `false` for the high half
    /// (which patches the upper bits of the current value).
    fn imm_write(&mut self, _walker: &Walker, _pc: usize, _slot: usize, _replaces: bool) {}

    /// `PERMUTE START`, before the walker consumes the configuration.
    fn permute_start(&mut self, _walker: &Walker, _pc: usize) {}

    /// An instruction with unmodeled data effects (DAE `TILE_LD_ST`) —
    /// flow-sensitive passes must treat it as a full barrier.
    fn barrier(&mut self, _walker: &Walker, _pc: usize) {}

    /// A loop-discipline or IMM-slot-range finding from the walk itself.
    /// Exactly one pass should keep these (the scratchpad pass); the
    /// rest drop them so findings are not duplicated.
    fn discipline(&mut self, _diag: Diagnostic) {}
}

/// Mirror of `tandem_core::PermuteEngine`'s configuration state.
#[derive(Debug, Clone)]
pub(crate) struct PermuteState {
    pub src_ns: Namespace,
    pub dst_ns: Namespace,
    pub src_base: i64,
    pub dst_base: i64,
    pub extents: [u32; 8],
    pub src_strides: [i64; 8],
    pub dst_strides: [i64; 8],
    pub configured: bool,
}

impl Default for PermuteState {
    fn default() -> Self {
        PermuteState {
            src_ns: Namespace::Interim1,
            dst_ns: Namespace::Interim2,
            src_base: 0,
            dst_base: 0,
            extents: [1; 8],
            src_strides: [0; 8],
            dst_strides: [0; 8],
            configured: false,
        }
    }
}

impl PermuteState {
    /// `[lo, hi]` word interval of one side's walk.
    pub fn interval(&self, is_dst: bool) -> AffineInterval {
        let (base, strides) = if is_dst {
            (self.dst_base, &self.dst_strides)
        } else {
            (self.src_base, &self.src_strides)
        };
        let mut iv = AffineInterval::point(base);
        for (&e, &s) in self.extents.iter().zip(strides) {
            iv = iv.advance(e, s);
        }
        iv
    }
}

/// The shared transfer function over the configuration/loop/compute
/// stream: iterator tables, IMM BUF occupancy, Code Repeater levels and
/// Permute Engine state, interpreted exactly as
/// `tandem_core::TandemProcessor` executes them.
pub(crate) struct Walker {
    iters: [[IterEntry; ITERATOR_TABLE_ENTRIES]; 4],
    imm_written: [bool; IMM_BUF_SLOTS],
    levels: Vec<Level>,
    permute: PermuteState,
}

impl Walker {
    /// The currently configured Code Repeater levels (outermost first).
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// The iterator-table entry of `op`.
    pub fn iter_entry(&self, op: Operand) -> IterEntry {
        self.iters[op.namespace() as usize][op.index() as usize]
    }

    /// Whether IMM slot `slot` has been written so far.
    pub fn imm_written(&self, slot: usize) -> bool {
        self.imm_written[slot]
    }

    /// The Permute Engine configuration state.
    pub fn permute(&self) -> &PermuteState {
        &self.permute
    }

    /// The symbolic address stream of operand `op` in slot `slot` over
    /// the current levels, plus any configuration problems encountered.
    /// `None` for IMM operands and operands with no configured base.
    pub fn stream(&self, op: Operand, slot: usize) -> (Option<Stream>, Vec<StreamNote>) {
        if op.namespace() == Namespace::Imm {
            return (None, Vec::new());
        }
        let entry = self.iter_entry(op);
        if !entry.offset_set {
            return (None, vec![StreamNote::BaseUnset]);
        }
        let mut notes = Vec::new();
        let mut strides = [0i64; MAX_LOOP_LEVELS];
        for (li, level) in self.levels.iter().enumerate() {
            if let Some(b) = level.bindings.slot(slot) {
                let be = self.iter_entry(b);
                if !be.stride_set && level.count > 1 {
                    notes.push(StreamNote::StrideUnset {
                        level: li,
                        binding: b,
                    });
                }
                strides[li] = be.stride as i64;
            }
        }
        (
            Some(Stream {
                base: entry.offset as i64,
                strides,
            }),
            notes,
        )
    }

    /// Runs the transfer function over `program`, handing events to `v`.
    pub fn walk(cfg: &VerifyConfig, program: &Program, v: &mut impl Visitor) {
        let mut w = Walker {
            iters: [[IterEntry::default(); ITERATOR_TABLE_ENTRIES]; 4],
            imm_written: [false; IMM_BUF_SLOTS],
            levels: Vec::new(),
            permute: PermuteState::default(),
        };
        let instrs = program.as_slice();
        let mut pc = 0usize;
        while pc < instrs.len() {
            let instr = instrs[pc];
            match instr {
                Instruction::IterConfigBase { ns, index, addr } => {
                    let e = &mut w.iters[ns as usize][index as usize];
                    e.offset = addr;
                    e.offset_set = true;
                }
                Instruction::IterConfigStride { ns, index, stride } => {
                    let e = &mut w.iters[ns as usize][index as usize];
                    e.stride = stride;
                    e.stride_set = true;
                }
                Instruction::ImmWriteLow { index, .. }
                | Instruction::ImmWriteHigh { index, .. } => {
                    if (index as usize) < cfg.imm_slots.min(IMM_BUF_SLOTS) {
                        w.imm_written[index as usize] = true;
                        let replaces = matches!(instr, Instruction::ImmWriteLow { .. });
                        v.imm_write(&w, pc, index as usize, replaces);
                    } else {
                        v.discipline(Diagnostic::new(
                            pc,
                            Rule::ImmSlotOutOfRange,
                            format!(
                                "IMM BUF write to slot {index} but the machine has only {} slots",
                                cfg.imm_slots
                            ),
                        ));
                    }
                }
                Instruction::LoopSetIter { loop_id, count } => {
                    w.loop_set_iter(pc, loop_id, count, v);
                }
                Instruction::LoopSetIndex { bindings } => {
                    if let Some(level) = w.levels.last_mut() {
                        level.bindings = bindings;
                    } else {
                        v.discipline(Diagnostic::new(
                            pc,
                            Rule::LoopIndexWithoutLevel,
                            "LOOP SET_INDEX with no configured loop level to bind".to_string(),
                        ));
                    }
                }
                Instruction::LoopSetNumInst { count, .. } => {
                    let body_start = pc + 1;
                    let body_end = body_start + count as usize;
                    if body_end > instrs.len()
                        || !instrs[body_start..body_end].iter().all(|i| i.is_compute())
                    {
                        v.discipline(Diagnostic::new(
                            pc,
                            Rule::MalformedLoopBody,
                            format!(
                                "loop body of {count} instructions extends past the program \
                                 or contains non-compute instructions"
                            ),
                        ));
                        w.levels.clear();
                        pc += 1;
                        continue;
                    }
                    v.nest(&w, body_start, &instrs[body_start..body_end]);
                    w.levels.clear();
                    pc = body_end;
                    continue;
                }
                Instruction::PermuteSetBase { is_dst, ns, addr } => {
                    if is_dst {
                        w.permute.dst_ns = ns;
                        w.permute.dst_base = addr as i64;
                    } else {
                        w.permute.src_ns = ns;
                        w.permute.src_base = addr as i64;
                    }
                    w.permute.configured = true;
                }
                Instruction::PermuteSetIter { dim, count } => {
                    // The engine clamps extents to ≥ 1 (`count.max(1)`).
                    w.permute.extents[dim as usize % 8] = count.max(1) as u32;
                    w.permute.configured = true;
                }
                Instruction::PermuteSetStride {
                    is_dst,
                    dim,
                    stride,
                } => {
                    let side = if is_dst {
                        &mut w.permute.dst_strides
                    } else {
                        &mut w.permute.src_strides
                    };
                    side[dim as usize % 8] = stride as i64;
                    w.permute.configured = true;
                }
                Instruction::PermuteStart { .. } => {
                    v.permute_start(&w, pc);
                    // The engine consumes its configuration on start.
                    w.permute.configured = false;
                }
                Instruction::TileLdSt { .. } => {
                    v.barrier(&w, pc);
                }
                Instruction::Sync(_) | Instruction::DatatypeConfig { .. } => {}
                _ if instr.is_compute() => {
                    // Bare compute: a single-instruction nest over the
                    // current levels (which are then consumed).
                    v.nest(&w, pc, &instrs[pc..pc + 1]);
                    w.levels.clear();
                }
                _ => {}
            }
            pc += 1;
        }
    }

    fn loop_set_iter(&mut self, pc: usize, loop_id: u8, count: u16, v: &mut impl Visitor) {
        let id = loop_id as usize;
        if id >= MAX_LOOP_LEVELS {
            v.discipline(Diagnostic::new(
                pc,
                Rule::LoopTooDeep,
                format!(
                    "loop level {id} exceeds the Code Repeater's {MAX_LOOP_LEVELS} nest levels"
                ),
            ));
            return;
        }
        if id > self.levels.len() {
            v.discipline(Diagnostic::new(
                pc,
                Rule::LoopLevelOrder,
                format!(
                    "loop level {id} configured while only {} outer level(s) exist — \
                     levels must be configured outermost-first",
                    self.levels.len()
                ),
            ));
            // Recover the way a programmer most plausibly meant it: treat
            // it as the next level so the rest of the nest still checks.
        } else if id < self.levels.len() {
            // Reconfiguration truncates deeper levels (hardware behavior).
            self.levels.truncate(id);
        }
        if count == 0 {
            v.discipline(Diagnostic::new(
                pc,
                Rule::LoopZeroIterations,
                format!("loop level {id} iterates zero times — the nest never executes"),
            ));
        }
        self.levels.push(Level {
            count: count as u32,
            bindings: LoopBindings::none(),
        });
    }
}

/// Wall-time and yield of one pipeline pass over one program. Not part
/// of [`crate::VerifyReport`] (and so never part of report equality) —
/// timings are host noise, diagnostics are the deterministic output.
#[derive(Debug, Clone)]
pub struct PassStat {
    /// The pass's stable name.
    pub name: &'static str,
    /// Host wall-time the pass took.
    pub wall: Duration,
    /// Diagnostics the pass contributed.
    pub diagnostics: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_join_is_the_hull() {
        let mut a = AffineInterval::point(4);
        assert!(a.join(&AffineInterval::Range { lo: 10, hi: 12 }));
        assert_eq!(a, AffineInterval::Range { lo: 4, hi: 12 });
        assert!(!a.join(&AffineInterval::point(11)));
        let mut b = AffineInterval::bottom();
        assert!(b.join(&a));
        assert_eq!(b, a);
    }

    #[test]
    fn row_set_advance_tracks_gaps() {
        // base 0, stride 3, 4 iterations: rows {0, 3, 6, 9} — the bitset
        // keeps the gaps an interval hull would close over.
        let mut s = RowSet::window(0, 16);
        s.insert(0);
        s.advance(4, 3);
        assert_eq!(s.rows().collect::<Vec<_>>(), vec![0, 3, 6, 9]);
        assert!(!s.contains(1));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn row_set_join_unions_across_windows() {
        let mut a = RowSet::window(0, 8);
        a.insert(1);
        let mut b = RowSet::window(4, 8);
        b.insert(9);
        assert!(a.join(&b));
        assert_eq!(a.rows().collect::<Vec<_>>(), vec![1, 9]);
        assert!(!a.join(&RowSet::bottom()));
    }

    #[test]
    fn exact_and_widened_intervals_agree_on_affine_streams() {
        let levels = [
            Level {
                count: 5,
                bindings: LoopBindings::none(),
            },
            Level {
                count: 3,
                bindings: LoopBindings::none(),
            },
        ];
        let mut strides = [0i64; MAX_LOOP_LEVELS];
        strides[0] = 2;
        strides[1] = -4;
        let s = Stream { base: 10, strides };
        assert_eq!(s.interval_widened(&levels), s.interval_exact(&levels));
        assert_eq!(s.interval_widened(&levels).bounds(), Some((10 - 8, 10 + 8)));
    }
}
