//! Low-level program construction: iterator-table, IMM-BUF and scratchpad
//! allocation plus nested-loop emission — the mechanical layer every
//! operator template builds on.

use crate::lower::CompileError;
use tandem_isa::{
    Instruction, LoopBindings, Namespace, Operand, Program, IMM_BUF_SLOTS, ITERATOR_TABLE_ENTRIES,
    MAX_LOOP_LEVELS,
};

/// A power-of-two fixed-point format: values represent `v / 2^q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixed {
    /// The fractional bit count.
    pub q: u32,
}

impl Fixed {
    /// The compiler's default activation format (Q14, matching the
    /// integer kernel library).
    pub const DEFAULT: Fixed = Fixed { q: 14 };

    /// `1.0` in this format.
    pub fn one(self) -> i32 {
        1 << self.q
    }

    /// Converts a real constant.
    pub fn of(self, x: f64) -> i32 {
        (x * (1i64 << self.q) as f64).round() as i32
    }
}

/// A rows-region of a namespace holding one tile-resident tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct View {
    /// The namespace.
    pub ns: Namespace,
    /// First row of the region.
    pub base: u16,
    /// Number of rows.
    pub rows: u16,
}

/// One level of a loop nest to emit: an iteration count plus the iterator
/// each operand slot advances at this level.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestLevel {
    /// Iteration count.
    pub count: u16,
    /// Iterator advanced for destinations.
    pub dst: Option<Operand>,
    /// Iterator advanced for first sources.
    pub src1: Option<Operand>,
    /// Iterator advanced for second sources.
    pub src2: Option<Operand>,
}

/// Rows of one Interim BUF that tile programs can address: the machine's
/// `interim_rows`, capped at `u16::MAX` because iterator base rows are
/// 16-bit. [`TileProgramBuilder`] allocates within it and
/// [`crate::Tiler`] sizes tiles by it, so the two agree on every machine.
pub(crate) fn usable_rows(interim_rows: usize) -> u16 {
    interim_rows.min(usize::from(u16::MAX)) as u16
}

/// Instructions a builder's program and its staged loop body have room
/// for before they grow: every zoo template fits (the longest program,
/// Softmax, has 98 instructions; the longest body, Sqrt, 71).
const TILE_CAPACITY: usize = 128;

/// Builds the Tandem program for one tile: allocates iterator-table
/// entries, IMM-BUF slots and scratchpad rows, and emits configuration +
/// loop + compute instructions.
///
/// A builder makes at most two heap allocations: its program, sized once
/// for 128 instructions (every zoo template fits), and, on the first
/// [`stage`](Self::stage), one staged-body buffer of the same size that
/// every [`nest_staged`](Self::nest_staged) reuses. The IMM constant
/// cache is a fixed array and constant writes come inline
/// ([`Instruction::imm_write`]), so a template that fits allocates
/// nothing else.
#[derive(Debug)]
pub struct TileProgramBuilder {
    lanes: usize,
    interim_rows: u16,
    prog: Program,
    /// The constant held by each IMM BUF slot below `imm_next`.
    imm_values: [i32; IMM_BUF_SLOTS],
    imm_next: u8,
    /// The loop body the next [`nest_staged`](Self::nest_staged) emits.
    body: Vec<Instruction>,
    iter_next: [u8; 4],
    row_next: [u16; 2], // bump allocators for Interim1 / Interim2
}

impl TileProgramBuilder {
    /// Creates a builder for a machine with `lanes` lanes and
    /// `interim_rows` rows per Interim BUF (at most `u16::MAX` of them are
    /// addressable).
    pub fn new(lanes: usize, interim_rows: usize) -> Self {
        TileProgramBuilder {
            lanes,
            interim_rows: usable_rows(interim_rows),
            prog: Program::with_capacity(TILE_CAPACITY),
            imm_values: [0; IMM_BUF_SLOTS],
            imm_next: 0,
            body: Vec::new(),
            iter_next: [0; 4],
            row_next: [0; 2],
        }
    }

    /// SIMD lane count.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Finishes and returns the program.
    pub fn finish(self) -> Program {
        self.prog
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, instr: Instruction) {
        self.prog.push(instr);
    }

    /// Materializes a 32-bit constant in the IMM BUF (cached) and returns
    /// its operand.
    ///
    /// # Errors
    ///
    /// [`CompileError::OutOfImmSlots`] when all 32 slots are taken.
    pub fn imm(&mut self, value: i32) -> Result<Operand, CompileError> {
        let held = &self.imm_values[..usize::from(self.imm_next)];
        if let Some(slot) = held.iter().position(|&v| v == value) {
            return Ok(Operand::new(Namespace::Imm, slot as u8));
        }
        if held.len() >= IMM_BUF_SLOTS {
            return Err(CompileError::OutOfImmSlots);
        }
        let slot = self.imm_next;
        self.imm_values[usize::from(slot)] = value;
        self.imm_next += 1;
        self.prog.extend(Instruction::imm_write(slot, value));
        Ok(Operand::new(Namespace::Imm, slot))
    }

    /// Allocates `rows` fresh rows in an Interim BUF.
    ///
    /// # Errors
    ///
    /// [`CompileError::OutOfScratchpad`] when the buffer is exhausted —
    /// the tiler must pick a smaller tile.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is not an Interim namespace.
    pub fn alloc(&mut self, ns: Namespace, rows: u16) -> Result<View, CompileError> {
        let idx = match ns {
            Namespace::Interim1 => 0,
            Namespace::Interim2 => 1,
            _ => panic!("only Interim BUFs are allocatable"),
        };
        let base = self.row_next[idx];
        if base as u32 + rows as u32 > self.interim_rows as u32 {
            return Err(CompileError::OutOfScratchpad {
                ns,
                requested: rows as usize,
                available: (self.interim_rows - base) as usize,
            });
        }
        self.row_next[idx] += rows;
        Ok(View { ns, base, rows })
    }

    /// A view over Output BUF rows (owned by the GEMM unit; not
    /// allocated).
    pub fn obuf(base: u16, rows: u16) -> View {
        View {
            ns: Namespace::Obuf,
            base,
            rows,
        }
    }

    /// Allocates and configures an iterator: base row plus per-advance
    /// stride.
    ///
    /// # Errors
    ///
    /// [`CompileError::OutOfIterators`] when the namespace's table is full.
    pub fn iter(&mut self, ns: Namespace, base: u16, stride: i16) -> Result<Operand, CompileError> {
        let slot = self.iter_next[ns as usize];
        if slot as usize >= ITERATOR_TABLE_ENTRIES {
            return Err(CompileError::OutOfIterators { ns });
        }
        self.iter_next[ns as usize] += 1;
        self.prog.push(Instruction::IterConfigBase {
            ns,
            index: slot,
            addr: base,
        });
        self.prog.push(Instruction::IterConfigStride {
            ns,
            index: slot,
            stride,
        });
        Ok(Operand::new(ns, slot))
    }

    /// An iterator pinned at a view's base with stride per row.
    ///
    /// # Errors
    ///
    /// [`CompileError::OutOfIterators`] when the table is full.
    pub fn iter_at(&mut self, view: View, stride: i16) -> Result<Operand, CompileError> {
        self.iter(view.ns, view.base, stride)
    }

    /// Emits a loop nest running `body` over `levels` (outermost first).
    ///
    /// # Errors
    ///
    /// [`CompileError::TooDeep`] beyond 8 levels.
    ///
    /// # Panics
    ///
    /// Panics if `body` contains a non-compute instruction.
    pub fn nest(&mut self, levels: &[NestLevel], body: &[Instruction]) -> Result<(), CompileError> {
        if levels.len() > MAX_LOOP_LEVELS {
            return Err(CompileError::TooDeep {
                levels: levels.len(),
            });
        }
        assert!(
            body.iter().all(Instruction::is_compute),
            "loop bodies are compute-only"
        );
        if body.is_empty() {
            return Ok(());
        }
        for (id, level) in levels.iter().enumerate() {
            self.prog.push(Instruction::LoopSetIter {
                loop_id: id as u8,
                count: level.count,
            });
            self.prog.push(Instruction::LoopSetIndex {
                bindings: LoopBindings {
                    dst: level.dst,
                    src1: level.src1,
                    src2: level.src2,
                },
            });
        }
        self.prog.push(Instruction::LoopSetNumInst {
            loop_id: levels.len().saturating_sub(1) as u8,
            count: body.len() as u16,
        });
        self.prog.extend(body.iter().copied());
        Ok(())
    }

    /// Appends `instr` to the staged loop body: templates whose bodies
    /// interleave with IMM and iterator allocation stage them here and
    /// emit them with [`nest_staged`](Self::nest_staged).
    pub fn stage(&mut self, instr: Instruction) {
        if self.body.capacity() == 0 {
            self.body.reserve(TILE_CAPACITY);
        }
        self.body.push(instr);
    }

    /// [`nest`](Self::nest) over the staged body, which is then emptied
    /// (its buffer is kept for the next nest).
    ///
    /// # Errors
    ///
    /// [`CompileError::TooDeep`] beyond 8 levels.
    pub fn nest_staged(&mut self, levels: &[NestLevel]) -> Result<(), CompileError> {
        let body = std::mem::take(&mut self.body);
        let emitted = self.nest(levels, &body);
        self.body = body;
        self.body.clear();
        emitted
    }

    /// Rows needed to hold `elems` elements at this lane width.
    pub fn rows_for(&self, elems: usize) -> u16 {
        elems.div_ceil(self.lanes) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_isa::AluFunc;

    #[test]
    fn imm_values_are_cached() {
        let mut b = TileProgramBuilder::new(8, 64);
        let a = b.imm(42).unwrap();
        let c = b.imm(42).unwrap();
        assert_eq!(a, c);
        let d = b.imm(-1).unwrap();
        assert_ne!(a, d);
        // 42 fits one write; -1 fits one write: 2 instructions total.
        assert_eq!(b.finish().len(), 2);
    }

    #[test]
    fn imm_slots_exhaust() {
        let mut b = TileProgramBuilder::new(8, 64);
        for v in 0..32 {
            b.imm(v).unwrap();
        }
        assert!(matches!(b.imm(99), Err(CompileError::OutOfImmSlots)));
    }

    #[test]
    fn scratchpad_allocation_and_reset() {
        let mut b = TileProgramBuilder::new(8, 64);
        let v1 = b.alloc(Namespace::Interim1, 32).unwrap();
        assert_eq!(v1.base, 0);
        let v2 = b.alloc(Namespace::Interim1, 32).unwrap();
        assert_eq!(v2.base, 32);
        assert!(b.alloc(Namespace::Interim1, 1).is_err());
    }

    #[test]
    fn nest_emits_loop_configuration() {
        let mut b = TileProgramBuilder::new(8, 64);
        let x = b.iter(Namespace::Interim1, 0, 1).unwrap();
        let y = b.iter(Namespace::Interim1, 32, 1).unwrap();
        b.nest(
            &[NestLevel {
                count: 4,
                dst: Some(y),
                src1: Some(x),
                src2: Some(x),
            }],
            &[Instruction::alu(AluFunc::Add, y, x, x)],
        )
        .unwrap();
        let p = b.finish();
        // 4 iter config + set_iter + set_index + ninst + 1 body
        assert_eq!(p.len(), 8);
        assert_eq!(p.compute_count(), 1);
    }

    #[test]
    fn nest_depth_limit() {
        let mut b = TileProgramBuilder::new(8, 64);
        let x = b.iter(Namespace::Interim1, 0, 1).unwrap();
        let levels = vec![
            NestLevel {
                count: 2,
                dst: Some(x),
                src1: Some(x),
                src2: Some(x)
            };
            9
        ];
        let body = [Instruction::alu(AluFunc::Add, x, x, x)];
        assert!(matches!(
            b.nest(&levels, &body),
            Err(CompileError::TooDeep { levels: 9 })
        ));
    }
}
