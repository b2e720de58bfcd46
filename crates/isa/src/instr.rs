//! The [`Instruction`] enum — one variant group per instruction class of
//! Figure 12.

use crate::opcode::*;
use crate::operand::{Namespace, Operand};
use std::ops::Deref;

/// Payload of a synchronization instruction (paper §5: func bits are
/// `⟨GEMM/SIMD, START/END, EXEC/BUF, X⟩`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncInfo {
    /// Which unit the marker/notification concerns.
    pub unit: SyncUnit,
    /// Start or end of the region.
    pub edge: SyncEdge,
    /// Execution-region marker vs Output-BUF release notification.
    pub kind: SyncKind,
    /// 5-bit group id tying the START/END pair of one region together.
    pub group: u8,
}

/// Iterator bindings installed by `LOOP SET_INDEX` for the *current* loop
/// level: which iterator (if any) each operand slot advances when this level
/// increments (paper §4.1: Code Repeater tables "store the information about
/// what Iterator IDs need to be exercised for each operand at a certain loop
/// level").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LoopBindings {
    /// Iterator advanced for the destination slot, if any.
    pub dst: Option<Operand>,
    /// Iterator advanced for the first source slot, if any.
    pub src1: Option<Operand>,
    /// Iterator advanced for the second source slot, if any.
    pub src2: Option<Operand>,
}

impl LoopBindings {
    /// Bindings advancing nothing (placeholder level).
    pub fn none() -> Self {
        Self::default()
    }

    /// Iterates over the present `(slot, operand)` bindings; slots are
    /// numbered `0 = dst`, `1 = src1`, `2 = src2`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Operand)> + '_ {
        [self.dst, self.src1, self.src2]
            .into_iter()
            .enumerate()
            .filter_map(|(slot, op)| op.map(|o| (slot, o)))
    }

    /// The binding of operand slot `slot` (`0 = dst`, `1 = src1`,
    /// `2 = src2`); `None` for absent bindings and out-of-range slots.
    pub fn slot(&self, slot: usize) -> Option<Operand> {
        match slot {
            0 => self.dst,
            1 => self.src1,
            2 => self.src2,
            _ => None,
        }
    }
}

/// One 32-bit Tandem Processor instruction.
///
/// Construct instructions with the class-specific helpers
/// ([`Instruction::alu`], [`Instruction::sync`], …) and convert to/from raw
/// words with [`encode`](Instruction::encode) /
/// [`decode`](Instruction::decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// GEMM↔Tandem synchronization (region markers, OBUF release).
    Sync(SyncInfo),
    /// Set the base address (running-offset origin) of iterator
    /// `ns[index]` to `addr` (scratchpad rows).
    IterConfigBase {
        /// Target namespace.
        ns: Namespace,
        /// Iterator-table index (5 bits).
        index: u8,
        /// Base row address within the namespace.
        addr: u16,
    },
    /// Set the stride of iterator `ns[index]` to `stride` (rows, signed).
    IterConfigStride {
        /// Target namespace.
        ns: Namespace,
        /// Iterator-table index (5 bits).
        index: u8,
        /// Per-advance row stride.
        stride: i16,
    },
    /// Write the low 16 bits of IMM BUF slot `index` (sign-extending).
    ImmWriteLow {
        /// IMM BUF slot (5 bits).
        index: u8,
        /// Immediate value; sign-extended into the 32-bit slot.
        value: i16,
    },
    /// Overwrite the high 16 bits of IMM BUF slot `index`, preserving the
    /// low half (used to materialize full 32-bit constants).
    ImmWriteHigh {
        /// IMM BUF slot (5 bits).
        index: u8,
        /// Upper 16 bits of the slot.
        value: u16,
    },
    /// Configure the implicit datatype of the GEMM-bound cast path.
    DatatypeConfig {
        /// New default cast target.
        target: CastTarget,
    },
    /// Two-source arithmetic/logic vector operation.
    Alu {
        /// Operation selector.
        func: AluFunc,
        /// Destination operand.
        dst: Operand,
        /// First source operand.
        src1: Operand,
        /// Second source operand.
        src2: Operand,
    },
    /// Unary mathematical vector operation.
    Calculus {
        /// Operation selector.
        func: CalculusFunc,
        /// Destination operand.
        dst: Operand,
        /// Source operand.
        src1: Operand,
    },
    /// Vector comparison producing 0/1 predicates.
    Comparison {
        /// Comparison selector.
        func: ComparisonFunc,
        /// Destination operand.
        dst: Operand,
        /// First source operand.
        src1: Operand,
        /// Second source operand.
        src2: Operand,
    },
    /// `LOOP SET_ITER`: configure iteration count of loop `loop_id` and make
    /// it the current configuration level.
    LoopSetIter {
        /// Loop nest level id (3 bits; 0 = outermost configured loop).
        loop_id: u8,
        /// Number of iterations.
        count: u16,
    },
    /// `LOOP SET_NUM_INST`: number of instructions in the loop body.
    LoopSetNumInst {
        /// Loop nest level id (3 bits).
        loop_id: u8,
        /// Instruction count of the body.
        count: u16,
    },
    /// `LOOP SET_INDEX`: bind per-slot iterators for the current level.
    LoopSetIndex {
        /// The bindings (absent slots advance no iterator).
        bindings: LoopBindings,
    },
    /// `PERMUTE SET_BASE_ADDR` for the source or destination tensor.
    PermuteSetBase {
        /// `true` = destination, `false` = source.
        is_dst: bool,
        /// Namespace the tensor lives in (encoded in the low bits of the
        /// otherwise-unused `dim idx` field).
        ns: Namespace,
        /// Base *word* address within the namespace (flat
        /// `row × lanes + lane` addressing).
        addr: u16,
    },
    /// `PERMUTE SET_LOOP_ITER`: extent of permutation dimension `dim`.
    PermuteSetIter {
        /// Dimension index (5 bits).
        dim: u8,
        /// Extent of the dimension.
        count: u16,
    },
    /// `PERMUTE SET_LOOP_STRIDE` for one side and dimension.
    PermuteSetStride {
        /// `true` = destination stride, `false` = source stride.
        is_dst: bool,
        /// Dimension index (5 bits).
        dim: u8,
        /// Stride in rows (signed).
        stride: i16,
    },
    /// `PERMUTE START`: run the configured permutation.
    PermuteStart {
        /// Whether data shuffles across SIMD lanes / scratchpad banks
        /// (paper §5: immediate LSB).
        cross_lane: bool,
    },
    /// Fixed-point datatype cast `dst = saturate::<target>(src1)`.
    DatatypeCast {
        /// Target representation.
        target: CastTarget,
        /// Destination operand.
        dst: Operand,
        /// Source operand.
        src1: Operand,
    },
    /// `TILE_LD_ST`: one Data Access Engine configuration or trigger step.
    TileLdSt {
        /// Load (DRAM→BUF) or store (BUF→DRAM).
        dir: TileDirection,
        /// Configuration function.
        func: TileFunc,
        /// Target Interim buffer.
        buf: TileBuffer,
        /// Loop index / address-half selector (5 bits; bit 4 selects the
        /// upper 16 bits for stride and iter configuration values).
        loop_idx: u8,
        /// 16-bit immediate payload.
        imm: u16,
    },
}

impl Instruction {
    /// Builds a synchronization instruction.
    pub fn sync(unit: SyncUnit, edge: SyncEdge, kind: SyncKind, group: u8) -> Self {
        assert!(group < 32, "sync group {group} does not fit in 5 bits");
        Instruction::Sync(SyncInfo {
            unit,
            edge,
            kind,
            group,
        })
    }

    /// This instruction with its sync group, if it has one, set to 0:
    /// the form in which blocks that differ only in their group agree.
    pub fn ungrouped(self) -> Self {
        match self {
            Instruction::Sync(info) => Instruction::Sync(SyncInfo { group: 0, ..info }),
            other => other,
        }
    }

    /// Builds an ALU compute instruction.
    pub fn alu(func: AluFunc, dst: Operand, src1: Operand, src2: Operand) -> Self {
        Instruction::Alu {
            func,
            dst,
            src1,
            src2,
        }
    }

    /// Builds a calculus (unary) compute instruction.
    pub fn calculus(func: CalculusFunc, dst: Operand, src1: Operand) -> Self {
        Instruction::Calculus { func, dst, src1 }
    }

    /// Builds a comparison compute instruction.
    pub fn comparison(func: ComparisonFunc, dst: Operand, src1: Operand, src2: Operand) -> Self {
        Instruction::Comparison {
            func,
            dst,
            src1,
            src2,
        }
    }

    /// Builds the IMM BUF writes materializing a full 32-bit constant in
    /// slot `index`: one `ImmWriteLow`, followed by an `ImmWriteHigh` only
    /// when the value does not fit in a sign-extended 16-bit immediate.
    /// The writes are returned inline as an [`ImmWrite`], so building them
    /// allocates nothing.
    pub fn imm_write(index: u8, value: i32) -> ImmWrite {
        assert!(index < 32, "imm slot {index} does not fit in 5 bits");
        let low = Instruction::ImmWriteLow {
            index,
            value: value as i16,
        };
        let high = Instruction::ImmWriteHigh {
            index,
            value: (value >> 16) as u16,
        };
        ImmWrite {
            writes: [low, high],
            len: if (value as i16) as i32 == value { 1 } else { 2 },
        }
    }

    /// `true` for compute-class instructions (ALU / Calculus / Comparison /
    /// DatatypeCast) — the ones repeated by the Code Repeater and executed
    /// once per loop iteration.
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            Instruction::Alu { .. }
                | Instruction::Calculus { .. }
                | Instruction::Comparison { .. }
                | Instruction::DatatypeCast { .. }
        )
    }

    /// `true` for configuration-class instructions executed once at block
    /// setup (iterator tables, IMM BUF, loops, permute/DAE configuration).
    pub fn is_config(&self) -> bool {
        !self.is_compute()
            && !matches!(
                self,
                Instruction::Sync(_)
                    | Instruction::PermuteStart { .. }
                    | Instruction::TileLdSt {
                        func: TileFunc::Start,
                        ..
                    }
            )
    }

    /// The primary opcode of this instruction.
    pub fn opcode(&self) -> Opcode {
        match self {
            Instruction::Sync(_) => Opcode::Sync,
            Instruction::IterConfigBase { .. }
            | Instruction::IterConfigStride { .. }
            | Instruction::ImmWriteLow { .. }
            | Instruction::ImmWriteHigh { .. } => Opcode::IteratorConfig,
            Instruction::DatatypeConfig { .. } => Opcode::DatatypeConfig,
            Instruction::Alu { .. } => Opcode::Alu,
            Instruction::Calculus { .. } => Opcode::Calculus,
            Instruction::Comparison { .. } => Opcode::Comparison,
            Instruction::LoopSetIter { .. }
            | Instruction::LoopSetNumInst { .. }
            | Instruction::LoopSetIndex { .. } => Opcode::Loop,
            Instruction::PermuteSetBase { .. }
            | Instruction::PermuteSetIter { .. }
            | Instruction::PermuteSetStride { .. }
            | Instruction::PermuteStart { .. } => Opcode::Permute,
            Instruction::DatatypeCast { .. } => Opcode::DatatypeCast,
            Instruction::TileLdSt { .. } => Opcode::TileLdSt,
        }
    }

    /// The operands read by this instruction, if it is a compute
    /// instruction: `(src1, src2)`. `MACC` additionally reads `dst`.
    pub fn sources(&self) -> Option<(Operand, Option<Operand>)> {
        match *self {
            Instruction::Alu {
                func, src1, src2, ..
            } => {
                if matches!(func, AluFunc::Not | AluFunc::Move) {
                    Some((src1, None))
                } else {
                    Some((src1, Some(src2)))
                }
            }
            Instruction::Calculus { src1, .. } => Some((src1, None)),
            Instruction::Comparison { src1, src2, .. } => Some((src1, Some(src2))),
            Instruction::DatatypeCast { src1, .. } => Some((src1, None)),
            _ => None,
        }
    }

    /// The operand written by this instruction, for compute instructions.
    pub fn destination(&self) -> Option<Operand> {
        match *self {
            Instruction::Alu { dst, .. }
            | Instruction::Calculus { dst, .. }
            | Instruction::Comparison { dst, .. }
            | Instruction::DatatypeCast { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// `true` for compute instructions whose destination is
    /// read-modify-write (`MACC` accumulates, `COND_MOVE` preserves
    /// unselected lanes).
    pub fn reads_destination(&self) -> bool {
        matches!(
            self,
            Instruction::Alu {
                func: AluFunc::Macc | AluFunc::CondMove,
                ..
            }
        )
    }

    /// Slot-indexed operand view `[dst, src1, src2]` of a compute
    /// instruction — the indices match [`LoopBindings::slot`]. All three
    /// entries are `None` for non-compute instructions.
    pub fn operands(&self) -> [Option<Operand>; 3] {
        match self.sources() {
            Some((src1, src2)) => [self.destination(), Some(src1), src2],
            None => [None, None, None],
        }
    }
}

pub(crate) fn namespace_opt_to_bits(op: Option<Operand>) -> u32 {
    match op {
        Some(o) => o.to_bits(),
        None => (Namespace::NONE_BITS as u32) << 5,
    }
}

/// The one or two IMM BUF writes of one 32-bit constant, held inline (see
/// [`Instruction::imm_write`]). It derefs to a slice (`len()`, `iter()`)
/// and iterates by value or by reference, like the `Vec` it replaces,
/// without a heap allocation per constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImmWrite {
    writes: [Instruction; 2],
    len: usize,
}

impl Deref for ImmWrite {
    type Target = [Instruction];

    fn deref(&self) -> &[Instruction] {
        &self.writes[..self.len]
    }
}

impl IntoIterator for ImmWrite {
    type Item = Instruction;
    type IntoIter = std::iter::Take<std::array::IntoIter<Instruction, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.writes.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a ImmWrite {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}
