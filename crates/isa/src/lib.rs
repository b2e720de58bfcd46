//! # tandem-isa
//!
//! The 32-bit instruction set of the **Tandem Processor**, the specialized
//! SIMD companion processor proposed in *"Tandem Processor: Grappling with
//! Emerging Operators in Neural Networks"* (ASPLOS 2024).
//!
//! The ISA departs from register-file-centric designs: compute instructions
//! address their operands as `⟨namespace id, iterator index⟩` pairs that
//! indirect through per-namespace *Iterator Tables* holding `⟨offset,
//! stride⟩` tuples (paper §3.2, Figure 7). Nested loops are executed by the
//! *Code Repeater* configured with `LOOP` instructions rather than by
//! conditional branches (§3.3). Six instruction classes exist, mirroring
//! Figure 12 of the paper:
//!
//! | Class | Opcode(s) | Purpose |
//! |-------|-----------|---------|
//! | Synchronization | [`Opcode::Sync`] | GEMM↔Tandem handshaking, region markers |
//! | Configuration | [`Opcode::IteratorConfig`], [`Opcode::DatatypeConfig`] | iterator tables, immediate buffer, dtypes |
//! | Compute | [`Opcode::Alu`], [`Opcode::Calculus`], [`Opcode::Comparison`] | 32-lane INT32 vector operations |
//! | Loop | [`Opcode::Loop`] | Code Repeater configuration |
//! | Data transformation | [`Opcode::Permute`], [`Opcode::DatatypeCast`] | tensor permutation, fixed-point casts |
//! | Off-chip data movement | [`Opcode::TileLdSt`] | Data Access Engine (tile DMA) configuration |
//!
//! Every instruction is exactly one 32-bit word. [`Instruction::encode`]
//! and [`Instruction::decode`] are exact inverses for every representable
//! instruction (property-tested).
//!
//! ```
//! use tandem_isa::{Instruction, AluFunc, Operand, Namespace};
//!
//! # fn main() -> Result<(), tandem_isa::DecodeError> {
//! let add = Instruction::alu(
//!     AluFunc::Add,
//!     Operand::new(Namespace::Interim1, 0),
//!     Operand::new(Namespace::Obuf, 1),
//!     Operand::new(Namespace::Imm, 2),
//! );
//! let word = add.encode();
//! assert_eq!(Instruction::decode(word)?, add);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod asm;
mod decode;
mod encode;
mod error;
mod instr;
mod opcode;
mod operand;
mod parse;
mod program;

pub use error::DecodeError;
pub use instr::{ImmWrite, Instruction, LoopBindings, SyncInfo};
pub use opcode::{
    AluFunc, CalculusFunc, CastTarget, ComparisonFunc, IterConfigFunc, LoopFunc, Opcode,
    PermuteFunc, SyncEdge, SyncKind, SyncUnit, TileBuffer, TileDirection, TileFunc,
};
pub use operand::{Namespace, Operand};
pub use parse::ParseError;
pub use program::Program;

/// Number of bits in an instruction word.
pub const INSTRUCTION_BITS: u32 = 32;

/// Number of distinct loop-nest levels the Code Repeater supports (paper §5:
/// "arbitrary levels of nesting (up to eight)").
pub const MAX_LOOP_LEVELS: usize = 8;

/// Number of entries in each namespace's Iterator Table (5-bit `iter idx`).
pub const ITERATOR_TABLE_ENTRIES: usize = 32;

/// Number of slots in the immediate buffer (paper §4.1: "a small 32-slot
/// scratchpad for immediate values").
pub const IMM_BUF_SLOTS: usize = 32;
