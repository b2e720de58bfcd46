//! # tandem-compiler
//!
//! The compilation stack of the Tandem Processor (paper §6, Figure 13):
//! it takes the ONNX-level operator graphs of [`tandem_model`], partitions
//! them into **execution blocks** (a GEMM layer, a bundle of non-GEMM
//! layers, or a GEMM layer fused with its trailing non-GEMM bundle),
//! chooses a **uniform tile** per block that fits the on-chip scratchpads
//! (never tiling GEMM reduction dimensions), maps every non-GEMM operator
//! onto a pre-defined **operation template**, translates complex operators
//! to integer-only counterparts (the I-BERT-style [`kernels`]), and lowers
//! the templates into Tandem ISA [`tandem_isa::Program`]s — nested-loop
//! configurations, iterator-table setup, IMM-BUF constants, DAE transfers,
//! and the synchronization instructions that weave GEMM and non-GEMM
//! execution together.
//!
//! The emitted programs are *real*: the `tandem-core` simulator executes
//! them functionally, and the test suite validates compiled operators
//! against the reference kernels and against floating-point math.

#![warn(missing_docs)]

pub mod kernels;

mod blocks;
mod codegen;
mod lower;
mod schedule;
mod signature;
mod tiling;
mod tune_space;

pub use blocks::{BlockKind, ExecutionBlock, Partitioner};
pub use codegen::{Fixed, NestLevel, TileProgramBuilder, View};
pub use lower::{CompileError, CompiledOp, OpLowering};
pub use schedule::{
    schedule_block, schedule_graph, schedule_graph_opts, schedule_graph_with, CompileOptions,
    ScheduledBlock,
};
pub use signature::NodeSignature;
pub use tiling::Tiler;
pub use tune_space::{
    enumerate_sites, prefetch_key, stable_hash, Schedule, StableHasher, TileChoice, TuneSite,
};
