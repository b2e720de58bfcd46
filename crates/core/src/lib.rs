//! # tandem-core
//!
//! A functional *and* cycle-level simulator of the **Tandem Processor**,
//! the register-file-free SIMD companion processor of *"Tandem Processor:
//! Grappling with Emerging Operators in Neural Networks"* (ASPLOS 2024).
//! This is the paper's primary contribution; the paper validates its RTL
//! against exactly this kind of simulator (§7, ≤5% cycle error).
//!
//! ## Microarchitecture modelled (paper §3–4, Figure 9)
//!
//! * **Namespaces** instead of a register file: Interim BUF 1&2, the 32-slot
//!   IMM BUF, and the GEMM unit's Output BUF, all software-managed
//!   scratchpads ([`Scratchpad`]).
//! * **Iterator Tables** at the decode stage: per-namespace tables of
//!   ⟨offset, stride⟩ tuples; compute instructions name operands as
//!   ⟨namespace, iterator⟩ and the front-end computes scratchpad addresses
//!   in parallel with compute ([`IteratorTable`]).
//! * **Code Repeater**: software-configured nested-loop tables (up to eight
//!   levels) that replay the loop body with zero branch/bookkeeping
//!   overhead and advance the bound iterators ([`TandemProcessor`]).
//! * **Data Access Engine**: strided tile DMA between DRAM and the Interim
//!   BUFs ([`DataAccessEngine`]).
//! * **Permute Engine** for transposes and cross-lane shuffles.
//! * 32 INT32 SIMD **ALU lanes** executing the primitive operation set of
//!   §3.4.
//!
//! ## Two execution modes
//!
//! [`Mode::Functional`] executes every lane operation on real data (used by
//! the test suite to validate kernels against reference implementations);
//! [`Mode::Performance`] walks the same instruction stream and produces
//! *identical* cycle and event counts in closed form without touching data
//! (used for end-to-end model runs). A processor's mode is fixed when it
//! is built, and a performance-mode processor allocates no scratchpad
//! storage. The equivalence of the two modes is itself property-tested.
//!
//! ```
//! use tandem_core::{TandemProcessor, TandemConfig, Dram};
//! use tandem_isa::{Instruction, AluFunc, Operand, Namespace, Program, LoopBindings};
//!
//! # fn main() -> Result<(), tandem_core::SimError> {
//! let cfg = TandemConfig::paper();             // Table 3 configuration
//! let mut proc = TandemProcessor::new(cfg);
//! let mut dram = Dram::new(1 << 16);
//!
//! // y[i] = x[i] + x[i] over 4 rows of 32 lanes, driven by the Code Repeater.
//! let mut p = Program::new();
//! let x = Operand::new(Namespace::Interim1, 0);
//! let y = Operand::new(Namespace::Interim1, 1);
//! p.push(Instruction::IterConfigBase { ns: Namespace::Interim1, index: 0, addr: 0 });
//! p.push(Instruction::IterConfigStride { ns: Namespace::Interim1, index: 0, stride: 1 });
//! p.push(Instruction::IterConfigBase { ns: Namespace::Interim1, index: 1, addr: 64 });
//! p.push(Instruction::IterConfigStride { ns: Namespace::Interim1, index: 1, stride: 1 });
//! p.push(Instruction::LoopSetIter { loop_id: 0, count: 4 });
//! p.push(Instruction::LoopSetIndex {
//!     bindings: LoopBindings { dst: Some(y), src1: Some(x), src2: Some(x) },
//! });
//! p.push(Instruction::LoopSetNumInst { loop_id: 0, count: 1 });
//! p.push(Instruction::alu(AluFunc::Add, y, x, x));
//!
//! let report = proc.run(&p, &mut dram)?;
//! assert!(report.compute_cycles > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod alu;
mod area;
mod config;
mod dae;
mod energy;
mod error;
mod iterator_table;
mod permute;
mod processor;
mod report;
mod scratchpad;

pub use alu::{alu_binary, alu_is_unary, calculus, compare, saturate_to};
pub use area::{AreaBreakdown, AreaModel};
pub use config::TandemConfig;
pub use dae::{DataAccessEngine, Dram, TransferPlan};
pub use energy::{EnergyBreakdown, EnergyModel, EventCounters};
pub use error::SimError;
pub use iterator_table::{IteratorEntry, IteratorTable};
pub use permute::PermuteEngine;
pub use processor::{Mode, TandemProcessor};
pub use report::RunReport;
pub use scratchpad::Scratchpad;

// Re-exported so downstream crates can consume the breakdown travelling
// inside [`RunReport`] without naming `tandem-trace` themselves.
pub use tandem_trace::{CycleBreakdown, NullSink, TraceSink, Track};
