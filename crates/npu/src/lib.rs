//! # tandem-npu
//!
//! The integrated **NPU-Tandem** (paper §4.2, Figures 10–11): a systolic
//! GEMM unit and the Tandem Processor sharing the Output BUF under an
//! execution-controller FSM, with the compiler weaving synchronization
//! instructions between their instruction regions.
//!
//! The crate provides:
//! * [`ExecutionController`] — the controller FSM of Figure 11 (Block
//!   Start → Inst. Dispatch → {GEMM | Tandem | GEMM-Tandem} → Block Done),
//!   driven by tile-completion and OBUF-release handshakes;
//! * [`dispatch_block`] — the Inst. Dispatch step that splits a block's
//!   instruction stream at the synchronization markers;
//! * [`Npu`] — the end-to-end runner: partitions a model into execution
//!   blocks, compiles the non-GEMM bundles, simulates the GEMM unit and
//!   Tandem Processor per tile, and overlaps them with double buffering,
//!   producing runtime/energy/utilization reports per layer class;
//! * [`Despecialization`] — ablation knobs that *undo* each of the Tandem
//!   Processor's specializations (vector-register-file load/stores,
//!   branch-based loops, software address calculation, FIFO coupling,
//!   special-function units), generating Figures 6, 8, 18 and 19;
//! * signature-keyed compilation/simulation caches and scoped-thread
//!   parallel sweeps ([`Npu::run_many`], [`run_matrix`], on the one
//!   ordered fan-out [`par_map`] the fleet and tuner sweeps use too) that
//!   keep the figure harness fast while staying bit-identical to the
//!   serial uncached path ([`Npu::uncached`]); per-run wall-time and
//!   hit/miss counters surface in [`ExecStats`].
//!
//! ```
//! use tandem_npu::{Npu, NpuConfig};
//!
//! let npu = Npu::new(NpuConfig::paper());
//! let report = npu.run(&tandem_model::zoo::vgg16());
//! assert!(report.total_cycles > 0);
//! assert!(report.gemm_utilization() > 0.0);
//! ```

#![warn(missing_docs)]

mod controller;
mod dispatch;
pub mod dse;
mod executor;
mod knobs;
mod par;
mod report;

pub use controller::{ControllerEvent, ControllerState, ExecutionController};
pub use dispatch::{dispatch_block, DispatchedBlock};
pub use dse::{pareto_frontier, sweep, DesignPoint, DseResult};
pub use executor::{run_matrix, Npu, NpuConfig, ServiceDemand, TileGranularity};
pub use knobs::Despecialization;
pub use par::par_map;

// Re-exported so the autotuner (and other schedule-carrying callers) can
// fill [`NpuConfig::schedule`] and consume [`Npu::tune_sites`] without
// naming `tandem-compiler`.
pub use report::{ExecStats, NpuReport, UnitBusy, VerifySummary};
pub use tandem_compiler::{Schedule, TileChoice, TuneSite};

// Re-exported so profiling front-ends can drive [`Npu::run_traced`] and
// consume [`NpuReport::attribution`] without naming `tandem-trace`.
pub use tandem_trace::{
    ChromeTraceSink, CycleAttribution, CycleBreakdown, NullSink, TraceSink, Track,
};
