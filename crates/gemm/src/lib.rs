//! # gemm-sim
//!
//! A weight-stationary systolic-array GEMM unit simulator in the style the
//! Tandem Processor paper builds on (§7: "we develop a cycle accurate
//! simulator for a systolic array based GEMM Unit", following
//! SCALE-sim-like methodologies). Configuration defaults follow Table 3:
//! a 32×32 PE array, INT8 multipliers with INT32 accumulation, 384 KB of
//! input/weight scratchpad, 128 KB of accumulators (the Output BUF the
//! Tandem Processor takes ownership of), 1 GHz.
//!
//! The crate provides:
//! * a cycle model ([`GemmUnit::layer_report`] / [`GemmUnit::tile_report`])
//!   for matrix multiplications and im2col-mapped convolutions
//!   ([`GemmWorkload::of_node`]), with every decision the NPU and the
//!   baselines take from it — tile height, weight residency, pass
//!   geometry — made in one place, and
//! * functional INT8×INT8→INT32 kernels ([`functional`]) used by the
//!   end-to-end NPU tests.

#![warn(missing_docs)]

pub mod functional;

mod config;
mod cycles;
mod energy;

pub use config::GemmConfig;
pub use cycles::{GemmReport, GemmUnit, GemmWorkload, PassGeometry};
pub use energy::GemmEnergyModel;
