//! Autoregressive LLM decode serving over the fleet.
//!
//! Whole-graph serving (the rest of this crate) treats a request as one
//! indivisible graph execution. An LLM request is different: a prompt
//! **prefill** pass followed by many single-token **decode steps**, each
//! reading a KV cache that grows with context — so the right scheduling
//! unit is the *iteration*, not the request. This module family adds
//! that layer:
//!
//! * [`LlmModelSpec`] / [`DecodeModel`] — per-step and prefill
//!   cost/byte tables derived from the cached cycle oracle over
//!   `zoo::gpt2_prefill` / `zoo::gpt2_decode_step`-style graph
//!   builders, sampled at KV-block knots (model.rs).
//! * [`LlmWorkloadSpec`] / [`LlmRequest`] — deterministic Poisson
//!   arrivals with prompt/output token budgets and a latency class
//!   (workload.rs).
//! * [`LlmFleet`] with [`LlmMode`] — the iteration-level engine:
//!   static batching baseline, Orca-style continuous batching, and
//!   continuous + block-boundary checkpoint/restore preemption
//!   (engine.rs). It is a batching policy over the crate's shared
//!   serving core: iterations run on the same per-NPU service lanes,
//!   HBM contention and stale-event rules as whole-graph dispatches,
//!   and completed requests go through the same report builder, which
//!   keeps the exact per-request latency decomposition; TTFT / TPOT /
//!   tokens-per-second accounting lands in [`crate::FleetReport::llm`].
//! * [`llm_sweep`] / [`render_llm_serve_json`] — the mode × fleet-size
//!   grid and the byte-deterministic `SERVE_LLM.json` document
//!   (sweep.rs).

mod engine;
mod model;
mod sweep;
mod workload;

pub use engine::{LlmConfig, LlmFleet, LlmMode};
pub use model::{DecodeModel, LlmModelSpec};
pub use sweep::{
    llm_summary, llm_sweep, llm_sweep_tables, render_llm_serve_json, LlmSummaryRow, LlmSweepSpec,
};
pub use workload::{LlmRequest, LlmWorkloadSpec};
