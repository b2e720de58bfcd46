//! # tandem-fleet
//!
//! Multi-NPU scale-out: a request-serving simulator over a fleet of
//! simulated NPU-Tandems.
//!
//! Everything below this crate simulates one model on one NPU, one run
//! at a time. The paper positions the Tandem Processor as the heart of
//! GeneSys, "a parametrizable NPU generator … for applications ranging
//! from high-end datacenters to ultra-low-power brain-implantable
//! devices" (§10) — and a datacenter NPU is one node in a *service*.
//! This crate adds that layer:
//!
//! * **Workload generation** ([`WorkloadSpec`], [`Catalog`]) —
//!   deterministic seeded arrival processes (closed-loop, open-loop
//!   Poisson, bursty, trace replay) producing requests tagged with a
//!   model from the 7-model zoo (or any catalog of graphs).
//! * **Scheduling** ([`SchedulerPolicy`], [`Policy`]) — pluggable
//!   dispatch policies: FIFO, shortest-job-first over the
//!   `Npu::estimate` cycle oracle, model-affinity routing that exploits
//!   each NPU's compiled-model warm set, and same-model batch
//!   coalescing with a deadline window.
//! * **The serving core** — one copy of the mechanisms every engine
//!   needs. Per-NPU *service lanes* time each unit of work (a dispatch's
//!   service, an LLM iteration) against the shared memory system: they
//!   bank progress at piecewise-constant rates, apply the physics floor
//!   (never before the nominal end), reschedule only completions whose
//!   time moved, and discard superseded events by generation stamp. One
//!   batch-scaling law prices a `k`-batch, and one report builder (on
//!   [`LatencyAccumulator`]) books every completed request — exact
//!   percentiles when records are retained, sketched when streaming.
//! * **The shared memory system** ([`MemorySystem`], a max-min fair
//!   split of one HBM budget) — set [`FleetConfig::hbm_gbps`] and the
//!   members contend for one HBM stack: each unit of work's DMA-byte
//!   footprint (from the cycle model's DAE accounting) becomes a
//!   bandwidth demand, a max-min fair share is recomputed whenever the
//!   set of serving lanes changes, and oversubscription stretches
//!   service into an exact per-request `mem_stall_ns`. Unset, the
//!   engines are byte-identical to a fleet without the memory system.
//! * **Two engines, as policies over the core.** The whole-graph engine
//!   ([`Fleet`], [`FleetConfig`]) is an event-driven simulation in
//!   discrete virtual nanoseconds over N [`tandem_npu::Npu`]s
//!   (heterogeneous configurations allowed), charging queueing delay,
//!   cold-compile warm-up on first sight of a model per NPU, and
//!   batch-scaled service time derived from real per-model cycle
//!   counts. The [`llm`] engine ([`llm::LlmFleet`]) serves
//!   *autoregressive decode*: prefill/decode-step cycle tables built
//!   once from the cached simulator ([`llm::DecodeModel`]) and
//!   iteration-level static batching, Orca-style continuous batching,
//!   and block-boundary preemption with checkpoint/restore, reporting
//!   TTFT/TPOT/tokens-per-second. Both emit per-request
//!   [`RequestRecord`]s whose latency decomposes *exactly* into queue +
//!   warm-up + service + memory stall, and an aggregate [`FleetReport`]
//!   (throughput, per-NPU utilization, p50/p95/p99/p99.9, queue depth
//!   over time, drop/timeout counts).
//!
//! A [`tandem_trace::TraceSink`] threads through
//! [`Fleet::serve_traced`], so a whole fleet run renders in Perfetto —
//! one lane per NPU, queueing visible as the gaps between service
//! spans — alongside the per-NPU traces the executor already emits.
//! The `tandem_serve` binary (crates/bench) sweeps policies × fleet
//! sizes and writes `SERVE.json`; same seed + same [`FleetConfig`] ⇒
//! byte-identical output.
//!
//! ```
//! use tandem_fleet::{Catalog, Fleet, FleetConfig, Policy, WorkloadSpec};
//! use tandem_npu::NpuConfig;
//!
//! let mut catalog = Catalog::new();
//! catalog.add("MobileNetV2", tandem_model::zoo::mobilenetv2());
//! let fleet = Fleet::new(FleetConfig::homogeneous(NpuConfig::paper(), 2));
//! let spec = WorkloadSpec::uniform(&catalog, 2_000.0, 32, 42);
//! let report = fleet.serve(&catalog, &spec, Policy::Fifo);
//! assert_eq!(report.completed, 32);
//! assert!(report.latency.p99_ns >= report.latency.p50_ns);
//! ```

#![warn(missing_docs)]

mod engine;
mod events;
mod lanes;
pub mod llm;
mod memory;
mod policy;
mod report;
mod stats;
mod sweep;
mod workload;

pub use engine::{Fleet, FleetConfig};
pub use memory::{Allocation, BandwidthDemand, MemorySystem};
pub use policy::{
    BatchCoalesce, Dispatch, Fifo, FleetView, ModelAffinity, Policy, SchedulerPolicy, ShortestJob,
};
pub use report::{
    FleetReport, LatencyStats, LlmRecord, LlmStats, ModelStats, NpuUsage, Rejection, RequestRecord,
};
pub use stats::{nearest_rank, LatencyAccumulator, LatencySketch, RollupWindow, SUB_BITS};
pub use sweep::{render_serve_json, serve_json, sweep, ServeScenario, SweepSpec};
pub use workload::{
    ArrivalGen, ArrivalProcess, Catalog, ModelSampler, Request, SplitMix64, WorkloadSpec,
};
