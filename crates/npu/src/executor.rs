//! The end-to-end executor: graph → execution blocks → per-tile GEMM /
//! Tandem co-simulation with double-buffered overlap (paper Figure 10).

use crate::controller::{ControllerEvent, ControllerState, ExecutionController};
use crate::knobs::Despecialization;
use crate::par::par_map;
use crate::report::{ExecStats, NpuReport};
use gemm_sim::{GemmConfig, GemmReport, GemmUnit, GemmWorkload};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tandem_compiler::{
    enumerate_sites, prefetch_key, schedule_block, stable_hash, BlockKind, CompileError,
    CompiledOp, ExecutionBlock, NodeSignature, OpLowering, Partitioner, Schedule, TileChoice,
    TuneSite,
};
use tandem_core::{Dram, EnergyModel, Mode, RunReport, TandemConfig, TandemProcessor};
use tandem_model::hash::Memo;
use tandem_model::{Graph, Node, NodeId, TensorId};
use tandem_trace::{scale_buckets, CycleAttribution, NullSink, OffsetSink, TraceSink, Track};
use tandem_verify::{Severity, Verifier, VerifyConfig, VerifyMode};

/// Coordination granularity between the GEMM unit and the Tandem
/// Processor (paper §3.5 and Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TileGranularity {
    /// Tile-granularity software pipelining with fluid Output-BUF
    /// ownership — the proposed design.
    #[default]
    Tile,
    /// Whole-layer handoff: units run serially and intermediate layer
    /// outputs spill to DRAM (the Figure 8 baseline).
    Layer,
}

/// Full NPU-Tandem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NpuConfig {
    /// Tandem Processor configuration (Table 3 right column).
    pub tandem: TandemConfig,
    /// GEMM unit configuration (Table 3 left column).
    pub gemm: GemmConfig,
    /// De-specialization ablation knobs (all off = proposed design).
    pub knobs: Despecialization,
    /// GEMM↔Tandem coordination granularity.
    pub granularity: TileGranularity,
    /// Static/background power of the whole NPU (clock tree, SRAM leakage,
    /// DRAM PHY), watts — the paper compares at a ~2.7 W system (§8).
    pub static_power_w: f64,
    /// Run the `tandem-verify` static pass over every compiled tile
    /// program and record the outcome in [`NpuReport::verify`]. Defaults
    /// to on in debug builds, off (opt-in) in release builds.
    pub verify: bool,
    /// Loop-summarization mode for the verifier: the exact
    /// per-iteration oracle in debug builds, the O(program-size) widened
    /// summaries in release builds. The two report identical
    /// diagnostics; they differ only in wall-time.
    pub verify_mode: VerifyMode,
    /// Tuner schedule overriding per-site tile decisions — the
    /// compiler's non-GEMM sites *and* the GEMM-side pipelining
    /// granularity ([`TileChoice::GemmTile`]), which only this crate can
    /// apply. The empty schedule (the default) reproduces the
    /// hand-rolled heuristics bit for bit.
    pub schedule: Schedule,
}

impl NpuConfig {
    /// The Table 3 configuration with all specializations enabled.
    pub fn paper() -> Self {
        NpuConfig {
            tandem: TandemConfig::paper(),
            gemm: GemmConfig::paper(),
            knobs: Despecialization::none(),
            granularity: TileGranularity::Tile,
            static_power_w: 2.0,
            verify: cfg!(debug_assertions),
            verify_mode: if cfg!(debug_assertions) {
                VerifyMode::Exact
            } else {
                VerifyMode::Widened
            },
            schedule: Schedule::empty(),
        }
    }

    /// The iso-TOPs scale-up used against the A100 (§7: 216×).
    pub fn iso_a100() -> Self {
        let mut cfg = Self::paper();
        cfg.tandem = cfg.tandem.scaled(216.0);
        cfg.gemm = cfg.gemm.scaled(216.0);
        cfg
    }

    /// A stable digest of every report-affecting executor setting. Keys
    /// the shared graph-level report cache, so [`Npu::sibling`]s that
    /// differ only in schedule or verify settings never answer each
    /// other's runs. The unit geometries enter through their headline
    /// dimensions only: siblings share caches only when both units are
    /// configured identically.
    fn digest(&self) -> u64 {
        stable_hash(&(
            self.schedule.digest(),
            self.verify,
            self.verify_mode,
            self.granularity,
            self.knobs,
            self.static_power_w.to_bits(),
            (self.tandem.lanes, self.tandem.interim_rows),
            (self.gemm.rows, self.gemm.cols),
        ))
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Memoization key of a node's (knob-adjusted) simulation report: the
/// node's compile-level signature plus every executor setting that feeds
/// into the report.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SimKey {
    sig: NodeSignature,
    knobs: Despecialization,
    granularity: TileGranularity,
}

/// Memoization key of a whole-graph report: the graph's structural
/// digest, hardened against (already astronomically unlikely) hash
/// collisions by the graph's node and tensor counts, plus the
/// [`NpuConfig::digest`] of the runner — siblings with different
/// schedules share the cache map but never a report.
type GraphKey = (u64, usize, usize, u64);

/// The cycle-and-traffic demand of one batch-1 run of a graph, as
/// returned by [`Npu::estimate_demand`] — the serving layer's input to
/// the shared-HBM contention model: `dram_bytes / (total_cycles /
/// freq_ghz)` is the run's average off-chip bandwidth demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceDemand {
    /// End-to-end latency in cycles — exactly what [`Npu::estimate`]
    /// returns.
    pub total_cycles: u64,
    /// Bytes moved to/from DRAM over the run, both sides of the machine
    /// (Tandem DAE traffic + GEMM unit traffic).
    pub dram_bytes: u64,
}

/// Memoized static-verification outcome of one node's compiled tile
/// programs: `(programs checked, error-severity findings, findings)`.
/// Node-name-free so the value is reusable across structurally identical
/// nodes.
type VerifyOutcome = Arc<(u64, u64, Vec<String>)>;

/// Memoization key of one execution block's [`Npu::verify_schedule`]
/// verdict: whether the block has a GEMM region, the signature of each
/// non-GEMM node in block order, and the verifier mode. A signature
/// enters as its site key plus the schedule's choice there — the same
/// identity a [`Schedule`] maps choices by, without a copy of every
/// shape per entry. That is everything the assembled program depends on
/// except its sync group id: every sync in a block carries the same
/// group, and the verifier's sync and deadlock passes only compare
/// groups for equality, so the verdict cannot depend on which group the
/// block drew.
type GateKey = (bool, Vec<(u64, Option<TileChoice>)>, VerifyMode);

/// The memoization state shared by every clone of an [`Npu`], by its
/// same-silicon siblings and by all [`Npu::run_many`] workers.
///
/// Caching is sound because every cached value is a pure function of its
/// key under one Tandem and one GEMM unit configuration: lowering depends
/// only on the [`NodeSignature`] (compilation errors are memoized too),
/// performance-mode simulation produces identical [`RunReport`]s for the
/// same program, the knob adjustments are deterministic arithmetic on
/// that report, and the GEMM cycle model is closed-form in `(workload,
/// m_tile)`; layer reports use `m_tile = m`.
#[derive(Debug, Default)]
struct NpuCaches {
    compile: Memo<NodeSignature, Arc<Result<CompiledOp, CompileError>>>,
    verify: Memo<(NodeSignature, VerifyMode), VerifyOutcome>,
    gate: Memo<GateKey, bool>,
    sim: Memo<SimKey, RunReport>,
    gemm: Memo<(GemmWorkload, u64), GemmReport>,
    graph: Memo<GraphKey, NpuReport>,
}

/// The NPU-Tandem end-to-end model runner.
///
/// Cloning is cheap and shares the internal compilation/simulation caches
/// (they live behind an [`Arc`]); [`Npu::uncached`] builds a runner that
/// bypasses them entirely, recompiling and resimulating every node.
#[derive(Debug, Clone)]
pub struct Npu {
    cfg: NpuConfig,
    cfg_digest: u64,
    gemm: GemmUnit,
    lowering: OpLowering,
    caches: Arc<NpuCaches>,
    cache_enabled: bool,
}

impl Npu {
    /// Creates an NPU with the given configuration.
    pub fn new(cfg: NpuConfig) -> Self {
        Self::with_caches(cfg, Arc::default(), true)
    }

    /// A runner with different executor settings — schedule, verify,
    /// knobs, granularity — sharing this NPU's caches when it runs on the
    /// *same silicon*. The autotuner scores hundreds of candidate
    /// schedules against one graph; siblings let every candidate reuse
    /// the compile/simulate work of `(site, choice)` decisions already
    /// paid for by earlier candidates, while the config digest in every
    /// graph cache key keeps their reports apart. The node-level keys
    /// assume one Tandem and one GEMM unit configuration, so a sibling
    /// whose units differ from this NPU's gets caches of its own.
    pub fn sibling(&self, cfg: NpuConfig) -> Npu {
        let caches = if cfg.tandem == self.cfg.tandem && cfg.gemm == self.cfg.gemm {
            Arc::clone(&self.caches)
        } else {
            Arc::default()
        };
        Self::with_caches(cfg, caches, self.cache_enabled)
    }

    /// Creates an NPU whose runs bypass the compilation and simulation
    /// caches — every node is recompiled and resimulated. Reports are
    /// identical to the cached path; only wall-time differs. Used by the
    /// benchmarks and the determinism tests as the reference path.
    pub fn uncached(cfg: NpuConfig) -> Self {
        Self::with_caches(cfg, Arc::default(), false)
    }

    fn with_caches(cfg: NpuConfig, caches: Arc<NpuCaches>, cache_enabled: bool) -> Self {
        let gemm = GemmUnit::new(cfg.gemm.clone());
        let lowering = OpLowering::new(cfg.tandem.lanes, cfg.tandem.interim_rows)
            .with_schedule(cfg.schedule.clone());
        Npu {
            cfg_digest: cfg.digest(),
            cfg,
            gemm,
            lowering,
            caches,
            cache_enabled,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &NpuConfig {
        &self.cfg
    }

    /// Runs `graph` end-to-end (batch 1 inference) and reports latency,
    /// energy, utilization and the per-operator breakdown.
    ///
    /// A graph already run on this NPU (any clone, any `run_many` worker)
    /// is answered from the graph-level report cache in O(graph) hash
    /// time; a new graph runs block-by-block against the node-level
    /// caches.
    pub fn run(&self, graph: &Graph) -> NpuReport {
        let t0 = Instant::now();
        let before = self.stats();
        let mut report = if self.cache_enabled {
            let key: GraphKey = (
                graph.content_hash(),
                graph.nodes().len(),
                graph.tensors().len(),
                self.cfg_digest,
            );
            self.caches
                .graph
                .get_or_insert_with(&key, || self.run_core(graph))
        } else {
            self.run_core(graph)
        };
        report.stats = self.stats().delta(&before);
        report.stats.wall_s = t0.elapsed().as_secs_f64();
        report
    }

    /// Runs `graph` while streaming a cycle-accurate timeline into `sink`:
    /// execution-block spans, per-tile GEMM/Tandem pipelining with stall
    /// gaps, embedded instruction-level program timelines, DMA bursts,
    /// execution-controller handshakes, and a running cycle-attribution
    /// counter. The returned report is identical to [`Npu::run`]'s (the
    /// determinism tests assert this), but the graph-level report cache is
    /// bypassed so a cached graph still produces its events.
    pub fn run_traced(&self, graph: &Graph, sink: &mut dyn TraceSink) -> NpuReport {
        let t0 = Instant::now();
        let before = self.stats();
        let mut report = self.run_core_traced(graph, sink);
        report.stats = self.stats().delta(&before);
        report.stats.wall_s = t0.elapsed().as_secs_f64();
        report
    }

    /// Cumulative hit/miss counters of the caches this NPU shares with
    /// its clones and `run_many` workers, as an [`ExecStats`] snapshot
    /// (`wall_s` is zero). Counters only grow and are never reset; take a
    /// snapshot before and after a batch and subtract with
    /// [`ExecStats::delta`] for contamination-free accounting — the
    /// per-report `stats` deltas also count concurrent workers' lookups.
    pub fn stats(&self) -> ExecStats {
        let c = &*self.caches;
        ExecStats {
            wall_s: 0.0,
            compile_hits: c.compile.hits(),
            compile_misses: c.compile.misses(),
            sim_hits: c.sim.hits(),
            sim_misses: c.sim.misses(),
            gemm_hits: c.gemm.hits(),
            gemm_misses: c.gemm.misses(),
            graph_hits: c.graph.hits(),
            graph_misses: c.graph.misses(),
            gate_hits: c.gate.hits(),
            gate_misses: c.gate.misses(),
        }
    }

    /// A cheap cycle estimate of running `graph` on this NPU: the exact
    /// `total_cycles` a [`Npu::run`] would report. The first call per
    /// graph simulates and fills the shared caches; every later call —
    /// from any clone or fleet member sharing them — replays the cached
    /// report in O(graph-hash) time. Serving-layer schedulers
    /// (shortest-job-first, batch sizing) use this as their service-time
    /// oracle without paying for a fresh simulation per decision.
    pub fn estimate(&self, graph: &Graph) -> u64 {
        self.run(graph).total_cycles
    }

    /// [`Npu::estimate`] plus the run's DRAM traffic: the same cached-run
    /// oracle, returning the pair the fleet's shared-HBM contention model
    /// needs — exact cycles for the service time and the byte footprint
    /// that turns into a bandwidth demand when divided by it.
    pub fn estimate_demand(&self, graph: &Graph) -> ServiceDemand {
        let r = self.run(graph);
        ServiceDemand {
            total_cycles: r.total_cycles,
            dram_bytes: r.tandem_dram_bytes + r.gemm_dram_bytes,
        }
    }

    /// Builds one NPU per configuration for a simulated fleet, sharing
    /// one cache set among members with *equal* configurations (the
    /// NPUs [`run_matrix`] runs its jobs on) so a model compiled on one
    /// member is warm on its twins. `Npu` is `Send + Sync` — the caches
    /// live behind `Arc`-ed locks — so the returned members can be moved
    /// to worker threads or driven round-robin from one event loop.
    pub fn fleet(configs: &[NpuConfig]) -> Vec<Npu> {
        // Compile-time proof the members may cross threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Npu>();
        let mut members: Vec<Npu> = Vec::with_capacity(configs.len());
        for cfg in configs {
            match members.iter().find(|n| n.config() == cfg) {
                Some(prev) => members.push(prev.clone()),
                None => members.push(Npu::new(cfg.clone())),
            }
        }
        members
    }

    /// The uncached whole-graph execution body.
    fn run_core(&self, graph: &Graph) -> NpuReport {
        self.run_core_traced(graph, &mut NullSink)
    }

    /// The uncached whole-graph execution body, with tracing.
    fn run_core_traced(&self, graph: &Graph, sink: &mut dyn TraceSink) -> NpuReport {
        let blocks = Partitioner::new().partition(graph);
        let consumers = graph.consumer_index();
        let mut report = NpuReport {
            gemm_mac_slots: (self.cfg.gemm.rows * self.cfg.gemm.cols) as u64,
            tandem_lanes: self.cfg.tandem.lanes as u64,
            freq_ghz: self.cfg.tandem.freq_ghz,
            ..Default::default()
        };
        // One performance-mode processor serves every node's programs
        // (state is overwritten by each program's configuration section).
        let mut proc = TandemProcessor::with_mode(self.cfg.tandem.clone(), Mode::Performance);
        let mut dram = Dram::new(16);
        // Trailing idle window of the previous block's GEMM DRAM channel:
        // the budget a schedule-enabled weight prefetch may hide in.
        let mut exposed = 0u64;
        for block in &blocks {
            self.run_block(
                graph,
                block,
                &consumers,
                &mut proc,
                &mut dram,
                &mut report,
                sink,
                &mut exposed,
            );
        }
        let energy_model = EnergyModel::paper(self.cfg.tandem.lanes);
        report.tandem_energy = energy_model.energy(&report.counters);
        report.static_nj = self.cfg.static_power_w * report.seconds() * 1e9;
        report
    }

    /// Runs every graph, spreading the work across the available cores
    /// (scoped threads, no work for a missing thread pool to do). All
    /// runs share this NPU's caches, so repeated shapes across models
    /// simulate once. Reports come back in input order and are identical
    /// to `graphs.iter().map(|g| self.run(g))`.
    pub fn run_many(&self, graphs: &[&Graph]) -> Vec<NpuReport> {
        par_map(graphs.len(), 0, |i| self.run(graphs[i]))
    }

    /// The gate `tandem-tune` puts in front of every candidate schedule:
    /// `true` when every execution block of `graph`, assembled under this
    /// NPU's schedule, verifies with no error-severity finding in
    /// [`NpuConfig::verify_mode`]. The verdict equals
    /// `schedule_graph_opts(…, CompileOptions { verify: true, .. })
    /// .is_ok()` under the same schedule and mode; the differential gate
    /// tests assert this.
    ///
    /// Each block's verdict is memoized in the caches this NPU shares
    /// with its siblings, keyed on whether the block has a GEMM region,
    /// its non-GEMM node signatures and the mode (not its sync group),
    /// and a miss assembles the block through the compile cache.
    /// Candidates that differ from an already-gated one at a few sites
    /// therefore verify only the blocks those sites touch. An
    /// [`Npu::uncached`] runner recompiles and re-verifies every block.
    pub fn verify_schedule(&self, graph: &Graph) -> bool {
        self.verify_schedule_with(graph, |node| {
            self.lower(graph, node, self.signature(graph, node).as_ref())
        })
    }

    /// [`Npu::verify_schedule`] with the node lowering supplied by the
    /// caller. The memo key still comes from this NPU's lowering, so a
    /// foreign `lower` must only ever run on a runner of its own.
    fn verify_schedule_with<R>(&self, graph: &Graph, mut lower: impl FnMut(&Node) -> R) -> bool
    where
        R: Borrow<Result<CompiledOp, CompileError>>,
    {
        let verifier = Verifier::new(
            VerifyConfig::for_lowering(self.lowering.lanes(), self.lowering.interim_rows())
                .with_mode(self.cfg.verify_mode),
        );
        let blocks = Partitioner::new().partition(graph);
        blocks.iter().enumerate().all(|(i, block)| {
            let mut verdict = || {
                schedule_block(graph, block, (i % 32) as u8, &mut lower)
                    .is_ok_and(|sb| verifier.verify(&sb.program).is_clean())
            };
            if !self.cache_enabled {
                return verdict();
            }
            let sites = block.non_gemm.iter().map(|&id| {
                let site = self.lowering.site_key(graph, graph.node(id));
                (site, self.lowering.schedule().get(site))
            });
            let key: GateKey = (block.gemm.is_some(), sites.collect(), self.cfg.verify_mode);
            self.caches.gate.get_or_insert_with(&key, verdict)
        })
    }

    /// The signature every node-level cache keys `node` on, built once
    /// per node per run; `None` on an [`Npu::uncached`] runner.
    fn signature(&self, graph: &Graph, node: &Node) -> Option<NodeSignature> {
        self.cache_enabled
            .then(|| NodeSignature::for_lowering(&self.lowering, graph, node))
    }

    /// Lowers `node` under this NPU's schedule: through the compile cache
    /// when the caller has the node's signature, afresh otherwise.
    fn lower(
        &self,
        graph: &Graph,
        node: &Node,
        sig: Option<&NodeSignature>,
    ) -> Arc<Result<CompiledOp, CompileError>> {
        match sig {
            Some(sig) => {
                debug_assert_eq!(
                    *sig,
                    NodeSignature::for_lowering(&self.lowering, graph, node)
                );
                // A miss lowers under the choice the signature carries.
                self.caches.compile.get_or_insert_with(sig, || {
                    Arc::new(self.lowering.lower_node_as(graph, node, sig.choice()))
                })
            }
            None => Arc::new(self.lowering.lower_node(graph, node)),
        }
    }

    /// Statically verifies the compiled tile programs of one non-GEMM
    /// node, accumulating the outcome into [`NpuReport::verify`]. The
    /// summary is a pure function of the graph and machine shape, so
    /// cached and uncached runs report identically. Memoized on the
    /// node's signature `sig` (and the verifier mode) when there is one;
    /// `sig` is handed back for the node's simulation key.
    fn verify_node(
        &self,
        graph: &Graph,
        node: &Node,
        sig: Option<NodeSignature>,
        report: &mut NpuReport,
    ) -> Option<NodeSignature> {
        let compute = |sig: Option<&NodeSignature>| -> VerifyOutcome {
            let verifier =
                Verifier::new(VerifyConfig::from(&self.cfg.tandem).with_mode(self.cfg.verify_mode));
            let compiled = self.lower(graph, node, sig);
            let mut programs = 0u64;
            let mut errors = 0u64;
            let mut diags = Vec::new();
            if let Ok(c) = compiled.as_ref() {
                for (prog, _) in &c.tiles {
                    programs += 1;
                    let rep = verifier.verify(prog);
                    errors += rep
                        .diagnostics
                        .iter()
                        .filter(|d| d.severity() == Severity::Error)
                        .count() as u64;
                    diags.extend(rep.diagnostics.iter().map(|d| d.to_string()));
                }
            }
            Arc::new((programs, errors, diags))
        };
        let (outcome, sig) = match sig {
            None => (compute(None), None),
            Some(sig) => {
                let key = (sig, self.cfg.verify_mode);
                let outcome = self
                    .caches
                    .verify
                    .get_or_insert_with(&key, || compute(Some(&key.0)));
                (outcome, Some(key.0))
            }
        };
        let (programs, errors, diags) = &*outcome;
        report.verify.programs += programs;
        report.verify.errors += errors;
        report
            .verify
            .diagnostics
            .extend(diags.iter().map(|d| format!("{}: {d}", node.name)));
        sig
    }

    /// Simulates one non-GEMM node's compiled programs in performance
    /// mode, returning its (knob-adjusted) aggregate report. Memoized on
    /// the node's signature `sig` (plus the executor knobs) when there is
    /// one; a miss lowers through the compile cache under the same
    /// signature, so the compile cache is consulted only on `sim` misses.
    fn tandem_node_report(
        &self,
        graph: &Graph,
        node: &Node,
        sig: Option<NodeSignature>,
        proc: &mut TandemProcessor,
        dram: &mut Dram,
    ) -> RunReport {
        let Some(sig) = sig else {
            let compiled = self.lower(graph, node, None);
            return self.simulate_node(node, &compiled, proc, dram);
        };
        let key = SimKey {
            sig,
            knobs: self.cfg.knobs,
            granularity: self.cfg.granularity,
        };
        self.caches.sim.get_or_insert_with(&key, || {
            let compiled = self.lower(graph, node, Some(&key.sig));
            self.simulate_node(node, &compiled, proc, dram)
        })
    }

    /// The simulation body of [`Npu::tandem_node_report`]: runs
    /// `node`'s lowering `compiled` and applies the knob adjustments.
    fn simulate_node(
        &self,
        node: &Node,
        compiled: &Result<CompiledOp, CompileError>,
        proc: &mut TandemProcessor,
        dram: &mut Dram,
    ) -> RunReport {
        let compiled = match compiled {
            Ok(c) => c,
            Err(_) => return RunReport::default(), // metadata-only ops
        };
        let mut total = RunReport::default();
        for (prog, reps) in &compiled.tiles {
            let one = proc
                .run(prog, dram)
                .expect("compiled tile program must simulate");
            total.merge(&one.scaled(*reps));
        }
        // De-specialization penalties and special-function credits. The
        // penalty models extra *instructions*, so it lands in the
        // `despecialization` bucket; the multiplicative credit rescales
        // every bucket so the breakdown keeps summing to the cycles.
        let extra = self.cfg.knobs.extra_cycles(&total.counters);
        total.compute_cycles += extra;
        total.breakdown.despecialization += extra;
        let factor = self.cfg.knobs.special_fn_factor(node.kind);
        if factor < 1.0 {
            total.compute_cycles = ((total.compute_cycles as f64) * factor).ceil() as u64;
            total.breakdown.scale_to(total.compute_cycles);
        }
        total
    }

    /// [`GemmUnit::tile_report`], memoized unless this NPU is uncached.
    fn gemm_tile_report(&self, w: GemmWorkload, m_tile: u64) -> GemmReport {
        if self.cache_enabled {
            self.caches
                .gemm
                .get_or_insert_with(&(w, m_tile), || self.gemm.tile_report(w, m_tile))
        } else {
            self.gemm.tile_report(w, m_tile)
        }
    }

    /// [`GemmUnit::layer_report`], memoized unless this NPU is uncached.
    fn gemm_layer_report(&self, w: GemmWorkload) -> GemmReport {
        self.gemm_tile_report(w, w.m)
    }

    /// The single-pass DATATYPE_CAST stream over `elems` elements.
    fn cast_stream_report(&self, elems: u64) -> RunReport {
        let lanes = self.cfg.tandem.lanes as u64;
        let rows = elems.div_ceil(lanes);
        let mut r = RunReport {
            compute_cycles: rows + self.cfg.tandem.pipeline_depth,
            ..Default::default()
        };
        r.counters.instructions = rows;
        r.counters.compute_issues = rows;
        r.counters.alu_lane_ops = rows * lanes;
        r.counters.spad_row_reads = rows;
        r.counters.spad_row_writes = rows;
        r.counters.addr_calcs = rows * 2;
        r.counters.loop_steps = rows;
        r.breakdown.issue = rows;
        r.breakdown.fill = self.cfg.tandem.pipeline_depth;
        let extra = self.cfg.knobs.extra_cycles(&r.counters);
        r.compute_cycles += extra;
        r.breakdown.despecialization += extra;
        r
    }

    /// GEMM workload of a GEMM-class node.
    fn gemm_workload(&self, graph: &Graph, node: &Node) -> GemmWorkload {
        use tandem_model::OpKind::*;
        match node.kind {
            Conv => {
                let out = &graph.tensor(node.outputs[0]).shape;
                let cin = graph.tensor(node.inputs[0]).shape.dim(1);
                GemmWorkload::from_conv(
                    out.dim(2) as u64,
                    out.dim(3) as u64,
                    cin as u64,
                    out.dim(1) as u64,
                    node.attrs.kernel as u64,
                )
            }
            MatMul => {
                let out = &graph.tensor(node.outputs[0]).shape;
                let k = graph.tensor(node.inputs[0]).shape.dim(-1) as u64;
                let n = out.dim(-1) as u64;
                let m = out.elements() as u64 / n;
                GemmWorkload::new(m, k, n)
            }
            Gemm => {
                let out = &graph.tensor(node.outputs[0]).shape;
                let k = graph.tensor(node.inputs[0]).shape.dim(-1) as u64;
                GemmWorkload::new(out.dim(0) as u64, k, out.dim(-1) as u64)
            }
            other => unreachable!("{other} is not a GEMM operator"),
        }
    }

    /// Enumerates every tuning site of `graph` on this NPU: the
    /// compiler's non-GEMM sites ([`enumerate_sites`]) merged with the
    /// GEMM-side pipelining-granularity sites only this crate can build
    /// — their candidate m-tiles depend on the systolic geometry through
    /// [`GemmUnit::max_tile_rows`]. Site keys and candidate lists are
    /// schedule-independent, so the result is identical whatever
    /// schedule this NPU currently runs under.
    pub fn tune_sites(&self, graph: &Graph) -> Vec<TuneSite> {
        use std::collections::BTreeSet;
        let mut sites = enumerate_sites(&self.lowering, graph);
        let mut index: HashMap<u64, usize> =
            sites.iter().enumerate().map(|(i, s)| (s.key, i)).collect();
        for node in graph.nodes() {
            if node.kind.class() != tandem_model::OpClass::Gemm {
                continue;
            }
            let key = self.lowering.site_key(graph, node);
            if let Some(&i) = index.get(&key) {
                sites[i].instances += 1;
                continue;
            }
            let w = self.gemm_workload(graph, node);
            // The hand-rolled executor always takes the largest tile the
            // accumulator holds; the candidates walk down from it and add
            // the largest *exact divisor* of M (no ragged last tile).
            let cap = self.gemm.max_tile_rows(w.n).min(w.m.max(1));
            let baseline = TileChoice::GemmTile { m_rows: cap as u32 };
            let mut set = BTreeSet::from([baseline]);
            for c in [cap / 2, cap / 4, cap / 8, largest_divisor_le(w.m, cap)] {
                if c >= 1 {
                    set.insert(TileChoice::GemmTile { m_rows: c as u32 });
                }
            }
            if set.len() < 2 {
                continue;
            }
            index.insert(key, sites.len());
            sites.push(TuneSite {
                key,
                name: node.name.clone(),
                node: node.id,
                instances: 1,
                baseline,
                candidates: set.into_iter().collect(),
            });
        }
        // Cross-block weight-prefetch sites: one boolean per distinct
        // GEMM signature whose weight matrix actually appears in the
        // first-tile fill (resident-and-tiled weights are already
        // amortized, so prefetch would be a no-op there).
        for node in graph.nodes() {
            if node.kind.class() != tandem_model::OpClass::Gemm {
                continue;
            }
            let key = self.lowering.site_key(graph, node);
            let pkey = prefetch_key(key);
            if let Some(&i) = index.get(&pkey) {
                sites[i].instances += 1;
                continue;
            }
            let w = self.gemm_workload(graph, node);
            let cap = self.gemm.max_tile_rows(w.n).min(w.m.max(1));
            let weight_bytes = w.k * w.n;
            let resident = weight_bytes <= (self.gemm.config().scratchpad_bytes / 2) as u64;
            if resident && cap < w.m {
                continue;
            }
            index.insert(pkey, sites.len());
            sites.push(TuneSite {
                key: pkey,
                name: format!("{}+prefetch", node.name),
                node: node.id,
                instances: 1,
                baseline: TileChoice::Prefetch { on: false },
                candidates: vec![
                    TileChoice::Prefetch { on: false },
                    TileChoice::Prefetch { on: true },
                ],
            });
        }
        sites
    }

    /// DRAM traffic of the Tandem side for a block: activations entering
    /// from outside the block (except the GEMM output, which arrives via
    /// the Output BUF) and activations leaving it (INT32 words).
    /// `consumers` is the whole-graph [`Graph::consumer_index`].
    fn block_tandem_dram_bytes(
        &self,
        graph: &Graph,
        block: &ExecutionBlock,
        consumers: &[Vec<NodeId>],
    ) -> u64 {
        // Written inside the block (non-GEMM outputs, or the GEMM output
        // arriving via the Output BUF): a linear scan, since a block holds
        // only a handful of nodes.
        let produced_here = |t: &TensorId| {
            block
                .non_gemm
                .iter()
                .chain(&block.gemm)
                .any(|&id| graph.node(id).outputs.contains(t))
        };
        // Activations live in DRAM as INT8 (the cast stream converts at
        // the boundary), so cross-block traffic is one byte per element.
        let mut bytes = 0u64;
        for &id in &block.non_gemm {
            let node = graph.node(id);
            for &input in &node.inputs {
                let t = graph.tensor(input);
                if !t.is_weight && !produced_here(&input) {
                    bytes += t.shape.elements() as u64;
                }
            }
            for &output in &node.outputs {
                let consumed_outside = consumers[output.index()]
                    .iter()
                    .any(|id| !block.non_gemm.contains(id))
                    || graph.outputs().contains(&output);
                if consumed_outside {
                    bytes += graph.tensor(output).shape.elements() as u64;
                }
            }
        }
        bytes
    }

    #[allow(clippy::too_many_arguments)]
    fn run_block(
        &self,
        graph: &Graph,
        block: &ExecutionBlock,
        consumers: &[Vec<NodeId>],
        proc: &mut TandemProcessor,
        dram: &mut Dram,
        report: &mut NpuReport,
        sink: &mut dyn TraceSink,
        exposed: &mut u64,
    ) {
        let cursor = report.total_cycles;
        // --- Tandem side: compile + simulate each non-GEMM node ---
        let mut tandem_total = RunReport::default();
        for &id in &block.non_gemm {
            let node = graph.node(id);
            let mut sig = self.signature(graph, node);
            if self.cfg.verify {
                sig = self.verify_node(graph, node, sig, report);
            }
            let r = self.tandem_node_report(graph, node, sig, proc, dram);
            *report.per_kind_cycles.entry(node.kind).or_default() += r.compute_cycles;
            tandem_total.merge(&r);
        }
        // Datatype cast stream back to the GEMM unit's INT8 domain for the
        // block's output activations (paper §3.4: "a datatype casting
        // instruction is required when activations move from non-GEMM to
        // GEMM unit").
        if !block.non_gemm.is_empty() {
            let last = graph.node(*block.non_gemm.last().expect("non-empty"));
            let out_elems = graph.tensor(last.outputs[0]).shape.elements() as u64;
            let cast = self.cast_stream_report(out_elems);
            *report
                .per_kind_cycles
                .entry(tandem_model::OpKind::Cast)
                .or_default() += cast.compute_cycles;
            tandem_total.merge(&cast);
        }
        let tandem_dram_bytes = self.block_tandem_dram_bytes(graph, block, consumers);
        let dma_cycles =
            (tandem_dram_bytes as f64 / (self.cfg.tandem.dram_words_per_cycle * 4.0)).ceil() as u64;
        tandem_total.dma_cycles += dma_cycles;
        tandem_total.counters.dram_words += tandem_dram_bytes / 4;
        report.tandem_dram_bytes += tandem_dram_bytes;

        // --- GEMM side ---
        let mut gemm_compute_cycles = 0u64;
        let mut gemm_detail: Option<(GemmWorkload, u64)> = None;
        // Cycles the GEMM DRAM channel is busy in this block (bounds the
        // idle window the *next* block's weight prefetch may hide in),
        // and this block's first-tile fill after prefetch hiding.
        let mut gemm_dram_busy = 0u64;
        let mut gemm_fill_cycles = 0u64;
        let (gemm_total_cycles, gemm_tile_cycles, tiles) = match block.gemm {
            Some(id) => {
                let node = graph.node(id);
                let w = self.gemm_workload(graph, node);
                let cap = self.gemm.max_tile_rows(w.n).min(w.m.max(1));
                // One site key per GEMM node serves both of its schedule
                // decisions; none is computed under the empty schedule.
                let site =
                    (!self.cfg.schedule.is_empty()).then(|| self.lowering.site_key(graph, node));
                let pinned = |key: u64| self.cfg.schedule.get(key);
                let tile_rows = match site.and_then(pinned) {
                    Some(TileChoice::GemmTile { m_rows }) => (m_rows as u64).clamp(1, cap),
                    _ => cap,
                };
                let tiles = w.m.div_ceil(tile_rows.max(1)).max(1);
                let m_tile = tile_rows.min(w.m);
                let tile = self.gemm_tile_report(w, m_tile);
                let whole = self.gemm_layer_report(w);
                report.gemm_macs += whole.macs;
                report.gemm_dram_bytes += whole.dram_bytes;
                report.gemm_energy_nj += whole.energy_nj;
                *report.per_kind_cycles.entry(node.kind).or_default() += whole.overlapped_cycles();
                report.busy.gemm_cycles += whole.compute_cycles;
                gemm_compute_cycles = whole.compute_cycles;
                gemm_detail = Some((w, m_tile));
                // Cross-block weight prefetch (schedule-enabled): up to
                // the double-buffered scratchpad half of this matrix may
                // stream during the previous block's idle-channel window
                // (`*exposed`), shrinking the first tile's weight load.
                // The total traffic is unchanged — only its placement.
                let prefetch = site.and_then(|s| pinned(prefetch_key(s)));
                let hidden = if prefetch == Some(TileChoice::Prefetch { on: true }) {
                    let gcfg = self.gemm.config();
                    let weight_bytes = w.k * w.n;
                    let half = (gcfg.scratchpad_bytes / 2) as u64;
                    // Mirrors `GemmUnit::tile_report`'s residency rule: a
                    // resident matrix on a tiled layer never appears in
                    // tile DRAM time, so there is nothing to hide.
                    let charged = if weight_bytes <= half && m_tile < w.m {
                        0
                    } else {
                        weight_bytes.min(half)
                    };
                    let hideable = (charged as f64 / gcfg.dram_bytes_per_cycle).ceil() as u64;
                    hideable.min(*exposed)
                } else {
                    0
                };
                let fill = tile
                    .compute_cycles
                    .max(tile.dram_cycles.saturating_sub(hidden));
                gemm_fill_cycles = fill;
                gemm_dram_busy = if block.non_gemm.is_empty() {
                    whole.dram_cycles.saturating_sub(hidden)
                } else {
                    (tiles * tile.dram_cycles).saturating_sub(hidden)
                };
                let whole_hidden = whole
                    .compute_cycles
                    .max(whole.dram_cycles.saturating_sub(hidden));
                (whole_hidden, tile.overlapped_cycles(), tiles)
            }
            None => (0, 0, 1),
        };

        report.busy.tandem_cycles += tandem_total.compute_cycles;
        report.counters.merge(&tandem_total.counters);

        // --- compose block latency and attribute every cycle of it ---
        let fifo = self.cfg.knobs.fifo_cycles(self.cfg.tandem.obuf_rows as u64) * tiles;
        let tandem_cycles = tandem_total.compute_cycles.max(tandem_total.dma_cycles) + fifo;
        // Decompose the Tandem side of the critical path: useful vector
        // work, front-end stalls, and sync from the per-program breakdown
        // (which sums exactly to `compute_cycles`), plus the FIFO-coupling
        // copies and the DMA excess past compute.
        let tb = &tandem_total.breakdown;
        let tandem_busy = tb.issue + tb.permute + tb.tile_issue + tb.despecialization;
        let tandem_front = tb.config + tb.fill;
        let dae_excess = tandem_total
            .dma_cycles
            .saturating_sub(tandem_total.compute_cycles);
        let mut attr = CycleAttribution::default();
        let block_cycles = match (block.gemm.is_some(), block.non_gemm.is_empty()) {
            (true, true) => {
                attr.gemm_compute = gemm_compute_cycles.min(gemm_total_cycles);
                attr.dae_wait = gemm_total_cycles - attr.gemm_compute;
                gemm_total_cycles
            }
            (false, _) => {
                attr.tandem_compute = tandem_busy;
                attr.front_end_stall = tandem_front;
                attr.sync_wait = tb.sync + fifo;
                attr.dae_wait = dae_excess;
                tandem_cycles
            }
            (true, false) => match self.cfg.granularity {
                TileGranularity::Tile => {
                    // Fill with the first GEMM tile, then steady-state
                    // max(gemm, tandem) per tile, then drain the last
                    // Tandem tile.
                    let t_tile = tandem_cycles / tiles.max(1);
                    // First tile: the Tandem Processor has nothing to do
                    // (the fill shrinks when a prefetch hid its weights).
                    attr.drain = gemm_fill_cycles;
                    // Steady state: when a GEMM tile outlasts a Tandem
                    // tile, the Tandem Processor waits on the next
                    // Output-BUF handoff.
                    attr.sync_wait = (tiles - 1) * gemm_tile_cycles.saturating_sub(t_tile);
                    // The Tandem side runs `tiles × t_tile` cycles on the
                    // critical path; rescale its decomposition to exactly
                    // that (integer tiling truncates the remainder).
                    let mut buckets = [tandem_busy, tandem_front, tb.sync + fifo, dae_excess];
                    scale_buckets(&mut buckets, tiles * t_tile);
                    attr.tandem_compute = buckets[0];
                    attr.front_end_stall = buckets[1];
                    attr.sync_wait += buckets[2];
                    attr.dae_wait = buckets[3];
                    gemm_fill_cycles + (tiles - 1) * gemm_tile_cycles.max(t_tile) + t_tile
                }
                TileGranularity::Layer => {
                    // Serial handoff through DRAM: the whole GEMM output
                    // spills and re-loads.
                    let spill_bytes = block
                        .gemm
                        .map(|id| {
                            graph.tensor(graph.node(id).outputs[0]).shape.elements() as u64 * 4 * 2
                        })
                        .unwrap_or(0);
                    let spill = (spill_bytes as f64 / (self.cfg.tandem.dram_words_per_cycle * 4.0))
                        .ceil() as u64;
                    attr.gemm_compute = gemm_compute_cycles.min(gemm_total_cycles);
                    attr.tandem_compute = tandem_busy;
                    attr.front_end_stall = tandem_front;
                    attr.sync_wait = tb.sync + fifo;
                    attr.dae_wait = (gemm_total_cycles - attr.gemm_compute) + dae_excess + spill;
                    gemm_total_cycles + tandem_cycles + spill
                }
            },
        };
        debug_assert_eq!(
            attr.total(),
            block_cycles,
            "attribution must cover the block latency exactly"
        );
        report.attribution.merge(&attr);
        report.total_cycles += block_cycles;
        // Whatever part of this block the GEMM DRAM channel sat idle is
        // the next block's prefetch budget.
        *exposed = block_cycles.saturating_sub(gemm_dram_busy);
        if sink.enabled() {
            self.trace_block(
                graph,
                block,
                proc,
                dram,
                cursor,
                block_cycles,
                tiles,
                gemm_tile_cycles,
                gemm_total_cycles,
                tandem_cycles,
                &tandem_total,
                gemm_detail,
                sink,
            );
            sink.counter(
                "cycle attribution",
                report.total_cycles,
                &report.attribution.rows(),
            );
        }
    }

    /// Emits the timeline of one executed block: the block span, per-tile
    /// GEMM↔Tandem pipelining with its stall gaps, the execution
    /// controller's handshakes (fed through the real Figure 11 FSM so the
    /// protocol is re-validated while tracing), DMA excess, and the
    /// embedded instruction-level timeline of the block's compiled tile
    /// programs.
    #[allow(clippy::too_many_arguments)]
    fn trace_block(
        &self,
        graph: &Graph,
        block: &ExecutionBlock,
        proc: &mut TandemProcessor,
        dram: &mut Dram,
        cursor: u64,
        block_cycles: u64,
        tiles: u64,
        gemm_tile_cycles: u64,
        gemm_total_cycles: u64,
        tandem_cycles: u64,
        tandem_total: &RunReport,
        gemm_detail: Option<(GemmWorkload, u64)>,
        sink: &mut dyn TraceSink,
    ) {
        // Per-tile spans beyond this count coalesce into one "(elided)"
        // span (its `tiles` arg records how many) so huge layers stay
        // loadable in the viewer.
        const DETAIL_TILES: u64 = 32;
        let kind = block.kind();
        let label = match (block.gemm, block.non_gemm.first()) {
            (Some(g), _) => graph.node(g).name.as_str(),
            (None, Some(&n)) => graph.node(n).name.as_str(),
            (None, None) => "empty block",
        };
        sink.span(
            Track::Blocks,
            label,
            "block",
            cursor,
            block_cycles,
            &[
                ("tiles", tiles),
                ("non_gemm_ops", block.non_gemm.len() as u64),
            ],
        );
        let mut ctrl = ExecutionController::new(tiles.min(u32::MAX as u64) as u32);
        ctrl.start_dispatch();
        ctrl.on_event(ControllerEvent::DispatchDone(kind));
        sink.instant(
            Track::Controller,
            "dispatch done",
            "handshake",
            cursor,
            &[("tiles", tiles)],
        );
        match kind {
            BlockKind::GemmOnly => {
                sink.span(
                    Track::Gemm,
                    "gemm layer",
                    "compute",
                    cursor,
                    gemm_total_cycles,
                    &[("tiles", tiles)],
                );
                self.trace_gemm_passes(gemm_detail, cursor, sink);
                let per_tile = gemm_total_cycles / tiles.max(1);
                for k in 0..tiles {
                    ctrl.on_event(ControllerEvent::GemmTileDone);
                    if k < DETAIL_TILES || k + 1 == tiles {
                        let at = if k + 1 == tiles {
                            cursor + gemm_total_cycles
                        } else {
                            cursor + (k + 1) * per_tile
                        };
                        sink.instant(
                            Track::Controller,
                            "GEMM_tile_done",
                            "handshake",
                            at,
                            &[("tile", k)],
                        );
                    }
                }
            }
            BlockKind::NonGemmOnly => {
                sink.span(
                    Track::Tandem,
                    "tandem bundle",
                    "compute",
                    cursor,
                    tandem_cycles,
                    &[("ops", block.non_gemm.len() as u64)],
                );
                self.trace_dae_stream(tandem_total, cursor, sink);
                if tandem_total.dma_cycles > tandem_total.compute_cycles {
                    sink.span(
                        Track::Dae,
                        "dma excess",
                        "stall",
                        cursor + tandem_total.compute_cycles,
                        tandem_total.dma_cycles - tandem_total.compute_cycles,
                        &[],
                    );
                }
                self.trace_programs(graph, block, proc, dram, cursor, sink);
                for _ in 0..tiles {
                    ctrl.on_event(ControllerEvent::TandemDone);
                }
                sink.instant(
                    Track::Controller,
                    "Tandem_done",
                    "handshake",
                    cursor + block_cycles,
                    &[],
                );
            }
            BlockKind::Fused => match self.cfg.granularity {
                TileGranularity::Tile => {
                    // The pipelined schedule behind the block-latency
                    // formula: GEMM tile k occupies
                    // [cursor + k·s, +g], the Tandem Processor consumes
                    // tile k over [cursor + g + k·s, +t], with stride
                    // s = max(g, t); the gap on the slower side is the
                    // stall the attribution charges.
                    let g = gemm_tile_cycles;
                    let t_tile = tandem_cycles / tiles.max(1);
                    let s = g.max(t_tile);
                    let detail = tiles.min(DETAIL_TILES);
                    for k in 0..detail {
                        sink.span(
                            Track::Gemm,
                            "gemm tile",
                            "compute",
                            cursor + k * s,
                            g,
                            &[("tile", k)],
                        );
                        if k + 1 < tiles && t_tile > g {
                            sink.span(
                                Track::Gemm,
                                "wait obuf release",
                                "stall",
                                cursor + k * s + g,
                                t_tile - g,
                                &[],
                            );
                        }
                        sink.span(
                            Track::Tandem,
                            "tandem tile",
                            "compute",
                            cursor + g + k * s,
                            t_tile,
                            &[("tile", k)],
                        );
                        if k + 1 < tiles && g > t_tile {
                            sink.span(
                                Track::Tandem,
                                "wait gemm tile",
                                "stall",
                                cursor + g + k * s + t_tile,
                                g - t_tile,
                                &[],
                            );
                        }
                    }
                    if tiles > detail {
                        let n = tiles - detail;
                        sink.span(
                            Track::Gemm,
                            "gemm tiles (elided)",
                            "compute",
                            cursor + detail * s,
                            (tiles - 1 - detail) * s + g,
                            &[("tiles", n)],
                        );
                        sink.span(
                            Track::Tandem,
                            "tandem tiles (elided)",
                            "compute",
                            cursor + g + detail * s,
                            (tiles - 1 - detail) * s + t_tile,
                            &[("tiles", n)],
                        );
                    }
                    self.trace_gemm_passes(gemm_detail, cursor, sink);
                    self.trace_dae_stream(tandem_total, cursor + g, sink);
                    self.trace_programs(graph, block, proc, dram, cursor + g, sink);
                    for k in 0..tiles {
                        ctrl.on_event(ControllerEvent::GemmTileDone);
                        ctrl.on_event(ControllerEvent::ObufReleased);
                        ctrl.on_event(ControllerEvent::TandemDone);
                        if k < DETAIL_TILES || k + 1 == tiles {
                            let done = cursor + g + k * s + t_tile;
                            sink.instant(
                                Track::Controller,
                                "GEMM_tile_done",
                                "handshake",
                                cursor + k * s + g,
                                &[("tile", k)],
                            );
                            sink.instant(
                                Track::Controller,
                                "OBUF_done",
                                "handshake",
                                done,
                                &[("tile", k)],
                            );
                            sink.instant(
                                Track::Controller,
                                "Tandem_done",
                                "handshake",
                                done,
                                &[("tile", k)],
                            );
                        }
                    }
                }
                TileGranularity::Layer => {
                    // Serial handoff: GEMM layer, OBUF spill through DRAM,
                    // then the Tandem bundle.
                    let spill = block_cycles - gemm_total_cycles - tandem_cycles;
                    sink.span(
                        Track::Gemm,
                        "gemm layer",
                        "compute",
                        cursor,
                        gemm_total_cycles,
                        &[("tiles", tiles)],
                    );
                    self.trace_gemm_passes(gemm_detail, cursor, sink);
                    if spill > 0 {
                        sink.span(
                            Track::Dae,
                            "obuf spill + reload",
                            "dma",
                            cursor + gemm_total_cycles,
                            spill,
                            &[],
                        );
                    }
                    let tandem_start = cursor + gemm_total_cycles + spill;
                    sink.span(
                        Track::Tandem,
                        "tandem bundle (serial)",
                        "compute",
                        tandem_start,
                        tandem_cycles,
                        &[("ops", block.non_gemm.len() as u64)],
                    );
                    self.trace_dae_stream(tandem_total, tandem_start, sink);
                    self.trace_programs(graph, block, proc, dram, tandem_start, sink);
                    for _ in 0..tiles {
                        ctrl.on_event(ControllerEvent::GemmTileDone);
                        ctrl.on_event(ControllerEvent::ObufReleased);
                        ctrl.on_event(ControllerEvent::TandemDone);
                    }
                    sink.instant(
                        Track::Controller,
                        "GEMM_tile_done",
                        "handshake",
                        cursor + gemm_total_cycles,
                        &[("tiles", tiles)],
                    );
                    sink.instant(
                        Track::Controller,
                        "Tandem_done",
                        "handshake",
                        cursor + block_cycles,
                        &[],
                    );
                }
            },
        }
        debug_assert_eq!(
            ctrl.state(),
            ControllerState::BlockDone,
            "traced schedule must drive the controller FSM to completion"
        );
    }

    /// The block's Data Access Engine activity: DRAM traffic is modeled
    /// analytically per block (`block_tandem_dram_bytes`), so the DAE
    /// track shows it as one double-buffered stream span alongside the
    /// Tandem compute it overlaps.
    fn trace_dae_stream(&self, tandem_total: &RunReport, start: u64, sink: &mut dyn TraceSink) {
        if tandem_total.dma_cycles > 0 {
            sink.span(
                Track::Dae,
                "dae stream",
                "dma",
                start,
                tandem_total.dma_cycles,
                &[("words", tandem_total.counters.dram_words)],
            );
        }
    }

    /// Pass-level detail of one GEMM tile at `start`, when small enough
    /// to render (larger layers keep their tile-level span, whose `tiles`
    /// arg records the full extent).
    fn trace_gemm_passes(
        &self,
        gemm_detail: Option<(GemmWorkload, u64)>,
        start: u64,
        sink: &mut dyn TraceSink,
    ) {
        const MAX_PASSES: u64 = 64;
        let Some((w, m_tile)) = gemm_detail else {
            return;
        };
        let passes =
            w.k.div_ceil(self.cfg.gemm.rows as u64) * w.n.div_ceil(self.cfg.gemm.cols as u64);
        if passes <= MAX_PASSES {
            self.gemm.trace_tile(w, m_tile, start, sink);
        }
    }

    /// Embeds the instruction-level timeline of the block's compiled tile
    /// programs on the [`Track::Program`] lane starting at `start`: each
    /// program's first repetition plays out span by span (config runs,
    /// Code Repeater nests, permutes, DMA bursts, syncs); further
    /// repetitions coalesce into one "tile repeats" span.
    fn trace_programs(
        &self,
        graph: &Graph,
        block: &ExecutionBlock,
        proc: &mut TandemProcessor,
        dram: &mut Dram,
        start: u64,
        sink: &mut dyn TraceSink,
    ) {
        let mut at = start;
        for &id in &block.non_gemm {
            let node = graph.node(id);
            let compiled = self.lower(graph, node, self.signature(graph, node).as_ref());
            let Ok(c) = compiled.as_ref() else { continue };
            for (prog, reps) in &c.tiles {
                let one = {
                    let mut off = OffsetSink::new(sink, at, Track::Program);
                    proc.run_traced(prog, dram, &mut off)
                        .expect("compiled tile program must simulate")
                };
                at += one.compute_cycles;
                if *reps > 1 {
                    let rest = one.compute_cycles * (*reps - 1);
                    sink.span(
                        Track::Program,
                        "tile repeats",
                        "compute",
                        at,
                        rest,
                        &[("reps", *reps - 1)],
                    );
                    at += rest;
                }
            }
        }
    }
}

/// The largest divisor of `n` that is at most `cap` (≥ 1): the biggest
/// GEMM m-tile that divides the output rows exactly.
fn largest_divisor_le(n: u64, cap: u64) -> u64 {
    let cap = cap.min(n).max(1);
    (1..=cap).rev().find(|&d| n.is_multiple_of(d)).unwrap_or(1)
}

/// Runs a heterogeneous `(configuration, graph)` job matrix in parallel,
/// returning reports in job order. Jobs with equal configurations share
/// one NPU (and therefore its caches), so a sweep that varies only the
/// model — or repeats configurations — pays each distinct block shape
/// once.
pub fn run_matrix(jobs: &[(NpuConfig, &Graph)]) -> Vec<NpuReport> {
    let configs: Vec<NpuConfig> = jobs.iter().map(|(cfg, _)| cfg.clone()).collect();
    let npus = Npu::fleet(&configs);
    par_map(jobs.len(), 0, |i| npus[i].run(jobs[i].1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::zoo;

    #[test]
    fn vgg_runs_and_is_gemm_dominated() {
        let npu = Npu::new(NpuConfig::paper());
        let r = npu.run(&zoo::vgg16());
        assert!(r.total_cycles > 0);
        // VGG-16 is the classic GEMM-heavy model (paper Fig. 24).
        assert!(
            r.non_gemm_fraction() < 0.5,
            "non-GEMM fraction {}",
            r.non_gemm_fraction()
        );
        assert!(r.gemm_utilization() > 0.1, "{}", r.gemm_utilization());
    }

    #[test]
    fn tile_granularity_beats_layer_granularity() {
        let tile = Npu::new(NpuConfig::paper()).run(&zoo::resnet50());
        let mut cfg = NpuConfig::paper();
        cfg.granularity = TileGranularity::Layer;
        let layer = Npu::new(cfg).run(&zoo::resnet50());
        assert!(
            layer.total_cycles > tile.total_cycles,
            "layer {} vs tile {}",
            layer.total_cycles,
            tile.total_cycles
        );
        assert!(layer.gemm_utilization() < tile.gemm_utilization());
    }

    #[test]
    fn despecialization_knobs_slow_the_machine_down() {
        let base = Npu::new(NpuConfig::paper()).run(&zoo::mobilenetv2());
        for knobs in [
            Despecialization {
                regfile_ldst: true,
                ..Default::default()
            },
            Despecialization {
                branch_loops: true,
                ..Default::default()
            },
            Despecialization {
                sw_addr_calc: true,
                ..Default::default()
            },
        ] {
            let mut cfg = NpuConfig::paper();
            cfg.knobs = knobs;
            let slow = Npu::new(cfg).run(&zoo::mobilenetv2());
            assert!(
                slow.total_cycles > base.total_cycles,
                "{knobs:?} did not slow down"
            );
        }
    }

    #[test]
    fn verify_summary_is_clean_and_deterministic() {
        let mut cfg = NpuConfig::paper();
        cfg.verify = true;
        let cached = Npu::new(cfg.clone()).run(&zoo::mobilenetv2());
        assert!(cached.verify.programs > 0, "no programs verified");
        assert!(
            cached.verify.is_clean(),
            "compiler emitted unverifiable programs:\n{}",
            cached.verify.diagnostics.join("\n")
        );
        // The summary is part of report equality and must not depend on
        // cache state.
        let uncached = Npu::uncached(cfg).run(&zoo::mobilenetv2());
        assert_eq!(cached, uncached);
    }

    #[test]
    fn verify_flag_off_leaves_an_empty_summary() {
        let mut cfg = NpuConfig::paper();
        cfg.verify = false;
        let r = Npu::new(cfg).run(&zoo::vgg16());
        assert_eq!(r.verify.programs, 0);
        assert!(r.verify.is_clean());
    }

    #[test]
    fn schedule_overrides_are_cache_sound_and_deterministic() {
        use std::collections::BTreeMap;
        use tandem_model::{GraphBuilder, Padding};
        let g = {
            let mut b = GraphBuilder::new("tune-exec", 2024);
            let x = b.input("x", [1, 32, 28, 28]);
            let c = b.conv(x, 32, 3, 1, Padding::Same);
            let r = b.relu(c);
            let m = b.max_pool(r, 2, 2);
            b.output(m);
            b.finish()
        };
        let base = Npu::new(NpuConfig::paper());
        let sites = base.tune_sites(&g);
        assert!(
            sites
                .iter()
                .any(|s| matches!(s.baseline, TileChoice::GemmTile { .. })),
            "conv must contribute a GEMM-side site"
        );
        // Pin every site to a non-baseline candidate.
        let choices: BTreeMap<u64, TileChoice> = sites
            .iter()
            .filter_map(|s| {
                s.candidates
                    .iter()
                    .copied()
                    .find(|c| *c != s.baseline)
                    .map(|c| (s.key, c))
            })
            .collect();
        assert!(!choices.is_empty());
        let mut cfg = NpuConfig::paper();
        cfg.schedule = Schedule::new(choices);
        let tuned = base.sibling(cfg.clone());
        // The tuned report must match a fresh uncached run under the same
        // schedule (the tuner's oracle contract) …
        let r = tuned.run(&g);
        assert_eq!(r, Npu::uncached(cfg).run(&g));
        // … differ from the baseline, and leave the shared caches clean
        // for the baseline runner.
        let rb = base.run(&g);
        assert_ne!(r.total_cycles, rb.total_cycles);
        assert_eq!(rb, Npu::uncached(NpuConfig::paper()).run(&g));
    }

    #[test]
    fn verify_gate_rejects_a_bad_lowering_and_memoizes_the_verdict() {
        use std::cell::Cell;
        use tandem_compiler::schedule_graph_with;
        // No schedule can produce an illegal candidate (the tiler falls
        // back to legal tiles), so the known-bad input is a lowering that
        // tiles every softmax for a machine with 8x the Interim BUF rows:
        // those tiles address rows the real machine does not have.
        let g = zoo::bert_base(128);
        let mut cfg = NpuConfig::paper();
        cfg.verify_mode = VerifyMode::Widened;
        let npu = Npu::new(cfg);
        let tandem = &npu.config().tandem;
        let oversized = OpLowering::new(tandem.lanes, tandem.interim_rows * 8);
        let calls = Cell::new(0u64);
        let bad = |node: &Node| {
            calls.set(calls.get() + 1);
            match node.kind {
                tandem_model::OpKind::Softmax => oversized.lower_node(&g, node),
                _ => npu.lowering.lower_node(&g, node),
            }
        };
        // The whole-graph path rejects one block …
        let verifier = Verifier::new(
            VerifyConfig::for_lowering(tandem.lanes, tandem.interim_rows)
                .with_mode(VerifyMode::Widened),
        );
        let bad_block = match schedule_graph_with(&g, Some(&verifier), &bad) {
            Err(tandem_compiler::CompileError::Verification { block, .. }) => block as u64,
            other => panic!("expected a verification error, got {other:?}"),
        };
        // … as does the gate, after answering every block up to it.
        let before = npu.stats();
        assert!(!npu.verify_schedule_with(&g, &bad));
        let first = npu.stats().delta(&before);
        assert_eq!(first.gate_hits + first.gate_misses, bad_block + 1);
        assert!(
            bad_block > 1,
            "the clean blocks before it must be gated too"
        );
        assert!(first.gate_hits > 0 && first.gate_misses > 1);
        // The second call answers from the memo: no lowering, no verify.
        calls.set(0);
        let mid = npu.stats();
        assert!(!npu.verify_schedule_with(&g, &bad));
        let second = npu.stats().delta(&mid);
        assert_eq!(second.gate_misses, 0);
        assert_eq!(second.gate_hits, bad_block + 1);
        assert_eq!(calls.get(), 0, "a memoized verdict must not re-lower");
        // The rejection does not depend on the block's sync group.
        let block = &Partitioner::new().partition(&g)[bad_block as usize];
        for group in [(bad_block % 32) as u8, 0] {
            let sb = schedule_block(&g, block, group, &bad).unwrap();
            assert!(!verifier.verify(&sb.program).is_clean(), "group {group}");
        }
        // The real lowering passes on a runner of its own.
        assert!(Npu::new(npu.config().clone()).verify_schedule(&g));
    }

    #[test]
    fn memoized_lowerings_equal_fresh_ones() {
        let g = zoo::resnet50();
        let npu = Npu::new(NpuConfig::paper());
        for node in g.nodes() {
            let cached = npu.lower(&g, node, npu.signature(&g, node).as_ref());
            let fresh = npu.lowering.lower_node(&g, node);
            assert_eq!(*cached, fresh, "node {}", node.name);
        }
        let s = npu.stats();
        assert_eq!(s.compile_hits + s.compile_misses, g.nodes().len() as u64);
        assert!(
            s.compile_hits > s.compile_misses,
            "ResNet repeats its blocks"
        );
    }

    #[test]
    fn memoized_gemm_reports_equal_direct_evaluation() {
        let npu = Npu::new(NpuConfig::paper());
        let unit = GemmUnit::new(GemmConfig::paper());
        let mut keys = std::collections::HashSet::new();
        for w in [
            GemmWorkload::new(3136, 576, 64),
            GemmWorkload::new(196, 4608, 512),
            GemmWorkload::from_conv(28, 28, 128, 128, 3),
        ] {
            for m_tile in [w.m, 64, 16] {
                keys.insert((w, m_tile));
                for _ in 0..2 {
                    assert_eq!(npu.gemm_tile_report(w, m_tile), unit.tile_report(w, m_tile));
                }
            }
            assert_eq!(npu.gemm_layer_report(w), unit.layer_report(w));
        }
        let s = npu.stats();
        assert_eq!(s.gemm_misses, keys.len() as u64);
        assert_eq!(s.gemm_hits, 7 * 3 - s.gemm_misses);
    }

    #[test]
    fn energy_and_power_are_sane() {
        let r = Npu::new(NpuConfig::paper()).run(&zoo::resnet50());
        assert!(r.total_energy_nj() > 0.0);
        let w = r.average_power_w();
        // An edge NPU burns single-digit watts, not milliwatts or kW.
        assert!((0.05..50.0).contains(&w), "power {w} W");
    }
}
