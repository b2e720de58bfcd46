//! The end-to-end executor: graph → execution blocks → per-tile GEMM /
//! Tandem co-simulation with double-buffered overlap (paper Figure 10).

use crate::controller::{ControllerEvent, ControllerState, ExecutionController};
use crate::knobs::Despecialization;
use crate::par::par_map;
use crate::plan::{GraphPlan, PlannedBlock};
use crate::report::{ExecStats, NpuReport};
use gemm_sim::{GemmConfig, GemmReport, GemmUnit, GemmWorkload};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tandem_compiler::{
    enumerate_sites, prefetch_key, schedule_block, stable_hash, BlockKind, CompileError,
    CompiledOp, ExecutionBlock, NodeSignature, OpLowering, Schedule, TileChoice, TuneSite,
};
use tandem_core::{Dram, EnergyModel, Mode, RunReport, TandemConfig, TandemProcessor};
use tandem_model::hash::Memo;
use tandem_model::{Graph, Node, OpKind};
use tandem_trace::{scale_buckets, CycleAttribution, NullSink, OffsetSink, TraceSink, Track};
use tandem_verify::{Verifier, VerifyConfig};

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
    /// Ignored: a run verifies nothing, and [`Npu::verify_schedule`]
    /// checks a graph's assembled block programs. Kept until hostbench
    /// stops setting it.
    #[deprecated(note = "ignored; call Npu::verify_schedule")]
    pub verify: bool,
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
        #[allow(deprecated)]
        NpuConfig {
            tandem: TandemConfig::paper(),
            gemm: GemmConfig::paper(),
            knobs: Despecialization::none(),
            granularity: TileGranularity::Tile,
            static_power_w: 2.0,
            verify: false,
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
    /// differ only in schedule, knobs or granularity never answer each
    /// other's runs. The unit geometries enter through their headline
    /// dimensions only: siblings share caches only when both units are
    /// configured identically.
    fn digest(&self) -> u64 {
        stable_hash(&(
            self.schedule.digest(),
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

/// Memoization key of a whole-graph report: the graph's structural
/// digest, hardened against (already astronomically unlikely) hash
/// collisions by the graph's node and tensor counts, plus the
/// [`NpuConfig::digest`] of the runner — siblings with different
/// schedules share the cache map but never a report.
type GraphKey = (u64, usize, usize, u64);

/// Memoization key of a [`GraphPlan`]: the graph part of a [`GraphKey`]
/// plus the machine shape the plan's signatures are built for.
type PlanKey = (u64, usize, usize, (usize, usize));

/// Memoization key of [`Npu::estimate_demand_of`]: the graph builder's
/// code address, its argument, and the runner's [`NpuConfig::digest`].
type DemandKey = (usize, usize, u64);

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

/// Memoization key of one execution block's [`Npu::verify_schedule`]
/// verdict: whether the block has a GEMM region and the signature of
/// each non-GEMM node in block order. A signature enters as its site
/// key plus the schedule's choice there — the same identity a
/// [`Schedule`] maps choices by, without a copy of every shape per
/// entry. That is everything the assembled program depends on
/// except its sync group id: every sync in a block carries the same
/// group, and the verifier's sync and deadlock passes only compare
/// groups for equality, so the verdict cannot depend on which group the
/// block drew.
type GateKey = (bool, Vec<(u64, Option<TileChoice>)>);

/// The six memos (compile, gate, sim, graph, plan, demand) shared by
/// every clone of an [`Npu`], by its same-silicon siblings and by all
/// [`Npu::run_many`] workers, the count of blocks runs composed from
/// an earlier block of their class, and the count of nodes runs
/// answered from their own table of node reports.
///
/// `plan` holds what no schedule can change about each graph — its
/// blocks, their DRAM bytes and GEMM workloads, and its node signatures
/// and site keys — so a sibling under a new schedule re-derives none of
/// it. `demand` answers [`Npu::estimate_demand_of`] by recipe, so a
/// repeat lookup builds no graph. Neither memo's hits and misses are
/// part of [`ExecStats`].
///
/// Caching is sound because every cached value is a pure function of its
/// key under one Tandem and one GEMM unit configuration: lowering depends
/// only on the [`NodeSignature`] (compilation errors are memoized too),
/// and a node's simulation runs its programs on a data-free
/// performance-mode processor whose state each program's configuration
/// section overwrites, so its [`RunReport`] depends on the programs
/// alone. `sim` holds that report before the knobs: they are arithmetic
/// applied after every lookup, so siblings that differ in knobs or
/// granularity share every entry. The GEMM side has no memo:
/// its closed-form cycle model ([`GemmUnit::tile_report`]) is a few
/// dozen integer operations, no dearer than a probe, so every run
/// evaluates it directly.
///
/// The `demand` key names a graph by the pure `fn(usize) -> Graph` that
/// builds it and that function's argument. Equal addresses are the same
/// code, so they build the same graph; a function that shows up under
/// two addresses only misses. The key carries the config digest, so
/// siblings with different settings never share an entry.
#[derive(Debug, Default)]
struct NpuCaches {
    compile: Memo<NodeSignature, Arc<Result<CompiledOp, CompileError>>>,
    gate: Memo<GateKey, bool>,
    sim: Memo<NodeSignature, RunReport>,
    graph: Memo<GraphKey, NpuReport>,
    plan: Memo<PlanKey, Arc<GraphPlan>>,
    demand: Memo<DemandKey, ServiceDemand>,
    reused_blocks: AtomicU64,
    /// Node reports a run found in its own [`NodeReports`] table: `sim`
    /// probes saved, counted as `sim` hits.
    table_hits: AtomicU64,
}

/// One run's node reports before the knobs, by signature id (see
/// [`GraphPlan`]): a node whose id the run has already resolved reads
/// its report here and skips the shared `sim` memo's lock and probe.
/// Empty on an [`Npu::uncached`] runner, whose plan has no ids.
#[derive(Debug)]
struct NodeReports {
    by_id: Vec<Option<RunReport>>,
    /// Lookups answered from `by_id`.
    hits: u64,
}

/// What one execution block costs before the blocks around it are
/// known: everything but the cross-block prefetch hiding. A pure
/// function of the block's class under one runner's settings.
#[derive(Debug, Clone)]
struct BlockParts {
    /// The Tandem side: the node reports, the cast stream and the DMA,
    /// summed.
    tandem: RunReport,
    /// The block's range of the run's list of cycles per operator kind,
    /// the GEMM node's included. One list per run, rather than a `Vec`
    /// per block, keeps a block free of allocation: on a cold round of
    /// the five CNNs (247 blocks) a `Vec` per block cost about 5% of the
    /// run on a 2-vCPU Linux host.
    kinds: Range<usize>,
    /// The GEMM side, if the block has a GEMM node.
    gemm: Option<GemmParts>,
}

/// The GEMM side of [`BlockParts`].
#[derive(Debug, Clone, Copy)]
struct GemmParts {
    workload: GemmWorkload,
    /// Output rows per pipelined tile, and the number of tiles.
    m_tile: u64,
    tiles: u64,
    /// The closed-form reports of one tile and of the whole layer.
    tile: GemmReport,
    whole: GemmReport,
    /// Weight-load cycles a cross-block prefetch may hide; zero unless
    /// the schedule turns prefetch on for this node.
    hideable: u64,
}

/// The latencies of one composed block that its trace draws.
#[derive(Debug, Clone, Copy)]
struct BlockTiming {
    block_cycles: u64,
    tiles: u64,
    gemm_tile_cycles: u64,
    gemm_total_cycles: u64,
    tandem_cycles: u64,
}

/// Adds `cycles` to `kind`'s entry in the block's part of `kinds`, the
/// entries from `start` on, making the entry if there is none.
fn add_cycles(kinds: &mut Vec<(OpKind, u64)>, start: usize, kind: OpKind, cycles: u64) {
    match kinds[start..].iter_mut().find(|(k, _)| *k == kind) {
        Some((_, total)) => *total += cycles,
        None => kinds.push((kind, cycles)),
    }
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
    /// The widened verifier for this machine shape, run by
    /// [`Npu::verify_schedule`].
    verifier: Verifier,
    caches: Arc<NpuCaches>,
    cache_enabled: bool,
}

impl Npu {
    /// Creates an NPU with the given configuration.
    pub fn new(cfg: NpuConfig) -> Self {
        Self::with_caches(cfg, Arc::default(), true)
    }

    /// A runner with different executor settings — schedule, knobs,
    /// granularity — sharing this NPU's caches when it runs on the
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
        let verifier = Verifier::new(VerifyConfig::for_lowering(
            cfg.tandem.lanes,
            cfg.tandem.interim_rows,
        ));
        Npu {
            cfg_digest: cfg.digest(),
            cfg,
            gemm,
            lowering,
            verifier,
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
            compile_hits: c.compile.hits(),
            compile_misses: c.compile.misses(),
            sim_hits: c.sim.hits() + c.table_hits.load(Ordering::Relaxed),
            sim_misses: c.sim.misses(),
            graph_hits: c.graph.hits(),
            graph_misses: c.graph.misses(),
            gate_hits: c.gate.hits(),
            gate_misses: c.gate.misses(),
            reused_blocks: c.reused_blocks.load(Ordering::Relaxed),
            ..ExecStats::default()
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

    /// [`Npu::estimate_demand`] of the graph `build(arg)`, memoized by
    /// that recipe: a repeat call from any runner sharing these caches
    /// under the same settings builds no graph. `build` must be pure — a
    /// function of `arg` alone — because the memo keys the graph by it.
    /// An [`Npu::uncached`] runner builds and runs the graph every time.
    pub fn estimate_demand_of(&self, build: fn(usize) -> Graph, arg: usize) -> ServiceDemand {
        if !self.cache_enabled {
            return self.estimate_demand(&build(arg));
        }
        let key: DemandKey = (build as usize, arg, self.cfg_digest);
        self.caches
            .demand
            .get_or_insert_with(&key, || self.estimate_demand(&build(arg)))
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
    ///
    /// Blocks of one class (see [`GraphPlan`]) have equal [`BlockParts`]:
    /// the first member of a repeated class computes them, and every
    /// member composes them in block order. A traced run computes every
    /// block's own parts, since its trace re-runs the programs anyway.
    /// Nodes of one signature id share one report in [`NodeReports`]
    /// before the knobs, so only the first node of each id probes the
    /// `sim` memo.
    fn run_core_traced(&self, graph: &Graph, sink: &mut dyn TraceSink) -> NpuReport {
        let plan = self.plan(graph);
        let mut report = NpuReport {
            gemm_mac_slots: (self.cfg.gemm.rows * self.cfg.gemm.cols) as u64,
            tandem_lanes: self.cfg.tandem.lanes as u64,
            freq_ghz: self.cfg.tandem.freq_ghz,
            ..Default::default()
        };
        let traced = sink.enabled();
        // One data-free processor simulates every node of the run (each
        // program's configuration section overwrites its state).
        let mut proc = TandemProcessor::with_mode(self.cfg.tandem.clone(), Mode::Performance);
        // Trailing idle window of the previous block's GEMM DRAM channel:
        // the budget a schedule-enabled weight prefetch may hide in.
        let mut exposed = 0u64;
        let mut class_parts: Vec<Option<BlockParts>> = vec![None; plan.classes];
        let mut reports = NodeReports {
            by_id: vec![None; plan.distinct.len()],
            hits: 0,
        };
        // Room for every block's kinds (one per node, plus the cast), so
        // the list is allocated once.
        let mut kinds = Vec::with_capacity(plan.blocks.iter().map(|b| b.block.len() + 1).sum());
        let mut reused = 0u64;
        for planned in &plan.blocks {
            let own;
            let parts = match planned.class.filter(|_| !traced) {
                Some(class) => {
                    let slot = &mut class_parts[class];
                    reused += u64::from(slot.is_some());
                    &*slot.get_or_insert_with(|| {
                        self.block_parts(graph, &plan, planned, &mut reports, &mut proc, &mut kinds)
                    })
                }
                None => {
                    own = self.block_parts(
                        graph,
                        &plan,
                        planned,
                        &mut reports,
                        &mut proc,
                        &mut kinds,
                    );
                    &own
                }
            };
            let cursor = report.total_cycles;
            let block_kinds = &kinds[parts.kinds.clone()];
            let timing = self.compose_block(
                graph,
                planned,
                parts,
                block_kinds,
                &mut report,
                &mut exposed,
            );
            if traced {
                let block = &planned.block;
                self.trace_block(graph, &plan, block, &mut proc, cursor, &timing, parts, sink);
                sink.counter(
                    "cycle attribution",
                    report.total_cycles,
                    &report.attribution.rows(),
                );
            }
        }
        self.caches
            .reused_blocks
            .fetch_add(reused, Ordering::Relaxed);
        self.caches
            .table_hits
            .fetch_add(reports.hits, Ordering::Relaxed);
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

    /// The NPU's one static-verification entry point: `true` when every
    /// execution block of `graph`, assembled under this NPU's schedule,
    /// verifies with no error-severity finding. [`Npu::run`] verifies
    /// nothing; `tandem-tune` gates each search's winner here. The
    /// verdict equals `schedule_graph_opts(…, CompileOptions { verify:
    /// true, .. }).is_ok()` under the same schedule; the differential
    /// gate tests assert this.
    ///
    /// Each block's verdict is memoized in the caches this NPU shares
    /// with its siblings, keyed on whether the block has a GEMM region
    /// and its non-GEMM node signatures (not its sync group), and a miss
    /// assembles the block through the compile cache. Repeated blocks
    /// therefore verify once, and a schedule that differs from an
    /// already-verified one at a few sites verifies only the blocks those
    /// sites touch. Blocks with equal DRAM traffic, signatures and GEMM
    /// node (one class of the graph's plan) have one key, so a call
    /// probes the memo once per class. An [`Npu::uncached`] runner
    /// recompiles and re-verifies every block.
    pub fn verify_schedule(&self, graph: &Graph) -> bool {
        let plan = self.plan(graph);
        self.verify_schedule_with(graph, &plan, |node| {
            self.lower(
                graph,
                node,
                plan.signature(graph, &self.lowering, node.id).as_ref(),
            )
        })
    }

    /// [`Npu::verify_schedule`] over `graph`'s `plan`, with the node
    /// lowering supplied by the caller. The memo key still comes from
    /// this NPU's schedule, so a foreign `lower` must only ever run on a
    /// runner of its own.
    fn verify_schedule_with<R>(
        &self,
        graph: &Graph,
        plan: &GraphPlan,
        mut lower: impl FnMut(&Node) -> R,
    ) -> bool
    where
        R: Borrow<Result<CompiledOp, CompileError>>,
    {
        let site_keys = self
            .cache_enabled
            .then(|| plan.site_keys(graph, &self.lowering));
        // Blocks of one class have one key: each class probes once.
        let mut class_verdicts = vec![None; plan.classes];
        plan.blocks.iter().enumerate().all(|(i, planned)| {
            let block = &planned.block;
            let mut verdict = || {
                schedule_block(graph, block, (i % 32) as u8, &mut lower)
                    .is_ok_and(|sb| self.verifier.is_clean(&sb.program))
            };
            let Some(site_keys) = site_keys else {
                return verdict();
            };
            if let Some(known) = planned.class.and_then(|c| class_verdicts[c]) {
                return known;
            }
            let sites = block.non_gemm.iter().map(|&id| {
                let site = site_keys[id.index()];
                (site, self.cfg.schedule.get(site))
            });
            let key: GateKey = (block.gemm.is_some(), sites.collect());
            let clean = self.caches.gate.get_or_insert_with(&key, verdict);
            if let Some(c) = planned.class {
                class_verdicts[c] = Some(clean);
            }
            clean
        })
    }

    /// `graph`'s [`GraphPlan`]: from the shared plan memo, or built
    /// afresh (without signatures) on an [`Npu::uncached`] runner.
    fn plan(&self, graph: &Graph) -> Arc<GraphPlan> {
        if !self.cache_enabled {
            return Arc::new(GraphPlan::build(graph, &self.lowering, false));
        }
        let key: PlanKey = (
            graph.content_hash(),
            graph.nodes().len(),
            graph.tensors().len(),
            (self.lowering.lanes(), self.lowering.interim_rows()),
        );
        self.caches.plan.get_or_insert_with(&key, || {
            Arc::new(GraphPlan::build(graph, &self.lowering, true))
        })
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

    /// Simulates one non-GEMM node's compiled programs in performance
    /// mode and applies the knobs to the report. The report before the
    /// knobs comes from the run's `reports` when an earlier node of the
    /// run has the same signature id; else the simulation is memoized on
    /// the node's signature when the plan has one (the knobs apply after
    /// the lookup, so siblings that differ only in knobs share every
    /// entry), and a miss lowers through the compile cache under the
    /// same signature, so the compile cache is consulted only on `sim`
    /// misses. A simulation runs on the run's data-free `proc`.
    fn tandem_node_report(
        &self,
        graph: &Graph,
        plan: &GraphPlan,
        node: &Node,
        reports: &mut NodeReports,
        proc: &mut TandemProcessor,
    ) -> RunReport {
        let mut report = match plan.ids.get(node.id.index()).copied().flatten() {
            Some(id) => match &mut reports.by_id[id as usize] {
                Some(known) => {
                    reports.hits += 1;
                    *known
                }
                slot @ None => {
                    let sig = plan
                        .signature(graph, &self.lowering, node.id)
                        .expect("a plan with ids has every node's signature");
                    *slot.insert(self.caches.sim.get_or_insert_with(&sig, || {
                        simulate(proc, &self.lower(graph, node, Some(&sig)))
                    }))
                }
            },
            None => simulate(proc, &self.lower(graph, node, None)),
        };
        self.cfg.knobs.apply(node.kind, &mut report);
        report
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

    /// Enumerates every tuning site of `graph` on this NPU: the
    /// compiler's non-GEMM sites ([`enumerate_sites`]) merged with the
    /// GEMM-side pipelining-granularity sites only this crate can build
    /// — their candidate m-tiles depend on the systolic geometry through
    /// [`GemmUnit::baseline_tile_rows`]. Site keys and candidate lists are
    /// schedule-independent, so the result is identical whatever
    /// schedule this NPU currently runs under. The keys are read from the
    /// graph's plan on this NPU's caches: each is hashed once per graph.
    pub fn tune_sites(&self, graph: &Graph) -> Vec<TuneSite> {
        use std::collections::BTreeSet;
        let plan = self.plan(graph);
        let site_keys = plan.site_keys(graph, &self.lowering);
        let mut sites = enumerate_sites(&self.lowering, graph, |n| site_keys[n.id.index()]);
        let mut index: HashMap<u64, usize> =
            sites.iter().enumerate().map(|(i, s)| (s.key, i)).collect();
        for node in graph.nodes() {
            if node.kind.class() != tandem_model::OpClass::Gemm {
                continue;
            }
            let key = site_keys[node.id.index()];
            if let Some(&i) = index.get(&key) {
                sites[i].instances += 1;
                continue;
            }
            let w = GemmWorkload::of_node(graph, node);
            // The hand-rolled executor always takes the largest tile the
            // accumulator holds; the candidates walk down from it and add
            // the largest *exact divisor* of M (no ragged last tile).
            let cap = self.gemm.baseline_tile_rows(w);
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
                name: node.name.to_string(),
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
            let pkey = prefetch_key(site_keys[node.id.index()]);
            if let Some(&i) = index.get(&pkey) {
                sites[i].instances += 1;
                continue;
            }
            let w = GemmWorkload::of_node(graph, node);
            let cap = self.gemm.baseline_tile_rows(w);
            if self.gemm.weights_amortized(w, cap) {
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

    /// The parts of `planned`'s cost that no other block changes: the
    /// Tandem side (node reports, through the run's `reports`, cast
    /// stream, DMA), the per-kind cycles, appended to `kinds`, and the
    /// GEMM side's tiling and closed-form reports.
    fn block_parts(
        &self,
        graph: &Graph,
        plan: &GraphPlan,
        planned: &PlannedBlock,
        reports: &mut NodeReports,
        proc: &mut TandemProcessor,
        kinds: &mut Vec<(OpKind, u64)>,
    ) -> BlockParts {
        let block = &planned.block;
        let start = kinds.len();
        // --- Tandem side: compile + simulate each non-GEMM node ---
        let mut tandem = RunReport::default();
        for &id in &block.non_gemm {
            let node = graph.node(id);
            let r = self.tandem_node_report(graph, plan, node, reports, proc);
            add_cycles(kinds, start, node.kind, r.compute_cycles);
            tandem.merge(&r);
        }
        // Datatype cast stream back to the GEMM unit's INT8 domain for the
        // block's output activations (paper §3.4: "a datatype casting
        // instruction is required when activations move from non-GEMM to
        // GEMM unit").
        if let Some(&last) = block.non_gemm.last() {
            let out_elems = graph.tensor(graph.node(last).outputs[0]).shape.elements() as u64;
            let cast = self.cast_stream_report(out_elems);
            add_cycles(kinds, start, OpKind::Cast, cast.compute_cycles);
            tandem.merge(&cast);
        }
        let tandem_dram_bytes = planned.tandem_dram_bytes;
        let dma_cycles =
            (tandem_dram_bytes as f64 / (self.cfg.tandem.dram_words_per_cycle * 4.0)).ceil() as u64;
        tandem.dma_cycles += dma_cycles;
        tandem.counters.dram_words += tandem_dram_bytes / 4;

        // --- GEMM side ---
        let gemm = match (block.gemm, planned.gemm) {
            (Some(id), Some(workload)) => {
                let cap = self.gemm.baseline_tile_rows(workload);
                // One site key per GEMM node serves both of its schedule
                // decisions; none is needed under the empty schedule.
                let site = (!self.cfg.schedule.is_empty())
                    .then(|| plan.site_keys(graph, &self.lowering)[id.index()]);
                let pinned = |key: u64| self.cfg.schedule.get(key);
                let tile_rows = match site.and_then(pinned) {
                    Some(TileChoice::GemmTile { m_rows }) => (m_rows as u64).clamp(1, cap),
                    _ => cap,
                };
                let tiles = workload.m.div_ceil(tile_rows.max(1)).max(1);
                let m_tile = tile_rows.min(workload.m);
                let whole = self.gemm.layer_report(workload);
                add_cycles(kinds, start, graph.node(id).kind, whole.overlapped_cycles());
                // Cross-block weight prefetch (schedule-enabled): up to
                // the double-buffered scratchpad half of this matrix may
                // stream during the previous block's idle-channel window,
                // shrinking the first tile's weight load.
                let prefetch = site.and_then(|s| pinned(prefetch_key(s)));
                let hideable = if prefetch == Some(TileChoice::Prefetch { on: true }) {
                    let bytes = self.gemm.prefetchable_bytes(workload, m_tile);
                    let per_cycle = self.gemm.config().dram_bytes_per_cycle;
                    (bytes as f64 / per_cycle).ceil() as u64
                } else {
                    0
                };
                Some(GemmParts {
                    workload,
                    m_tile,
                    tiles,
                    tile: self.gemm.tile_report(workload, m_tile),
                    whole,
                    hideable,
                })
            }
            _ => None,
        };
        BlockParts {
            tandem,
            kinds: start..kinds.len(),
            gemm,
        }
    }

    /// Adds one block to `report`, given its `parts` and their per-kind
    /// cycles `kinds`: hides what weight prefetch it can in the previous
    /// block's idle-channel window `exposed`, composes the block
    /// latency, attributes every cycle of it, and leaves in `exposed`
    /// this block's idle window.
    fn compose_block(
        &self,
        graph: &Graph,
        planned: &PlannedBlock,
        parts: &BlockParts,
        kinds: &[(OpKind, u64)],
        report: &mut NpuReport,
        exposed: &mut u64,
    ) -> BlockTiming {
        let block = &planned.block;
        let tandem_total = &parts.tandem;
        for &(kind, cycles) in kinds {
            *report.per_kind_cycles.entry(kind).or_default() += cycles;
        }
        report.tandem_dram_bytes += planned.tandem_dram_bytes;
        // The GEMM side: its compute cycles, its latency after prefetch
        // hiding, one tile's latency, the tile count, the first-tile
        // fill after hiding, and the cycles its DRAM channel is busy
        // (which bound the idle window the *next* block's prefetch may
        // hide in).
        let (gemm_compute_cycles, gemm_total_cycles, gemm_tile_cycles, tiles, fill, dram_busy) =
            match &parts.gemm {
                Some(g) => {
                    report.gemm_macs += g.whole.macs;
                    report.gemm_dram_bytes += g.whole.dram_bytes;
                    report.gemm_energy_nj += g.whole.energy_nj;
                    report.busy.gemm_cycles += g.whole.compute_cycles;
                    // The total traffic is unchanged by a prefetch — only
                    // its placement.
                    let hidden = g.hideable.min(*exposed);
                    let fill = g
                        .tile
                        .compute_cycles
                        .max(g.tile.dram_cycles.saturating_sub(hidden));
                    let dram_busy = if block.non_gemm.is_empty() {
                        g.whole.dram_cycles.saturating_sub(hidden)
                    } else {
                        (g.tiles * g.tile.dram_cycles).saturating_sub(hidden)
                    };
                    let whole_hidden = g
                        .whole
                        .compute_cycles
                        .max(g.whole.dram_cycles.saturating_sub(hidden));
                    let tile = g.tile.overlapped_cycles();
                    (
                        g.whole.compute_cycles,
                        whole_hidden,
                        tile,
                        g.tiles,
                        fill,
                        dram_busy,
                    )
                }
                None => (0, 0, 0, 1, 0, 0),
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
                    attr.drain = fill;
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
                    fill + (tiles - 1) * gemm_tile_cycles.max(t_tile) + t_tile
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
        *exposed = block_cycles.saturating_sub(dram_busy);
        BlockTiming {
            block_cycles,
            tiles,
            gemm_tile_cycles,
            gemm_total_cycles,
            tandem_cycles,
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
        plan: &GraphPlan,
        block: &ExecutionBlock,
        proc: &mut TandemProcessor,
        cursor: u64,
        timing: &BlockTiming,
        parts: &BlockParts,
        sink: &mut dyn TraceSink,
    ) {
        let BlockTiming {
            block_cycles,
            tiles,
            gemm_tile_cycles,
            gemm_total_cycles,
            tandem_cycles,
        } = *timing;
        let tandem_total = &parts.tandem;
        let gemm_detail = parts.gemm.map(|g| (g.workload, g.m_tile));
        // Per-tile spans beyond this count coalesce into one "(elided)"
        // span (its `tiles` arg records how many) so huge layers stay
        // loadable in the viewer.
        const DETAIL_TILES: u64 = 32;
        let kind = block.kind();
        let lowered: Vec<_> = block
            .non_gemm
            .iter()
            .map(|&id| {
                let node = graph.node(id);
                self.lower(
                    graph,
                    node,
                    plan.signature(graph, &self.lowering, id).as_ref(),
                )
            })
            .collect();
        let label = match block.gemm.or(block.non_gemm.first().copied()) {
            Some(id) => graph.node(id).name.to_string(),
            None => "empty block".to_string(),
        };
        sink.span(
            Track::Blocks,
            &label,
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
                self.trace_programs(&lowered, proc, cursor, sink);
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
                    self.trace_programs(&lowered, proc, cursor + g, sink);
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
                    self.trace_programs(&lowered, proc, tandem_start, sink);
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
        if self.gemm.pass_geometry(w, m_tile).passes() <= MAX_PASSES {
            self.gemm.trace_tile(w, m_tile, start, sink);
        }
    }

    /// Embeds the instruction-level timeline of the block's compiled tile
    /// programs (`lowered`, one lowering per non-GEMM node) on the
    /// [`Track::Program`] lane starting at `start`: each node's
    /// program's first repetition plays out span by span (config runs,
    /// Code Repeater nests, permutes, DMA bursts, syncs); further
    /// repetitions coalesce into one "tile repeats" span.
    fn trace_programs(
        &self,
        lowered: &[Arc<Result<CompiledOp, CompileError>>],
        proc: &mut TandemProcessor,
        start: u64,
        sink: &mut dyn TraceSink,
    ) {
        let mut at = start;
        for compiled in lowered {
            let Ok(CompiledOp {
                tiles: Some((prog, reps)),
                ..
            }) = compiled.as_ref()
            else {
                continue;
            };
            let one = {
                let mut off = OffsetSink::new(sink, at, Track::Program);
                proc.run_traced(prog, &mut Dram::new(0), &mut off)
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

/// The performance-mode report of a node's lowering `compiled`: its tile
/// program run once on the data-free `proc` (a pure function of the
/// program, since its configuration section overwrites whatever state an
/// earlier program left), scaled by its repetitions.
///
/// Metadata lowers to no program and costs nothing. A lowering error —
/// a node this machine cannot fit — also reads 0 cycles here, and the
/// run reports nothing: the guards against such a machine are the
/// compile gate of `tandem run` / `tandem profile` and
/// [`Npu::verify_schedule`], which refuse it before any run.
fn simulate(proc: &mut TandemProcessor, compiled: &Result<CompiledOp, CompileError>) -> RunReport {
    match compiled {
        Ok(CompiledOp {
            tiles: Some((prog, reps)),
            ..
        }) => proc
            .run(prog, &mut Dram::new(0))
            .expect("compiled tile program must simulate")
            .scaled(*reps),
        Ok(CompiledOp { tiles: None, .. }) | Err(_) => RunReport::default(),
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
    fn mobilenet_verifies_clean_cached_and_uncached() {
        let g = zoo::mobilenetv2();
        let npu = Npu::new(NpuConfig::paper());
        assert!(
            npu.verify_schedule(&g),
            "compiler emitted unverifiable programs"
        );
        let s = npu.stats();
        assert!(
            s.gate_misses > 0 && s.gate_hits > 0,
            "repeated blocks must verify once: {s:?}"
        );
        let uncached = Npu::uncached(NpuConfig::paper());
        assert!(uncached.verify_schedule(&g));
        // A run verifies nothing, so verifying leaves no trace in it.
        assert_eq!(npu.run(&g), uncached.run(&g));
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
        let npu = Npu::new(NpuConfig::paper());
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
        let bad_block = match schedule_graph_with(&g, Some(&npu.verifier), &bad) {
            Err(tandem_compiler::CompileError::Verification { block, .. }) => block as u64,
            other => panic!("expected a verification error, got {other:?}"),
        };
        // … as does the gate, after answering every block up to it: one
        // memo probe per block class.
        let plan = npu.plan(&g);
        let mut seen = std::collections::HashSet::new();
        let probes = plan.blocks[..=bad_block as usize]
            .iter()
            .filter(|b| b.class.is_none_or(|c| seen.insert(c)))
            .count() as u64;
        assert!(
            probes < bad_block + 1,
            "a repeated class must be probed once"
        );
        let before = npu.stats();
        assert!(!npu.verify_schedule_with(&g, &plan, &bad));
        let first = npu.stats().delta(&before);
        assert_eq!(first.gate_hits + first.gate_misses, probes);
        assert!(
            bad_block > 1,
            "the clean blocks before it must be gated too"
        );
        assert!(first.gate_misses > 1);
        // The second call answers from the memo: no lowering, no verify.
        calls.set(0);
        let mid = npu.stats();
        assert!(!npu.verify_schedule_with(&g, &plan, &bad));
        let second = npu.stats().delta(&mid);
        assert_eq!(second.gate_misses, 0);
        assert_eq!(second.gate_hits, probes);
        assert_eq!(calls.get(), 0, "a memoized verdict must not re-lower");
        // The rejection does not depend on the block's sync group.
        let block = &plan.blocks[bad_block as usize].block;
        for group in [(bad_block % 32) as u8, 0] {
            let sb = schedule_block(&g, block, group, &bad).unwrap();
            assert!(
                !npu.verifier.verify(&sb.program).is_clean(),
                "group {group}"
            );
        }
        // The real lowering passes on a runner of its own.
        assert!(Npu::new(npu.config().clone()).verify_schedule(&g));
    }

    #[test]
    fn memoized_lowerings_equal_fresh_ones() {
        let g = zoo::resnet50();
        let npu = Npu::new(NpuConfig::paper());
        let plan = npu.plan(&g);
        // The executor lowers only the non-GEMM nodes; GEMM nodes have no
        // signature and belong to the systolic array.
        let non_gemm: Vec<&Node> = g
            .nodes()
            .iter()
            .filter(|n| n.kind.class().is_non_gemm())
            .collect();
        for &node in &non_gemm {
            let cached = npu.lower(
                &g,
                node,
                plan.signature(&g, &npu.lowering, node.id).as_ref(),
            );
            let fresh = npu.lowering.lower_node(&g, node);
            assert_eq!(*cached, fresh, "node {}", node.name);
        }
        let s = npu.stats();
        assert_eq!(s.compile_hits + s.compile_misses, non_gemm.len() as u64);
        assert!(
            s.compile_hits > s.compile_misses,
            "ResNet repeats its blocks"
        );
    }

    #[test]
    fn one_plan_per_graph_serves_every_sibling() {
        let g = zoo::bert_base(32);
        let mut cfg = NpuConfig::paper();
        let hub = Npu::new(cfg.clone());
        hub.run(&g);
        let plan = hub.plan(&g);
        assert!(
            plan.site_keys.get().is_none(),
            "an empty-schedule run hashes no site key"
        );
        let sites = hub.tune_sites(&g);
        let pinned = sites.iter().filter_map(|s| {
            let c = s.candidates.iter().find(|&&c| c != s.baseline)?;
            Some((s.key, *c))
        });
        cfg.schedule = Schedule::new(pinned.collect());
        let uncached = Npu::uncached(cfg.clone());
        let sibling = hub.sibling(cfg);
        assert_eq!(sibling.verify_schedule(&g), uncached.verify_schedule(&g));
        assert_eq!(sibling.run(&g), uncached.run(&g));
        // One build; `plan`, `tune_sites`, the gate and the sibling's run
        // all read it.
        let memo = &hub.caches.plan;
        assert_eq!((memo.misses(), memo.hits()), (1, 4));
        assert_eq!(plan.site_keys.get().map(Vec::len), Some(g.nodes().len()));
        let bypass = &uncached.caches.plan;
        assert_eq!(bypass.misses() + bypass.hits(), 0);
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
