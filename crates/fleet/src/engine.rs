//! The whole-graph fleet engine: an event-driven simulation of a
//! request-serving deployment over N simulated NPUs, in discrete
//! virtual nanoseconds.
//!
//! Virtual time is derived from real per-model [`tandem_npu::NpuReport`]
//! cycle counts via each NPU's clock frequency (`cycles / freq_ghz` ns),
//! so the serving numbers inherit the cycle model's fidelity. Every
//! request is charged exact components — queueing delay, a cold-compile
//! warm-up the first time its model lands on an NPU, (batch-scaled)
//! service time, and, when a shared HBM budget is configured, a memory
//! stall — and the engine asserts that the components sum to the
//! end-to-end latency for every completed request.
//!
//! ## A policy over the serving core
//!
//! This engine decides *what* runs: admission, deadlines, the
//! scheduler's batches, warm-up. The shared core decides *when* it
//! finishes. Without an HBM budget a dispatch's completion is final at
//! dispatch time (the fast path, with no lane bookkeeping at all).
//! With one, the dispatch first waits out its warm-up (a stamped
//! `EV_START`: warm-up consumes no bandwidth), then its service runs on
//! the NPU's lane in [`crate::lanes::ServiceLanes`], which reschedules
//! the completion as the fair share moves. Every completed request goes
//! through the one report builder, [`crate::report::Tally`].
//!
//! ## Scaling to millions of requests
//!
//! The engine *streams*: arrivals are generated lazily (one staged
//! arrival in the heap at a time for open-loop processes), events live
//! in a flat packed binary heap ([`crate::events`]), per-NPU in-flight
//! member buffers are reused across dispatches, and per-request
//! accounting is online. With [`FleetConfig::retain_records`] **on**
//! (the default) the tally additionally keeps every [`RequestRecord`]
//! and computes report percentiles from the exact retained values. With
//! it **off**, peak memory is flat in the request count and percentiles
//! come from log-bucket sketches (relative error ≤ 1/32); that is the
//! mode the 10M-request `bench_serve` scenarios run in.

use crate::events::EventQueue;
use crate::lanes::{batch_scaled, ServiceLanes};
use crate::memory::{BandwidthDemand, MemorySystem};
use crate::policy::{Dispatch, FleetView, Policy, SchedulerPolicy};
use crate::report::{FleetReport, RequestRecord, Tally};
use crate::workload::{ArrivalGen, ArrivalProcess, Catalog, ModelSampler, Request, WorkloadSpec};
use std::collections::HashMap;
use std::time::Instant;
use tandem_npu::{ExecStats, Npu, NpuConfig};
use tandem_trace::{fleet as spans, NullSink, TraceSink};

/// Configuration of a simulated fleet: the member NPUs (heterogeneous
/// configurations allowed) plus the serving-layer knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// One configuration per NPU. Members with *equal* configurations
    /// share one host-side cache set (see [`Npu::fleet`]); their
    /// serving-layer warm state (`seen` models) is still tracked per
    /// NPU, because on real silicon each accelerator holds its own
    /// compiled programs.
    pub npus: Vec<NpuConfig>,
    /// Admission bound: arrivals beyond this many pending requests are
    /// dropped (`usize::MAX` = unbounded).
    pub queue_capacity: usize,
    /// Optional queueing deadline: a request that waits longer is timed
    /// out at dispatch instead of served.
    pub deadline_ns: Option<u64>,
    /// Cold-compile warm-up charged per graph node the first time a
    /// model lands on an NPU (models the compile + cache-fill cost in
    /// virtual time; deterministic, unlike host wall-time).
    pub warmup_ns_per_node: u64,
    /// Largest same-model batch one dispatch may coalesce.
    pub max_batch: usize,
    /// How long a batch head may wait for same-model followers.
    pub batch_window_ns: u64,
    /// Marginal cost of each additional batch member, as a fraction of
    /// the solo service time: a k-batch takes
    /// `solo · (1 + (k−1) · batch_marginal)`. Sub-linear (< 1) because
    /// weights, tiles, and the compiled program are already resident —
    /// the same amortization that makes batching win on real serving
    /// hardware. Must lie in `0.0..=1.0` (0 = free followers, 1 = no
    /// amortization); fleet constructors panic on anything else,
    /// NaN included.
    pub batch_marginal: f64,
    /// Per-member private DRAM-link bandwidth in GB/s (one entry per
    /// NPU). `None` derives each member's link from its configuration
    /// (`dram_words_per_cycle` 4-byte words per cycle at `freq_ghz` GHz)
    /// — 16 GB/s for the paper point.
    /// Only consulted while `hbm_gbps` is set.
    pub bw_gbps: Option<Vec<f64>>,
    /// Shared HBM bandwidth budget in GB/s across the whole fleet.
    /// `None` (the default) models unlimited bandwidth: members never
    /// contend, and the engine's behavior — event timing, traces,
    /// `SERVE.json` bytes — is identical to a fleet without the memory
    /// system. A finite budget stretches service whenever the serving
    /// members' aggregate demand exceeds it (see [`MemorySystem`]).
    pub hbm_gbps: Option<f64>,
    /// Keep a [`RequestRecord`] per completed request (and per-event
    /// queue-depth samples), and compute report percentiles from the
    /// exact retained values — the historical behavior, byte-identical
    /// `SERVE.json`. **Off**, the engine keeps memory flat in the
    /// request count: [`FleetReport::records`] and
    /// [`FleetReport::queue_depth_samples`] come back empty and
    /// percentiles are read from a deterministic log-bucket sketch
    /// (relative error ≤ 1/32; mean/max/count stay exact). Default on.
    pub retain_records: bool,
    /// Emit per-virtual-time-window rollups
    /// ([`FleetReport::rollups`]): arrivals, completions, rejections,
    /// busy time, and peak queue depth per window of this many
    /// nanoseconds. `None` (default) collects none; memory grows with
    /// the virtual horizon divided by the window, never with the
    /// request count.
    pub rollup_window_ns: Option<u64>,
}

impl FleetConfig {
    /// `n` identical NPUs with the serving defaults: 1024-deep
    /// admission queue, no deadline, 2 µs/node warm-up, batches up to 8
    /// within a 2 ms window at 0.35 marginal cost, records retained.
    pub fn homogeneous(cfg: NpuConfig, n: usize) -> Self {
        FleetConfig {
            npus: vec![cfg; n],
            queue_capacity: 1024,
            deadline_ns: None,
            warmup_ns_per_node: 2_000,
            max_batch: 8,
            batch_window_ns: 2_000_000,
            batch_marginal: 0.35,
            bw_gbps: None,
            hbm_gbps: None,
            retain_records: true,
            rollup_window_ns: None,
        }
    }

    /// A heterogeneous fleet from GeneSys generator design points
    /// (serving defaults as in [`FleetConfig::homogeneous`]): e.g. a mix
    /// of [`tandem_npu::DesignPoint::paper`] and
    /// [`tandem_npu::DesignPoint::large`] members.
    pub fn from_points(points: &[tandem_npu::DesignPoint]) -> Self {
        let mut cfg = Self::homogeneous(NpuConfig::paper(), points.len().max(1));
        cfg.npus = points.iter().map(|p| p.npu_config()).collect();
        cfg
    }

    /// The constructor check every fleet engine runs: at least one NPU,
    /// `max_batch ≥ 1`, and `batch_marginal` in `0.0..=1.0` (a value
    /// outside it would make batches free or overflow the service time
    /// through the float-to-integer cast).
    pub(crate) fn validate(&self) {
        assert!(!self.npus.is_empty(), "a fleet needs at least one NPU");
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            (0.0..=1.0).contains(&self.batch_marginal),
            "batch_marginal must lie in 0.0..=1.0, got {}",
            self.batch_marginal
        );
    }
}

/// A fleet of simulated NPUs ready to serve workloads.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    npus: Vec<Npu>,
}

/// Event kinds, ordered within one timestamp by issue sequence.
const EV_ARRIVAL: u8 = 0;
/// An NPU frees up. Stamped (see [`ServiceLanes::live`]) under
/// contention, where reallocations move it; plain `npu` otherwise.
const EV_FREE: u8 = 1;
const EV_POKE: u8 = 2;
/// Deferred service start (contention model only, stamped): the warm-up
/// has elapsed and the dispatch begins consuming shared bandwidth.
const EV_START: u8 = 3;

/// A dispatch in flight on one NPU under contention, where its records
/// wait for the (moving) completion. Its timing lives in the NPU's
/// service lane; the member buffer is reused across dispatches.
#[derive(Debug, Default)]
struct InFlight {
    model: usize,
    warmup_ns: u64,
    members: Vec<Request>,
}

/// The mutable simulation state (kept separate from the scheduler so a
/// [`FleetView`] can borrow the tables while the scheduler is driven
/// mutably).
struct Sim<'a> {
    cfg: &'a FleetConfig,
    catalog: &'a Catalog,
    /// `service_ns[npu][model]` — solo service time.
    service_ns: Vec<Vec<u64>>,
    /// `warmup_ns[model]` — cold-compile charge (same for every NPU).
    warmup_ns: Vec<u64>,
    /// `seen[npu][model]`.
    seen: Vec<Vec<bool>>,
    /// Flat packed event heap.
    events: EventQueue,
    /// Streaming model sampler (consumed in request-id order).
    sampler: ModelSampler,
    /// Streaming arrival-time generator (open-loop processes only).
    arrivals: Option<ArrivalGen>,
    /// Open loop: the one arrival currently staged in the heap — the
    /// whole trace is never materialized.
    staged_arrival: Option<Request>,
    /// Closed loop: models of spawned, not-yet-arrived requests
    /// (bounded by the client count).
    pending_models: HashMap<u64, usize>,
    /// Requests issued so far (ids are dense in issue order).
    next_spawn: usize,
    total_requests: usize,
    idle: Vec<bool>,
    /// `Some(think_ns)` when the workload is closed-loop: each finished
    /// (or refused) request triggers its client's next one.
    closed_think_ns: Option<u64>,
    /// Per-NPU service timing over the shared memory system.
    lanes: ServiceLanes,
    /// `demand[npu][model]` — bandwidth demand of a solo service; empty
    /// when the contention model is off.
    demand: Vec<Vec<BandwidthDemand>>,
    /// `dram_bytes[npu][model]` — byte footprint per dispatch; empty
    /// when the contention model is off.
    dram_bytes: Vec<Vec<u64>>,
    /// Per-NPU in-flight dispatches (contention model only).
    flight: Vec<InFlight>,
    tally: Tally,
    /// Reused scratch for a dispatch's unexpired members.
    live_buf: Vec<Request>,
}

impl Sim<'_> {
    /// Generates and stages the next open-loop arrival: one streamed
    /// `(model, arrival)` draw, one heap entry, stamped with its
    /// reserved sequence so event order is identical to a heap seeded
    /// with the whole trace up front.
    fn stage_next_arrival(&mut self) {
        if self.next_spawn >= self.total_requests {
            self.staged_arrival = None;
            return;
        }
        let id = self.next_spawn as u64;
        self.next_spawn += 1;
        let model = self.sampler.next_model();
        let at = self
            .arrivals
            .as_mut()
            .expect("open-loop staging requires an arrival generator")
            .next_arrival();
        self.staged_arrival = Some(Request {
            id,
            model,
            arrival_ns: at,
        });
        self.events.push_with_seq(at, id + 1, EV_ARRIVAL, id);
    }

    /// Issues request `id` (closed loop) arriving at `at`.
    fn spawn_next(&mut self, at: u64) {
        if self.next_spawn >= self.total_requests {
            return;
        }
        let id = self.next_spawn as u64;
        self.next_spawn += 1;
        let model = self.sampler.next_model();
        self.pending_models.insert(id, model);
        self.events.push(at, EV_ARRIVAL, id);
    }

    /// Resolves a popped `EV_ARRIVAL` into its request, restocking the
    /// staged open-loop arrival.
    fn take_arrival(&mut self, id: u64, now: u64) -> Request {
        if let Some(req) = self.staged_arrival {
            debug_assert_eq!(req.id, id, "open-loop arrivals pop in issue order");
            self.stage_next_arrival();
            return req;
        }
        let model = self
            .pending_models
            .remove(&id)
            .expect("arrival event without a spawned request");
        Request {
            id,
            model,
            arrival_ns: now,
        }
    }

    /// The closed loop replaces every finished (or refused) request with
    /// its client's next one after the think time.
    fn closed_loop_refill(&mut self, finished_at: u64) {
        if let Some(think) = self.closed_think_ns {
            self.spawn_next(finished_at.saturating_add(think));
        }
    }

    /// What the scheduler sees of the fleet.
    fn view(&self) -> FleetView<'_> {
        FleetView {
            service_ns: &self.service_ns,
            seen: &self.seen,
            max_batch: self.cfg.max_batch,
            batch_window_ns: self.cfg.batch_window_ns,
        }
    }

    /// Keeps dispatching onto NPU `n` until it is busy or the scheduler
    /// has nothing runnable.
    fn try_dispatch(
        &mut self,
        n: usize,
        now: u64,
        sched: &mut dyn SchedulerPolicy,
        sink: &mut dyn TraceSink,
    ) {
        while self.idle[n] {
            match sched.dispatch(n, now, &self.view()) {
                Dispatch::Idle => return,
                Dispatch::HoldUntil(at) => {
                    self.events.push(at.max(now + 1), EV_POKE, n as u64);
                    return;
                }
                Dispatch::Run(batch) => {
                    assert!(!batch.is_empty(), "policy dispatched an empty batch");
                    let model = batch[0].model;
                    assert!(
                        batch.iter().all(|r| r.model == model),
                        "a dispatch batch must be single-model"
                    );
                    // Expire requests that out-waited the deadline; they
                    // leave the queue without consuming service. `live`
                    // is a reused scratch buffer, not a fresh Vec.
                    let deadline = self.cfg.deadline_ns.unwrap_or(u64::MAX);
                    let mut live = std::mem::take(&mut self.live_buf);
                    live.clear();
                    for r in batch {
                        if now.saturating_sub(r.arrival_ns) > deadline {
                            self.tally.timed_out += 1;
                            if let Some(roll) = &mut self.tally.rollups {
                                roll.on_timed_out(now);
                            }
                            self.tally.depth -= 1;
                            spans::timeout_marker(sink, now, r.id, self.catalog.name(r.model));
                            self.closed_loop_refill(now);
                        } else {
                            live.push(r);
                        }
                    }
                    self.tally.sample_depth(now);
                    spans::queue_depth(sink, now, self.tally.depth);
                    if live.is_empty() {
                        self.live_buf = live;
                        continue; // ask the scheduler again
                    }
                    self.run_batch(n, now, model, &live, sink);
                    self.live_buf = live;
                    return;
                }
            }
        }
    }

    /// Nominal service of a `k`-batch of `model` on NPU `n`.
    fn batch_service_ns(&self, n: usize, model: usize, k: usize) -> u64 {
        batch_scaled(self.service_ns[n][model], k as u64, self.cfg.batch_marginal)
    }

    /// Charges warm-up + batch-scaled service for `live` on NPU `n`.
    fn run_batch(
        &mut self,
        n: usize,
        now: u64,
        model: usize,
        live: &[Request],
        sink: &mut dyn TraceSink,
    ) {
        let cold = !std::mem::replace(&mut self.seen[n][model], true);
        let warmup = if cold { self.warmup_ns[model] } else { 0 };
        let k = live.len() as u64;
        let service = self.batch_service_ns(n, model, live.len());
        self.idle[n] = false;
        let contended = self.lanes.mem().enabled();
        let u = &mut self.tally.usage[n];
        u.batches += 1;
        u.warmups += (warmup > 0) as u64;
        u.warmup_ns += warmup;
        u.service_ns += service;
        if contended {
            u.dram_bytes += self.dram_bytes[n][model];
        }
        spans::warmup_span(sink, n as u16, self.catalog.name(model), now, warmup);
        if !contended {
            // Unlimited-bandwidth fast path: the completion is final at
            // dispatch (byte-identical to the pre-contention engine).
            let completion = now + warmup + service;
            self.events.push(completion, EV_FREE, n as u64);
            self.finish_batch(n, model, now, warmup, service, 0, live, sink);
        }
        self.tally.depth -= k;
        self.tally.sample_depth(now);
        spans::queue_depth(sink, now, self.tally.depth);
        if contended {
            // The completion moves as overlap changes, so records are
            // finalized at the completion event instead.
            let f = &mut self.flight[n];
            f.model = model;
            f.warmup_ns = warmup;
            f.members.clear();
            f.members.extend_from_slice(live);
            if warmup == 0 {
                self.start_service(n, now, sink);
            } else {
                let payload = self.lanes.stamp(n);
                self.events.push(now + warmup, EV_START, payload);
            }
        }
    }

    /// Books a finished dispatch: its service span, one record per
    /// member, and the closed-loop refills and rollups at completion.
    #[allow(clippy::too_many_arguments)]
    fn finish_batch(
        &mut self,
        n: usize,
        model: usize,
        dispatched: u64,
        warmup: u64,
        service: u64,
        stall: u64,
        members: &[Request],
        sink: &mut dyn TraceSink,
    ) {
        let (start, k) = (dispatched + warmup, members.len());
        let completion = start + service + stall;
        let name = self.catalog.name(model);
        spans::service_span(
            sink,
            n as u16,
            name,
            start,
            service + stall,
            members[0].id,
            k as u64,
        );
        for r in members {
            self.tally.record(RequestRecord {
                id: r.id,
                model,
                npu: n,
                batch: k,
                arrival_ns: r.arrival_ns,
                queue_ns: dispatched - r.arrival_ns,
                warmup_ns: warmup,
                service_ns: service,
                mem_stall_ns: stall,
                completion_ns: completion,
            });
            self.closed_loop_refill(completion);
        }
        if let Some(roll) = &mut self.tally.rollups {
            roll.on_completed(completion, k as u64);
            roll.on_busy(completion, warmup + service + stall);
        }
        self.tally.advance(completion);
    }

    /// Begins the service phase of NPU `n`'s in-flight dispatch: from
    /// here it demands bandwidth, so the whole fleet re-shares.
    fn start_service(&mut self, n: usize, at: u64, sink: &mut dyn TraceSink) {
        let f = &self.flight[n];
        let service = self.batch_service_ns(n, f.model, f.members.len());
        let demand = self.demand[n][f.model];
        self.lanes.begin(n, at, service, demand);
        self.lanes.reallocate(at, EV_FREE, &mut self.events, sink);
    }

    /// Finalizes NPU `n`'s in-flight dispatch at its (possibly
    /// stretched) completion time, then re-shares the freed bandwidth
    /// among the survivors.
    fn complete(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        let stall = self.lanes.end(n, now);
        let (start, service) = (self.lanes.start_ns(n), self.lanes.nominal_ns(n));
        let (model, warmup) = (self.flight[n].model, self.flight[n].warmup_ns);
        self.tally.usage[n].mem_stall_ns += stall;
        let members = std::mem::take(&mut self.flight[n].members);
        self.finish_batch(
            n,
            model,
            start - warmup,
            warmup,
            service,
            stall,
            &members,
            sink,
        );
        // Hand the member buffer back for the next dispatch.
        self.flight[n].members = members;
        self.lanes.reallocate(now, EV_FREE, &mut self.events, sink);
    }
}

impl Fleet {
    /// Builds the fleet (members with equal configurations share one
    /// host-side cache set).
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate();
        let npus = Npu::fleet(&cfg.npus);
        Fleet { cfg, npus }
    }

    /// Builds a fleet from caller-constructed members — the way to share
    /// host-side caches *across* fleets (e.g. a sweep cloning one warm
    /// pool into every cell). Member configurations must match `cfg`.
    pub fn with_members(cfg: FleetConfig, members: Vec<Npu>) -> Self {
        cfg.validate();
        assert_eq!(
            members.len(),
            cfg.npus.len(),
            "one member NPU per configured slot"
        );
        for (m, c) in members.iter().zip(&cfg.npus) {
            assert!(m.config() == c, "member configuration mismatch");
        }
        Fleet { cfg, npus: members }
    }

    /// The configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// The member NPUs.
    pub fn npus(&self) -> &[Npu] {
        &self.npus
    }

    /// Serves `spec` with a fresh scheduler of kind `policy`.
    pub fn serve(&self, catalog: &Catalog, spec: &WorkloadSpec, policy: Policy) -> FleetReport {
        self.serve_traced(catalog, spec, policy, &mut NullSink)
    }

    /// [`Fleet::serve`], streaming fleet-level spans into `sink`: one
    /// Perfetto lane per NPU (warm-up + service spans, queueing visible
    /// as the gaps), arrival/drop markers on the scheduler lane, and a
    /// queue-depth counter.
    pub fn serve_traced(
        &self,
        catalog: &Catalog,
        spec: &WorkloadSpec,
        policy: Policy,
        sink: &mut dyn TraceSink,
    ) -> FleetReport {
        let mut sched = policy.build();
        self.serve_with(catalog, spec, sched.as_mut(), sink)
    }

    /// Serves `spec` with a caller-provided scheduler (the extension
    /// point for policies outside [`Policy::ALL`]).
    pub fn serve_with(
        &self,
        catalog: &Catalog,
        spec: &WorkloadSpec,
        sched: &mut dyn SchedulerPolicy,
        sink: &mut dyn TraceSink,
    ) -> FleetReport {
        assert!(!catalog.is_empty(), "catalog must hold at least one model");
        assert!(
            spec.mix.iter().all(|&(m, _)| m < catalog.len()),
            "workload mix references a model outside the catalog"
        );
        let t0 = Instant::now();
        // Host-side cache accounting: snapshot one representative per
        // distinct cache set (= distinct configuration) before and
        // after, and merge the deltas (see `ExecStats::merge`).
        let group_heads: Vec<usize> = (0..self.npus.len())
            .filter(|&i| (0..i).all(|j| self.cfg.npus[j] != self.cfg.npus[i]))
            .collect();
        let before: Vec<ExecStats> = group_heads.iter().map(|&i| self.npus[i].stats()).collect();

        // Service-time tables from the cycle model: `Npu::estimate` is a
        // cached full run, so a 4-member homogeneous fleet pays each
        // model's simulation once.
        let n_npus = self.npus.len();
        let n_models = catalog.len();
        let service_ns: Vec<Vec<u64>> = (0..n_npus)
            .map(|i| {
                let freq = self.npus[i].config().tandem.freq_ghz;
                (0..n_models)
                    .map(|m| {
                        let cycles = self.npus[i].estimate(catalog.graph(m));
                        ((cycles as f64 / freq).ceil() as u64).max(1)
                    })
                    .collect()
            })
            .collect();
        let warmup_ns: Vec<u64> = (0..n_models)
            .map(|m| self.cfg.warmup_ns_per_node * catalog.graph(m).nodes().len() as u64)
            .collect();

        // Shared-HBM contention tables (empty on the unlimited path, so
        // fleets without a budget never pay the demand estimation).
        let mem = MemorySystem::new(&self.cfg);
        let contended = mem.enabled();
        let (demand, dram_bytes) = if contended {
            let mut demand = vec![vec![BandwidthDemand::default(); n_models]; n_npus];
            let mut dram_bytes = vec![vec![0u64; n_models]; n_npus];
            for i in 0..n_npus {
                for m in 0..n_models {
                    let sd = self.npus[i].estimate_demand(catalog.graph(m));
                    dram_bytes[i][m] = sd.dram_bytes;
                    demand[i][m] = mem.demand(i, sd.dram_bytes, service_ns[i][m]);
                }
            }
            (demand, dram_bytes)
        } else {
            (Vec::new(), Vec::new())
        };

        let closed = matches!(&spec.arrival, ArrivalProcess::ClosedLoop { .. });
        let mut sim = Sim {
            cfg: &self.cfg,
            catalog,
            service_ns,
            warmup_ns,
            seen: vec![vec![false; n_models]; n_npus],
            // Open-loop arrivals carry reserved sequences `1..=requests`
            // (issue order); auto-assigned sequences start after them,
            // exactly as if the whole trace had been queued up front.
            events: EventQueue::with_reserved_seqs(if closed { 0 } else { spec.requests as u64 }),
            sampler: ModelSampler::new(spec),
            arrivals: (!closed).then(|| ArrivalGen::new(spec)),
            staged_arrival: None,
            pending_models: HashMap::new(),
            next_spawn: 0,
            total_requests: spec.requests,
            idle: vec![true; n_npus],
            closed_think_ns: match &spec.arrival {
                ArrivalProcess::ClosedLoop { think_ns, .. } => Some(*think_ns),
                _ => None,
            },
            lanes: ServiceLanes::new(n_npus, mem),
            demand,
            dram_bytes,
            flight: (0..n_npus).map(|_| InFlight::default()).collect(),
            tally: Tally::new(
                self.cfg.retain_records,
                n_npus,
                n_models,
                self.cfg.rollup_window_ns,
            ),
            live_buf: Vec::new(),
        };

        // Seed the event queue: the initial closed-loop client wave, or
        // the first staged open-loop arrival.
        match &spec.arrival {
            ArrivalProcess::ClosedLoop { clients, .. } => {
                let initial = (*clients).max(1).min(spec.requests);
                for _ in 0..initial {
                    sim.spawn_next(0);
                }
            }
            _ => sim.stage_next_arrival(),
        }

        // The event loop. Stamped pops that a reallocation superseded
        // are discarded *before* the makespan update.
        while let Some((now, kind, payload)) = sim.events.pop() {
            let n = if kind == EV_START || (contended && kind == EV_FREE) {
                match sim.lanes.live(payload) {
                    Some(n) => n,
                    None => continue,
                }
            } else {
                payload as usize
            };
            sim.tally.advance(now);
            match kind {
                EV_ARRIVAL => {
                    let req = sim.take_arrival(payload, now);
                    if let Some(roll) = &mut sim.tally.rollups {
                        roll.on_arrival(now);
                    }
                    spans::arrival(sink, now, req.id, catalog.name(req.model));
                    if sched.pending() >= self.cfg.queue_capacity {
                        sim.tally.dropped += 1;
                        if let Some(roll) = &mut sim.tally.rollups {
                            roll.on_dropped(now);
                        }
                        spans::drop_marker(sink, now, req.id, catalog.name(req.model));
                        sim.closed_loop_refill(now);
                        continue;
                    }
                    sched.enqueue(req, &sim.view());
                    sim.tally.depth += 1;
                    sim.tally.sample_depth(now);
                    spans::queue_depth(sink, now, sim.tally.depth);
                    for n in 0..n_npus {
                        if sim.idle[n] {
                            sim.try_dispatch(n, now, sched, sink);
                        }
                    }
                }
                EV_START => sim.start_service(n, now, sink),
                EV_FREE => {
                    if contended {
                        sim.complete(n, now, sink);
                    }
                    sim.idle[n] = true;
                    sim.try_dispatch(n, now, sched, sink);
                }
                EV_POKE => {
                    if sim.idle[n] {
                        sim.try_dispatch(n, now, sched, sink);
                    }
                }
                _ => unreachable!("unknown event kind"),
            }
        }

        debug_assert_eq!(
            sim.next_spawn, spec.requests,
            "every request must be issued"
        );
        let t = &sim.tally;
        debug_assert_eq!(
            t.completed + t.dropped + t.timed_out,
            spec.requests as u64,
            "every request must be accounted for"
        );

        let mut stats = ExecStats::default();
        for (&head, b) in group_heads.iter().zip(&before) {
            stats.merge(&self.npus[head].stats().delta(b));
        }
        stats.wall_s = t0.elapsed().as_secs_f64();

        let hbm_gbps = sim.lanes.mem().budget_gbps();
        let mut report = sim
            .tally
            .finish(sched.name(), spec.requests as u64, hbm_gbps, |m| {
                catalog.name(m).to_string()
            });
        report.stats = stats;
        report
    }
}
