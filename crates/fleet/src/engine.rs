//! The fleet engine: an event-driven simulation of a request-serving
//! deployment over N simulated NPUs, in discrete virtual nanoseconds.
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
//! ## Scaling to millions of requests
//!
//! The engine *streams*: arrivals are generated lazily (one staged
//! arrival in the heap at a time for open-loop processes), events live
//! in a flat packed binary heap ([`crate::events`]), in-flight dispatch
//! state sits in a struct-of-arrays table whose per-dispatch member
//! buffers are reused across events, and per-request accounting is
//! online — counters, per-NPU/per-model running aggregates, and
//! log-bucket percentile sketches ([`crate::stats`]). With
//! [`FleetConfig::retain_records`] **on** (the default) the engine
//! additionally keeps every [`RequestRecord`] and computes report
//! percentiles from the exact retained values — byte-identical output
//! to the historical record-retaining engine. With it **off**, peak
//! memory is flat in the request count and percentiles come from the
//! sketch (relative error ≤ 1/32); that is the mode the 10M-request
//! `bench_serve` scenarios run in.

use crate::events::EventQueue;
use crate::memory::{eta_ns, Allocation, BandwidthDemand, MemorySystem};
use crate::policy::{Dispatch, FleetView, Policy, SchedulerPolicy};
use crate::report::{FleetReport, LatencyStats, ModelStats, NpuUsage, RequestRecord};
use crate::stats::{LatencySketch, Rollups};
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
    /// hardware.
    pub batch_marginal: f64,
    /// Per-member private DRAM-link bandwidth in GB/s (one entry per
    /// NPU). `None` derives each member's link from its configuration
    /// via [`tandem_core::link_gbps`] — 16 GB/s for the paper point.
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
}

/// A fleet of simulated NPUs ready to serve workloads.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    npus: Vec<Npu>,
}

/// Event kinds, ordered within one timestamp by issue sequence.
const EV_ARRIVAL: u8 = 0;
const EV_FREE: u8 = 1;
const EV_POKE: u8 = 2;
/// Deferred service start (contention model only): the warm-up has
/// elapsed and the dispatch begins consuming shared bandwidth.
const EV_START: u8 = 3;

/// In-flight dispatch state in struct-of-arrays layout, one slot per
/// NPU (the unlimited-budget path never populates it). A slot's
/// completion time is provisional: every change to the set of serving
/// NPUs re-shares the bandwidth, re-prices the remaining work, and
/// reschedules the completion event under a fresh generation. The
/// per-slot `members` buffers are reused across dispatches — cleared,
/// never reallocated — so steady-state serving performs no per-dispatch
/// heap allocation here.
#[derive(Debug, Default)]
struct InFlightTable {
    /// Slot occupied (a dispatch is in flight on this NPU).
    active: Vec<bool>,
    /// Service has begun (bandwidth is consumed only then, not during
    /// the host-side warm-up).
    started: Vec<bool>,
    model: Vec<usize>,
    /// Generation stamped into this dispatch's scheduled event; bumping
    /// it turns the superseded heap entry into a discarded stale pop.
    gen: Vec<u64>,
    dispatched_ns: Vec<u64>,
    warmup_ns: Vec<u64>,
    /// Nominal (uncontended, batch-scaled) service time.
    service_ns: Vec<u64>,
    /// Progress through the nominal service, in nominal nanoseconds.
    progress: Vec<f64>,
    /// When `progress` was last banked.
    accrued_ns: Vec<u64>,
    /// Progress rate in force since then (≤ 1; 1 = uncontended).
    rate: Vec<f64>,
    /// Completion time of the currently scheduled `EV_FREE`
    /// (`u64::MAX` = none), so an unchanged estimate is not rescheduled
    /// — fewer stale events, and uncontended dispatches keep their
    /// original event order.
    eta_ns: Vec<u64>,
    /// The dispatch's batch members (reused buffer).
    members: Vec<Vec<Request>>,
}

impl InFlightTable {
    fn new(n: usize) -> Self {
        InFlightTable {
            active: vec![false; n],
            started: vec![false; n],
            model: vec![0; n],
            gen: vec![0; n],
            dispatched_ns: vec![0; n],
            warmup_ns: vec![0; n],
            service_ns: vec![0; n],
            progress: vec![0.0; n],
            accrued_ns: vec![0; n],
            rate: vec![1.0; n],
            eta_ns: vec![u64::MAX; n],
            members: (0..n).map(|_| Vec::new()).collect(),
        }
    }
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
    usage: Vec<NpuUsage>,
    depth: u64,
    peak_depth: u64,
    /// Per-event depth samples — collected only when records are
    /// retained (they grow with the event count).
    depth_samples: Vec<(u64, u64)>,
    makespan_ns: u64,
    /// `Some(think_ns)` when the workload is closed-loop: each finished
    /// (or refused) request triggers its client's next one.
    closed_think_ns: Option<u64>,
    /// The shared memory system (no-op when the budget is unlimited).
    mem: MemorySystem,
    /// `demand[npu][model]` — bandwidth demand of a solo service; empty
    /// when the contention model is off.
    demand: Vec<Vec<BandwidthDemand>>,
    /// `dram_bytes[npu][model]` — byte footprint per dispatch; empty
    /// when the contention model is off.
    dram_bytes: Vec<Vec<u64>>,
    /// In-flight dispatches, SoA (contention model only).
    flight: InFlightTable,
    /// Monotone generation counter for reschedulable events.
    gen: u64,
    // --- online accounting ---
    retain: bool,
    records: Vec<RequestRecord>,
    completed: u64,
    dropped: u64,
    timed_out: u64,
    /// Streaming distributions (fed only when records are *not*
    /// retained; the exact path reads the retained records instead).
    lat_sketch: LatencySketch,
    queue_sketch: LatencySketch,
    stall_sketch: LatencySketch,
    model_sketches: Vec<LatencySketch>,
    rollups: Option<Rollups>,
    // --- reused scratch (no per-event allocation) ---
    live_buf: Vec<Request>,
    serving_buf: Vec<Option<BandwidthDemand>>,
    alloc_buf: Allocation,
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

    fn sample_depth(&mut self, at: u64) {
        self.peak_depth = self.peak_depth.max(self.depth);
        if let Some(r) = &mut self.rollups {
            r.on_depth(at, self.depth);
        }
        if self.retain && self.depth_samples.last().map(|&(t, d)| (t, d)) != Some((at, self.depth))
        {
            self.depth_samples.push((at, self.depth));
        }
    }

    /// Banks one completed request into the online accounting (and the
    /// record vector when retained).
    #[inline]
    fn finish_request(&mut self, rec: RequestRecord) {
        // The contract the report advertises: latency decomposes
        // exactly into its components.
        debug_assert_eq!(
            rec.latency_ns(),
            rec.queue_ns + rec.warmup_ns + rec.service_ns + rec.mem_stall_ns
        );
        self.completed += 1;
        if self.retain {
            self.records.push(rec);
        } else {
            let lat = rec.latency_ns();
            self.lat_sketch.record(lat);
            self.queue_sketch.record(rec.queue_ns);
            self.stall_sketch.record(rec.mem_stall_ns);
            self.model_sketches[rec.model].record(lat);
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
            let decision = {
                let view = FleetView {
                    service_ns: &self.service_ns,
                    seen: &self.seen,
                    max_batch: self.cfg.max_batch,
                    batch_window_ns: self.cfg.batch_window_ns,
                };
                sched.dispatch(n, now, &view)
            };
            match decision {
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
                            self.timed_out += 1;
                            if let Some(roll) = &mut self.rollups {
                                roll.on_timed_out(now);
                            }
                            self.depth -= 1;
                            spans::timeout_marker(sink, now, r.id, self.catalog.name(r.model));
                            self.closed_loop_refill(now);
                        } else {
                            live.push(r);
                        }
                    }
                    self.sample_depth(now);
                    spans::queue_depth(sink, now, self.depth);
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

    /// Charges warm-up + batch-scaled service for `live` on NPU `n`.
    fn run_batch(
        &mut self,
        n: usize,
        now: u64,
        model: usize,
        live: &[Request],
        sink: &mut dyn TraceSink,
    ) {
        let warm = self.seen[n][model];
        let warmup = if warm { 0 } else { self.warmup_ns[model] };
        self.seen[n][model] = true;
        let k = live.len() as u64;
        let solo = self.service_ns[n][model];
        let service =
            solo + (((k - 1) as f64) * self.cfg.batch_marginal * solo as f64).round() as u64;
        self.idle[n] = false;
        let contended = self.mem.enabled();
        let bytes = if contended {
            self.dram_bytes[n][model]
        } else {
            0
        };
        let u = &mut self.usage[n];
        u.served += k;
        u.batches += 1;
        u.warmups += (warmup > 0) as u64;
        u.warmup_ns += warmup;
        u.service_ns += service;
        u.dram_bytes += bytes;
        let name = self.catalog.name(model);
        spans::warmup_span(sink, n as u16, name, now, warmup);
        if !contended {
            // Unlimited-bandwidth fast path: the completion is final at
            // dispatch (byte-identical to the pre-contention engine).
            let completion = now + warmup + service;
            self.events.push(completion, EV_FREE, n as u64);
            spans::service_span(sink, n as u16, name, now + warmup, service, live[0].id, k);
            let batch = live.len();
            for &r in live {
                self.finish_request(RequestRecord {
                    id: r.id,
                    model,
                    npu: n,
                    batch,
                    arrival_ns: r.arrival_ns,
                    queue_ns: now - r.arrival_ns,
                    warmup_ns: warmup,
                    service_ns: service,
                    mem_stall_ns: 0,
                    completion_ns: completion,
                });
                self.depth -= 1;
                self.closed_loop_refill(completion);
            }
            if let Some(roll) = &mut self.rollups {
                roll.on_completed(completion, k);
                roll.on_busy(completion, warmup + service);
            }
            self.sample_depth(now);
            spans::queue_depth(sink, now, self.depth);
            self.makespan_ns = self.makespan_ns.max(completion);
            return;
        }
        // Contended path: the completion moves as overlap changes, so
        // records are finalized at the completion event instead.
        self.depth -= k;
        self.sample_depth(now);
        spans::queue_depth(sink, now, self.depth);
        self.gen += 1;
        let gen = self.gen;
        let f = &mut self.flight;
        f.active[n] = true;
        f.started[n] = false;
        f.model[n] = model;
        f.gen[n] = gen;
        f.dispatched_ns[n] = now;
        f.warmup_ns[n] = warmup;
        f.service_ns[n] = service;
        f.progress[n] = 0.0;
        f.accrued_ns[n] = now;
        f.rate[n] = 1.0;
        f.eta_ns[n] = u64::MAX;
        f.members[n].clear();
        f.members[n].extend_from_slice(live);
        if warmup == 0 {
            self.start_service(n, now, sink);
        } else {
            let payload = gen * self.idle.len() as u64 + n as u64;
            self.events.push(now + warmup, EV_START, payload);
        }
    }

    /// Begins the service phase of NPU `n`'s in-flight dispatch: from
    /// here it demands bandwidth, so the whole fleet re-shares.
    fn start_service(&mut self, n: usize, at: u64, sink: &mut dyn TraceSink) {
        debug_assert!(self.flight.active[n] && !self.flight.started[n]);
        self.flight.started[n] = true;
        self.flight.progress[n] = 0.0;
        self.flight.accrued_ns[n] = at;
        self.reallocate(at, sink);
    }

    /// Recomputes the fair-share allocation and every in-service
    /// completion time — called whenever the set of serving NPUs
    /// changes, which makes each NPU's bandwidth (and progress rate)
    /// piecewise-constant between events. All buffers are reused.
    fn reallocate(&mut self, now: u64, sink: &mut dyn TraceSink) {
        let n_npus = self.idle.len();
        // Bank progress earned at the rates in force since the last event.
        for i in 0..n_npus {
            if self.flight.active[i] && self.flight.started[i] {
                self.flight.progress[i] +=
                    (now - self.flight.accrued_ns[i]) as f64 * self.flight.rate[i];
                self.flight.accrued_ns[i] = now;
            }
        }
        let mut serving = std::mem::take(&mut self.serving_buf);
        serving.clear();
        serving.extend((0..n_npus).map(|i| {
            (self.flight.active[i] && self.flight.started[i])
                .then(|| self.demand[i][self.flight.model[i]])
        }));
        let mut alloc = std::mem::take(&mut self.alloc_buf);
        self.mem.allocate_into(&serving, &mut alloc);
        for i in 0..n_npus {
            if !(self.flight.active[i] && self.flight.started[i]) {
                continue;
            }
            self.flight.rate[i] = alloc.rates[i];
            let remaining = self.flight.service_ns[i] as f64 - self.flight.progress[i];
            let eta = eta_ns(now, remaining, self.flight.rate[i]);
            // Physics floor: contention can only push a completion
            // past its nominal end, never before it (also guards the
            // stall's non-negativity against float rounding).
            let eta = eta.max(
                self.flight.dispatched_ns[i] + self.flight.warmup_ns[i] + self.flight.service_ns[i],
            );
            if self.flight.eta_ns[i] == eta {
                continue; // the already-scheduled event still stands
            }
            self.flight.eta_ns[i] = eta;
            self.gen += 1;
            self.flight.gen[i] = self.gen;
            self.events
                .push(eta, EV_FREE, self.gen * n_npus as u64 + i as u64);
        }
        if sink.enabled() {
            let cgbps = |g: f64| (g * 100.0).round() as u64;
            spans::hbm_bandwidth(
                sink,
                now,
                cgbps(alloc.demand_gbps),
                cgbps(alloc.granted_gbps),
            );
            if alloc.throttled > 0 {
                spans::hbm_throttle(sink, now, alloc.throttled as u64);
            }
        }
        self.serving_buf = serving;
        self.alloc_buf = alloc;
    }

    /// Finalizes NPU `n`'s in-flight dispatch at its (possibly
    /// stretched) completion time, then re-shares the freed bandwidth
    /// among the survivors.
    fn complete(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        debug_assert!(self.flight.active[n], "completion without a dispatch");
        self.flight.active[n] = false;
        let (model, dispatched, warmup, service) = (
            self.flight.model[n],
            self.flight.dispatched_ns[n],
            self.flight.warmup_ns[n],
            self.flight.service_ns[n],
        );
        let nominal_end = dispatched + warmup + service;
        debug_assert!(now >= nominal_end, "completions never beat nominal time");
        let stall = now - nominal_end;
        self.usage[n].mem_stall_ns += stall;
        let name = self.catalog.name(model);
        let members = std::mem::take(&mut self.flight.members[n]);
        spans::service_span(
            sink,
            n as u16,
            name,
            dispatched + warmup,
            service + stall,
            members[0].id,
            members.len() as u64,
        );
        for r in &members {
            self.finish_request(RequestRecord {
                id: r.id,
                model,
                npu: n,
                batch: members.len(),
                arrival_ns: r.arrival_ns,
                queue_ns: dispatched - r.arrival_ns,
                warmup_ns: warmup,
                service_ns: service,
                mem_stall_ns: stall,
                completion_ns: now,
            });
            self.closed_loop_refill(now);
        }
        if let Some(roll) = &mut self.rollups {
            roll.on_completed(now, members.len() as u64);
            roll.on_busy(now, warmup + service + stall);
        }
        // Hand the (cleared) member buffer back for the next dispatch.
        let mut members = members;
        members.clear();
        self.flight.members[n] = members;
        self.makespan_ns = self.makespan_ns.max(now);
        self.reallocate(now, sink);
    }
}

impl Fleet {
    /// Builds the fleet (members with equal configurations share one
    /// host-side cache set).
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(!cfg.npus.is_empty(), "a fleet needs at least one NPU");
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        let npus = Npu::fleet(&cfg.npus);
        Fleet { cfg, npus }
    }

    /// Builds a fleet from caller-constructed members — the way to share
    /// host-side caches *across* fleets (e.g. a sweep cloning one warm
    /// pool into every cell). Member configurations must match `cfg`.
    pub fn with_members(cfg: FleetConfig, members: Vec<Npu>) -> Self {
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
        let retain = self.cfg.retain_records;
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
            usage: vec![NpuUsage::default(); n_npus],
            depth: 0,
            peak_depth: 0,
            depth_samples: Vec::new(),
            makespan_ns: 0,
            closed_think_ns: match &spec.arrival {
                ArrivalProcess::ClosedLoop { think_ns, .. } => Some(*think_ns),
                _ => None,
            },
            mem,
            demand,
            dram_bytes,
            flight: InFlightTable::new(n_npus),
            gen: 0,
            retain,
            records: Vec::new(),
            completed: 0,
            dropped: 0,
            timed_out: 0,
            lat_sketch: LatencySketch::new(),
            queue_sketch: LatencySketch::new(),
            stall_sketch: LatencySketch::new(),
            model_sketches: if retain {
                Vec::new()
            } else {
                (0..n_models).map(|_| LatencySketch::new()).collect()
            },
            rollups: self.cfg.rollup_window_ns.map(Rollups::new),
            live_buf: Vec::new(),
            serving_buf: Vec::new(),
            alloc_buf: Allocation::default(),
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

        // The event loop. Under contention, `EV_FREE`/`EV_START`
        // payloads carry `gen · n_npus + npu`; pops whose generation no
        // longer matches the in-flight dispatch were superseded by a
        // reallocation and are discarded *before* the makespan update.
        while let Some((now, kind, payload)) = sim.events.pop() {
            if contended && kind == EV_FREE {
                let n = (payload % n_npus as u64) as usize;
                let gen = payload / n_npus as u64;
                let live =
                    sim.flight.active[n] && sim.flight.started[n] && sim.flight.gen[n] == gen;
                if !live {
                    continue; // stale: a reallocation moved this completion
                }
                sim.makespan_ns = sim.makespan_ns.max(now);
                sim.complete(n, now, sink);
                sim.idle[n] = true;
                sim.try_dispatch(n, now, sched, sink);
                continue;
            }
            if kind == EV_START {
                let n = (payload % n_npus as u64) as usize;
                let gen = payload / n_npus as u64;
                let live =
                    sim.flight.active[n] && !sim.flight.started[n] && sim.flight.gen[n] == gen;
                if live {
                    sim.makespan_ns = sim.makespan_ns.max(now);
                    sim.start_service(n, now, sink);
                }
                continue;
            }
            sim.makespan_ns = sim.makespan_ns.max(now);
            match kind {
                EV_ARRIVAL => {
                    let req = sim.take_arrival(payload, now);
                    if let Some(roll) = &mut sim.rollups {
                        roll.on_arrival(now);
                    }
                    spans::arrival(sink, now, req.id, catalog.name(req.model));
                    if sched.pending() >= self.cfg.queue_capacity {
                        sim.dropped += 1;
                        if let Some(roll) = &mut sim.rollups {
                            roll.on_dropped(now);
                        }
                        spans::drop_marker(sink, now, req.id, catalog.name(req.model));
                        sim.closed_loop_refill(now);
                        continue;
                    }
                    {
                        let view = FleetView {
                            service_ns: &sim.service_ns,
                            seen: &sim.seen,
                            max_batch: self.cfg.max_batch,
                            batch_window_ns: self.cfg.batch_window_ns,
                        };
                        sched.enqueue(req, &view);
                    }
                    sim.depth += 1;
                    sim.sample_depth(now);
                    spans::queue_depth(sink, now, sim.depth);
                    for n in 0..n_npus {
                        if sim.idle[n] {
                            sim.try_dispatch(n, now, sched, sink);
                        }
                    }
                }
                EV_FREE => {
                    sim.idle[payload as usize] = true;
                    sim.try_dispatch(payload as usize, now, sched, sink);
                }
                EV_POKE => {
                    if sim.idle[payload as usize] {
                        sim.try_dispatch(payload as usize, now, sched, sink);
                    }
                }
                _ => unreachable!("unknown event kind"),
            }
        }

        debug_assert_eq!(
            sim.next_spawn, spec.requests,
            "every request must be issued"
        );
        debug_assert_eq!(
            sim.completed + sim.dropped + sim.timed_out,
            spec.requests as u64,
            "every request must be accounted for"
        );

        // Roll up. With records retained the distributions are computed
        // from the exact values through the one shared percentile
        // implementation (byte-identical to the record-retaining
        // engine); without, they are read off the streaming sketches.
        let mut records = sim.records;
        let (latency, queue, mem_stall, per_model) = if retain {
            records.sort_by_key(|r| r.id);
            let mut latencies: Vec<u64> = records.iter().map(|r| r.latency_ns()).collect();
            latencies.sort_unstable();
            let mut queues: Vec<u64> = records.iter().map(|r| r.queue_ns).collect();
            queues.sort_unstable();
            let mut stalls: Vec<u64> = records.iter().map(|r| r.mem_stall_ns).collect();
            stalls.sort_unstable();
            let per_model: Vec<ModelStats> = (0..n_models)
                .filter_map(|m| {
                    let mut lat: Vec<u64> = records
                        .iter()
                        .filter(|r| r.model == m)
                        .map(|r| r.latency_ns())
                        .collect();
                    if lat.is_empty() {
                        return None;
                    }
                    lat.sort_unstable();
                    Some(ModelStats {
                        model: m,
                        name: catalog.name(m).to_string(),
                        latency: LatencyStats::from_sorted(&lat),
                    })
                })
                .collect();
            (
                LatencyStats::from_sorted(&latencies),
                LatencyStats::from_sorted(&queues),
                LatencyStats::from_sorted(&stalls),
                per_model,
            )
        } else {
            let per_model: Vec<ModelStats> = sim
                .model_sketches
                .iter()
                .enumerate()
                .filter(|(_, s)| s.count() > 0)
                .map(|(m, s)| ModelStats {
                    model: m,
                    name: catalog.name(m).to_string(),
                    latency: LatencyStats::from_sketch(s),
                })
                .collect();
            (
                LatencyStats::from_sketch(&sim.lat_sketch),
                LatencyStats::from_sketch(&sim.queue_sketch),
                LatencyStats::from_sketch(&sim.stall_sketch),
                per_model,
            )
        };
        let mut stats = ExecStats::default();
        for (&head, b) in group_heads.iter().zip(&before) {
            stats.merge(&self.npus[head].stats().delta(b));
        }
        stats.wall_s = t0.elapsed().as_secs_f64();

        FleetReport {
            policy: sched.name().to_string(),
            fleet_size: n_npus,
            offered: spec.requests as u64,
            completed: sim.completed,
            dropped: sim.dropped,
            timed_out: sim.timed_out,
            makespan_ns: sim.makespan_ns,
            latency,
            queue,
            hbm_gbps: sim.mem.budget_gbps(),
            mem_stall,
            peak_queue_depth: sim.peak_depth,
            queue_depth_samples: sim.depth_samples,
            rollup_window_ns: self.cfg.rollup_window_ns,
            rollups: sim.rollups.map(Rollups::finish).unwrap_or_default(),
            per_npu: sim.usage,
            per_model,
            records,
            llm: None,
            stats,
        }
    }
}
