//! The LLM serving engine: an event-driven simulation of autoregressive
//! decode over a fleet of simulated NPUs, with iteration-level
//! continuous batching and block-boundary preemption.
//!
//! Serving proceeds in **iterations** (one per batch per step): each
//! iteration runs the joiners' prompt prefills plus one decode step for
//! every running member, and every member emits exactly one token when
//! it ends. Between iterations the scheduler may retire finished
//! requests, checkpoint batch-class members at KV block boundaries to
//! make room for latency-critical arrivals, and admit new members —
//! requests join and leave a *running* batch, which is what
//! distinguishes continuous batching from the static baseline that
//! drains each batch fully before forming the next.
//!
//! Costs come from the [`DecodeModel`]'s cycle-oracle tables, batch
//! scaling reuses the fleet's sub-linear batch-service model
//! ([`FleetConfig::batch_marginal`]), and when a shared HBM budget is
//! configured each iteration's DRAM footprint (weights + the growing KV
//! pages) becomes a bandwidth demand through the same
//! [`MemorySystem`] max-min fair allocator the whole-graph engine uses
//! — completions are generation-stamped and rescheduled whenever the
//! set of serving NPUs changes. Per-request accounting keeps the fleet
//! invariant exact: `latency == queue + warmup + service + mem_stall`
//! for every completed request (prefill and KV re-warm charges count as
//! warm-up; the decode share of each iteration counts as service).

use crate::engine::FleetConfig;
use crate::events::EventQueue;
use crate::llm::model::DecodeModel;
use crate::llm::workload::LlmRequest;
use crate::memory::{eta_ns, Allocation, BandwidthDemand, MemorySystem};
use crate::report::{
    FleetReport, LatencyStats, LlmRecord, LlmStats, ModelStats, NpuUsage, RequestRecord,
};
use crate::stats::LatencySketch;
use std::collections::VecDeque;
use std::mem;
use tandem_npu::ExecStats;
use tandem_trace::{fleet as spans, NullSink, TraceSink};

/// The batching discipline of an LLM serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlmMode {
    /// Static batching baseline: a batch forms from the waiting queue
    /// (filling up to [`FleetConfig::max_batch`] or out-waiting
    /// [`FleetConfig::batch_window_ns`]), then runs to the *last*
    /// member's completion before the next batch may form. Decode steps
    /// stay scaled by the formed batch size even as members finish —
    /// the padding inefficiency continuous batching removes.
    Static,
    /// Iteration-level continuous batching (Orca-style): requests join
    /// and leave the running batch between decode steps;
    /// latency-critical arrivals get admission priority but never
    /// displace running members.
    Continuous,
    /// Continuous batching plus block-boundary preemption: when
    /// latency-critical requests are waiting and the batch is full,
    /// batch-class members sitting on a KV block boundary are
    /// checkpointed (their KV pages persist; decoded tokens are never
    /// lost) and later resumed on their home NPU for a per-block
    /// re-warm charge.
    Preemptive,
}

impl LlmMode {
    /// Every mode, in baseline-first order.
    pub const ALL: [LlmMode; 3] = [LlmMode::Static, LlmMode::Continuous, LlmMode::Preemptive];

    /// Policy name as reported in [`FleetReport::policy`].
    pub fn name(self) -> &'static str {
        match self {
            LlmMode::Static => "llm_static",
            LlmMode::Continuous => "llm_continuous",
            LlmMode::Preemptive => "llm_preempt",
        }
    }
}

/// Configuration of an LLM serving run. The embedded [`FleetConfig`]
/// supplies the fleet members and the shared serving knobs (`max_batch`,
/// `batch_window_ns`, `batch_marginal`, `bw_gbps`/`hbm_gbps`,
/// `retain_records`); its queue bound, deadline, per-node warm-up, and
/// rollup knobs are not consulted — LLM admission is unbounded and
/// warm-up here means prefill/re-warm, not compile.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmConfig {
    /// Fleet members and shared serving knobs.
    pub fleet: FleetConfig,
    /// Batching discipline.
    pub mode: LlmMode,
    /// KV re-warm charge per persisted block when a preempted request
    /// resumes (pipeline refill + re-streaming the checkpointed pages).
    pub rewarm_ns_per_block: u64,
}

impl LlmConfig {
    /// `fleet` under `mode` with the default 10 µs/block re-warm.
    pub fn new(fleet: FleetConfig, mode: LlmMode) -> Self {
        LlmConfig {
            fleet,
            mode,
            rewarm_ns_per_block: 10_000,
        }
    }
}

/// Event kinds, ordered within one timestamp by issue sequence.
const EV_ARRIVAL: u8 = 0;
/// An iteration boundary on one NPU. Generation-stamped
/// (`gen · n_npus + npu`): contention reallocations supersede the
/// scheduled boundary, and stale pops are discarded.
const EV_STEP: u8 = 1;
/// Static-mode batch-window expiry poke.
const EV_POKE: u8 = 2;

/// One request running in a batch.
#[derive(Debug, Clone, Copy)]
struct Member {
    /// Index into the request slice.
    idx: u32,
    /// Output tokens emitted so far.
    tokens: u32,
    /// Whether the prompt pass has run (the first emitted token comes
    /// out of it).
    prefilled: bool,
    /// KV blocks to re-warm in the next iteration (set on resume,
    /// cleared once charged).
    rewarm_blocks: u32,
}

impl Member {
    fn fresh(idx: u32) -> Self {
        Member {
            idx,
            tokens: 0,
            prefilled: false,
            rewarm_blocks: 0,
        }
    }
}

/// Per-NPU serving lane: the running batch plus the in-flight iteration.
#[derive(Debug, Default)]
struct Lane {
    members: Vec<Member>,
    /// Per-member warm-up charge of the current iteration (own solo
    /// prefill + own re-warm), parallel to `members`.
    warm_charge: Vec<u64>,
    /// Preempted requests parked on their home NPU (KV locality: the
    /// persisted pages live in this member's DRAM).
    paused: VecDeque<Member>,
    busy: bool,
    /// Static mode: the formed batch size decode steps stay scaled by.
    static_k: usize,
    /// A batch-window poke is already in the heap.
    poke_armed: bool,
    // --- current iteration ---
    start_ns: u64,
    /// Nominal (uncontended) iteration length.
    nominal_ns: u64,
    prefills: u64,
    decodes: u64,
    max_ctx: u64,
    /// Generation stamped into the scheduled `EV_STEP`.
    gen: u64,
    /// Progress through the nominal iteration, in nominal nanoseconds.
    progress: f64,
    accrued_ns: u64,
    rate: f64,
    eta_ns: u64,
    demand: BandwidthDemand,
}

/// Per-request running accounts (indexed by request).
#[derive(Debug, Clone, Copy)]
struct Acct {
    /// When the request last became waiting (arrival or preemption).
    wait_since: u64,
    queue_ns: u64,
    warmup_ns: u64,
    service_ns: u64,
    stall_ns: u64,
    first_token_ns: u64,
    preemptions: u32,
}

impl Default for Acct {
    fn default() -> Self {
        Acct {
            wait_since: 0,
            queue_ns: 0,
            warmup_ns: 0,
            service_ns: 0,
            stall_ns: 0,
            first_token_ns: u64::MAX,
            preemptions: 0,
        }
    }
}

/// An LLM-serving fleet: a configuration bound to prebuilt
/// [`DecodeModel`] tables (build them once, serve many runs — the sweep
/// shares one table set across every cell).
#[derive(Debug)]
pub struct LlmFleet<'a> {
    cfg: LlmConfig,
    model: &'a DecodeModel,
}

struct Sim<'a> {
    cfg: &'a LlmConfig,
    model: &'a DecodeModel,
    reqs: &'a [LlmRequest],
    /// Per-class display names (`…:interactive`, `…:batch`).
    class_names: [String; 2],
    n_npus: usize,
    events: EventQueue,
    lanes: Vec<Lane>,
    acct: Vec<Acct>,
    /// Latency-critical waiting queue (continuous modes only).
    wait_lat: VecDeque<u32>,
    /// Throughput-class waiting queue (every arrival in static mode).
    wait_batch: VecDeque<u32>,
    mem: MemorySystem,
    gen: u64,
    usage: Vec<NpuUsage>,
    /// Waiting requests (fresh + paused).
    depth: u64,
    peak_depth: u64,
    depth_samples: Vec<(u64, u64)>,
    makespan_ns: u64,
    arrived: u64,
    completed: u64,
    retain: bool,
    records: Vec<RequestRecord>,
    llm: LlmStats,
    ttfts: Vec<u64>,
    tpots: Vec<u64>,
    lat_sketch: LatencySketch,
    queue_sketch: LatencySketch,
    stall_sketch: LatencySketch,
    ttft_sketch: LatencySketch,
    tpot_sketch: LatencySketch,
    class_sketches: [LatencySketch; 2],
    serving_buf: Vec<Option<BandwidthDemand>>,
    alloc_buf: Allocation,
}

impl Sim<'_> {
    fn sample_depth(&mut self, at: u64) {
        self.peak_depth = self.peak_depth.max(self.depth);
        if self.retain && self.depth_samples.last().map(|&(t, d)| (t, d)) != Some((at, self.depth))
        {
            self.depth_samples.push((at, self.depth));
        }
    }

    /// Books the queueing interval that ends with this admission.
    fn note_join(&mut self, idx: u32, now: u64) {
        let a = &mut self.acct[idx as usize];
        a.queue_ns += now - a.wait_since;
    }

    fn on_arrival(&mut self, idx: u32, now: u64, sink: &mut dyn TraceSink) {
        self.arrived += 1;
        let r = self.reqs[idx as usize];
        self.acct[idx as usize].wait_since = now;
        let class = usize::from(!r.latency_class);
        spans::arrival(sink, now, r.id, &self.class_names[class]);
        match self.cfg.mode {
            // Static batching has one FIFO; class is accounting-only.
            LlmMode::Static => self.wait_batch.push_back(idx),
            _ if r.latency_class => self.wait_lat.push_back(idx),
            _ => self.wait_batch.push_back(idx),
        }
        self.depth += 1;
        self.sample_depth(now);
        spans::queue_depth(sink, now, self.depth);
        for n in 0..self.n_npus {
            if !self.lanes[n].busy && self.lanes[n].members.is_empty() {
                match self.cfg.mode {
                    LlmMode::Static => self.try_start_static(n, now, sink),
                    _ => {
                        if self.admit(n, now, sink) {
                            self.begin_iteration(n, now, sink);
                        }
                    }
                }
            }
        }
    }

    /// Continuous-mode admission: fills lane `n` up to `max_batch` from
    /// (in priority order) the latency-critical queue, the lane's own
    /// paused set, then the throughput queue. Returns whether anything
    /// joined.
    fn admit(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) -> bool {
        let mut any = false;
        while self.lanes[n].members.len() < self.cfg.fleet.max_batch {
            let member = if let Some(idx) = self.wait_lat.pop_front() {
                Member::fresh(idx)
            } else if let Some(mut m) = self.lanes[n].paused.pop_front() {
                let r = self.reqs[m.idx as usize];
                let cache = r.prompt_tokens + m.tokens as usize;
                m.rewarm_blocks = (cache / self.model.block_tokens()).max(1) as u32;
                self.llm.resumes += 1;
                spans::resume_marker(sink, n as u16, now, r.id, m.rewarm_blocks as u64);
                m
            } else if let Some(idx) = self.wait_batch.pop_front() {
                Member::fresh(idx)
            } else {
                break;
            };
            self.note_join(member.idx, now);
            self.lanes[n].members.push(member);
            self.depth -= 1;
            any = true;
        }
        if any {
            self.sample_depth(now);
            spans::queue_depth(sink, now, self.depth);
        }
        any
    }

    /// Static-mode batch formation: start only when the queue can fill
    /// the batch or the head has out-waited the window.
    fn try_start_static(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        if self.lanes[n].busy || !self.lanes[n].members.is_empty() {
            return;
        }
        let qlen = self.wait_batch.len();
        if qlen == 0 {
            return;
        }
        let max_batch = self.cfg.fleet.max_batch;
        let take = if qlen >= max_batch {
            max_batch
        } else {
            let head = self.reqs[self.wait_batch[0] as usize].arrival_ns;
            let deadline = head + self.cfg.fleet.batch_window_ns;
            if now >= deadline {
                qlen
            } else {
                if !self.lanes[n].poke_armed {
                    self.lanes[n].poke_armed = true;
                    self.events.push(deadline.max(now + 1), EV_POKE, n as u64);
                }
                return;
            }
        };
        for _ in 0..take {
            let idx = self.wait_batch.pop_front().expect("sized above");
            self.note_join(idx, now);
            self.lanes[n].members.push(Member::fresh(idx));
            self.depth -= 1;
        }
        self.lanes[n].static_k = take;
        self.sample_depth(now);
        spans::queue_depth(sink, now, self.depth);
        self.begin_iteration(n, now, sink);
    }

    /// Prices and launches one iteration on lane `n`: joiners' prefills
    /// (batch-scaled among themselves) + one batch-scaled decode step +
    /// any resume re-warms; charges the per-NPU usage and, under
    /// contention, registers the iteration's bandwidth demand.
    fn begin_iteration(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        let marginal = self.cfg.fleet.batch_marginal;
        let mut members = mem::take(&mut self.lanes[n].members);
        let mut warm = mem::take(&mut self.lanes[n].warm_charge);
        warm.clear();
        let (mut k_p, mut k_d) = (0u64, 0u64);
        let (mut prefill_max, mut decode_max) = (0u64, 0u64);
        let mut rewarm_total = 0u64;
        let mut bytes = 0u64;
        let mut max_ctx = 0u64;
        for m in &mut members {
            let r = &self.reqs[m.idx as usize];
            let cache = r.prompt_tokens + m.tokens as usize;
            max_ctx = max_ctx.max(cache as u64);
            let mut w = 0u64;
            if m.prefilled {
                let s = self.model.step_ns(n, cache);
                decode_max = decode_max.max(s);
                k_d += 1;
                bytes += self.model.step_bytes(n, cache);
            } else {
                let p = self.model.prefill_ns(n, r.prompt_tokens);
                prefill_max = prefill_max.max(p);
                k_p += 1;
                bytes += self.model.prefill_bytes(n, r.prompt_tokens);
                w += p;
            }
            if m.rewarm_blocks > 0 {
                let rw = m.rewarm_blocks as u64 * self.cfg.rewarm_ns_per_block;
                rewarm_total += rw;
                w += rw;
                m.rewarm_blocks = 0; // charged once, here
            }
            warm.push(w);
        }
        let scale = |solo: u64, k: u64| {
            if solo == 0 || k == 0 {
                0
            } else {
                solo + ((k - 1) as f64 * marginal * solo as f64).round() as u64
            }
        };
        // Static batching pays for the formed batch size even after
        // members finished — the padding cost continuous batching avoids.
        let k_decode = match self.cfg.mode {
            LlmMode::Static => (self.lanes[n].static_k as u64).max(k_d),
            _ => k_d,
        };
        let decode_part = scale(decode_max, k_decode);
        let prefill_part = scale(prefill_max, k_p);
        let nominal = (prefill_part + decode_part + rewarm_total).max(1);
        let batch = members.len();
        let lane = &mut self.lanes[n];
        lane.members = members;
        lane.warm_charge = warm;
        lane.busy = true;
        lane.start_ns = now;
        lane.nominal_ns = nominal;
        lane.prefills = k_p;
        lane.decodes = k_d;
        lane.max_ctx = max_ctx;
        lane.progress = 0.0;
        lane.accrued_ns = now;
        lane.rate = 1.0;
        lane.eta_ns = u64::MAX;
        let contended = self.mem.enabled();
        let u = &mut self.usage[n];
        u.batches += 1;
        u.warmups += k_p;
        u.warmup_ns += prefill_part + rewarm_total;
        u.service_ns += decode_part;
        u.dram_bytes += if contended { bytes } else { 0 };
        self.llm.iterations += 1;
        self.llm.prefills += k_p;
        self.llm.max_batch_seen = self.llm.max_batch_seen.max(batch as u64);
        if contended {
            self.lanes[n].demand = self.mem.demand(n, bytes, nominal);
            self.reallocate(now, sink);
        } else {
            self.gen += 1;
            self.lanes[n].gen = self.gen;
            self.lanes[n].eta_ns = now + nominal;
            self.events.push(
                now + nominal,
                EV_STEP,
                self.gen * self.n_npus as u64 + n as u64,
            );
        }
    }

    /// Recomputes the fair-share allocation and every busy lane's
    /// iteration-boundary time — the same piecewise-constant-rate
    /// machinery as the whole-graph engine, with the iteration as the
    /// reschedulable unit.
    fn reallocate(&mut self, now: u64, sink: &mut dyn TraceSink) {
        let n_npus = self.n_npus;
        for i in 0..n_npus {
            if self.lanes[i].busy {
                let l = &mut self.lanes[i];
                l.progress += (now - l.accrued_ns) as f64 * l.rate;
                l.accrued_ns = now;
            }
        }
        let mut serving = mem::take(&mut self.serving_buf);
        serving.clear();
        serving.extend((0..n_npus).map(|i| self.lanes[i].busy.then(|| self.lanes[i].demand)));
        let mut alloc = mem::take(&mut self.alloc_buf);
        self.mem.allocate_into(&serving, &mut alloc);
        for i in 0..n_npus {
            if !self.lanes[i].busy {
                continue;
            }
            self.lanes[i].rate = alloc.rates[i];
            let remaining = self.lanes[i].nominal_ns as f64 - self.lanes[i].progress;
            let eta = eta_ns(now, remaining, self.lanes[i].rate);
            // Physics floor: contention can only push an iteration
            // boundary past its nominal end, never before it.
            let eta = eta.max(self.lanes[i].start_ns + self.lanes[i].nominal_ns);
            if self.lanes[i].eta_ns == eta {
                continue; // the already-scheduled event still stands
            }
            self.lanes[i].eta_ns = eta;
            self.gen += 1;
            self.lanes[i].gen = self.gen;
            self.events
                .push(eta, EV_STEP, self.gen * n_npus as u64 + i as u64);
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

    /// Ends lane `n`'s iteration at `now`: accounts every member's
    /// exact charges, emits one token each, retires finished requests,
    /// preempts/admits per the mode, and immediately launches the next
    /// iteration if members remain.
    fn end_iteration(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        let (start, nominal, k_p, k_d, max_ctx) = {
            let l = &self.lanes[n];
            (l.start_ns, l.nominal_ns, l.prefills, l.decodes, l.max_ctx)
        };
        let stall = now - (start + nominal);
        self.usage[n].mem_stall_ns += stall;
        let batch = self.lanes[n].members.len();
        spans::llm_step_span(
            sink,
            n as u16,
            self.model.name(),
            start,
            now - start,
            batch as u64,
            k_p,
            k_d,
            max_ctx,
        );
        let mut members = mem::take(&mut self.lanes[n].members);
        let warm = mem::take(&mut self.lanes[n].warm_charge);
        debug_assert_eq!(members.len(), warm.len());
        for (m, &w) in members.iter_mut().zip(&warm) {
            let a = &mut self.acct[m.idx as usize];
            a.warmup_ns += w;
            a.service_ns += nominal - w;
            a.stall_ns += stall;
            if m.prefilled {
                m.tokens += 1;
            } else {
                // The prompt pass yields the first generated token.
                m.prefilled = true;
                m.tokens = 1;
                a.first_token_ns = now;
            }
            self.llm.tokens_out += 1;
        }
        spans::tokens_out(sink, now, self.llm.tokens_out);
        // Retire finished members in place (batch recorded pre-retire:
        // the iteration they completed in ran at that size).
        let mut w = 0;
        for i in 0..members.len() {
            let m = members[i];
            if (m.tokens as usize) >= self.reqs[m.idx as usize].output_tokens {
                self.finish_member(m, n, batch, now);
            } else {
                members[w] = m;
                w += 1;
            }
        }
        members.truncate(w);
        self.lanes[n].members = members;
        self.lanes[n].warm_charge = warm;
        self.lanes[n].busy = false;
        self.makespan_ns = self.makespan_ns.max(now);
        match self.cfg.mode {
            LlmMode::Static => {
                // No joins mid-flight: drain fully, then form anew.
                if self.lanes[n].members.is_empty() {
                    if self.mem.enabled() {
                        self.reallocate(now, sink);
                    }
                    self.try_start_static(n, now, sink);
                } else {
                    self.begin_iteration(n, now, sink);
                }
            }
            mode => {
                if mode == LlmMode::Preemptive {
                    self.preempt(n, now, sink);
                }
                self.admit(n, now, sink);
                if self.lanes[n].members.is_empty() {
                    if self.mem.enabled() {
                        self.reallocate(now, sink);
                    }
                } else {
                    self.begin_iteration(n, now, sink);
                }
            }
        }
        // Membership conservation at every step boundary: every issued
        // request is exactly one of completed / waiting (fresh or
        // paused) / running.
        debug_assert_eq!(
            self.arrived,
            self.completed
                + self.depth
                + self
                    .lanes
                    .iter()
                    .map(|l| l.members.len() as u64)
                    .sum::<u64>()
        );
    }

    /// Checkpoints batch-class members at KV block boundaries when
    /// latency-critical requests are waiting and the batch has no room.
    /// Victims keep every decoded token; largest remaining budget goes
    /// first (it has the most decode left to amortize the re-warm over).
    fn preempt(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        if self.wait_lat.is_empty() {
            return;
        }
        let block = self.model.block_tokens();
        let free = self.cfg.fleet.max_batch - self.lanes[n].members.len();
        let mut need = self.wait_lat.len().saturating_sub(free);
        let mut any = false;
        while need > 0 {
            let mut best: Option<(usize, usize)> = None;
            for (i, m) in self.lanes[n].members.iter().enumerate() {
                let r = &self.reqs[m.idx as usize];
                if r.latency_class || !m.prefilled {
                    continue;
                }
                if !(r.prompt_tokens + m.tokens as usize).is_multiple_of(block) {
                    continue; // checkpoints land on block boundaries only
                }
                let remaining = r.output_tokens - m.tokens as usize;
                let better = match best {
                    None => true,
                    Some((_, br)) => remaining > br,
                };
                if better {
                    best = Some((i, remaining));
                }
            }
            let Some((i, _)) = best else { break };
            let m = self.lanes[n].members.remove(i);
            let r = self.reqs[m.idx as usize];
            let a = &mut self.acct[m.idx as usize];
            a.preemptions += 1;
            a.wait_since = now;
            self.llm.preemptions += 1;
            self.depth += 1;
            spans::preempt_marker(sink, n as u16, now, r.id, m.tokens as u64);
            self.lanes[n].paused.push_back(m);
            need -= 1;
            any = true;
        }
        if any {
            self.sample_depth(now);
            spans::queue_depth(sink, now, self.depth);
        }
    }

    /// Banks one completed request into the records/sketches and the
    /// LLM accounting.
    fn finish_member(&mut self, m: Member, n: usize, batch: usize, now: u64) {
        let r = self.reqs[m.idx as usize];
        let a = self.acct[m.idx as usize];
        let class = usize::from(!r.latency_class);
        let rec = RequestRecord {
            id: r.id,
            model: class,
            npu: n,
            batch,
            arrival_ns: r.arrival_ns,
            queue_ns: a.queue_ns,
            warmup_ns: a.warmup_ns,
            service_ns: a.service_ns,
            mem_stall_ns: a.stall_ns,
            completion_ns: now,
        };
        // The fleet-wide contract: latency decomposes exactly.
        debug_assert_eq!(
            rec.latency_ns(),
            rec.queue_ns + rec.warmup_ns + rec.service_ns + rec.mem_stall_ns
        );
        debug_assert_ne!(a.first_token_ns, u64::MAX);
        let ttft = a.first_token_ns - r.arrival_ns;
        self.completed += 1;
        self.usage[n].served += 1;
        if self.retain {
            self.records.push(rec);
            self.ttfts.push(ttft);
            if m.tokens >= 2 {
                self.tpots
                    .push((now - a.first_token_ns) / (m.tokens as u64 - 1));
            }
            self.llm.per_request.push(LlmRecord {
                id: r.id,
                ttft_ns: ttft,
                tokens: m.tokens,
                preemptions: a.preemptions,
                latency_class: r.latency_class,
            });
        } else {
            let lat = rec.latency_ns();
            self.lat_sketch.record(lat);
            self.queue_sketch.record(rec.queue_ns);
            self.stall_sketch.record(rec.mem_stall_ns);
            self.class_sketches[class].record(lat);
            self.ttft_sketch.record(ttft);
            if m.tokens >= 2 {
                self.tpot_sketch
                    .record((now - a.first_token_ns) / (m.tokens as u64 - 1));
            }
        }
    }
}

impl<'a> LlmFleet<'a> {
    /// Binds `cfg` to prebuilt decode tables. The tables must cover the
    /// fleet: one row per member, matching configurations.
    pub fn new(cfg: LlmConfig, model: &'a DecodeModel) -> Self {
        assert!(!cfg.fleet.npus.is_empty(), "a fleet needs at least one NPU");
        assert!(cfg.fleet.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            model.npu_cfgs().len() >= cfg.fleet.npus.len(),
            "decode tables cover fewer NPUs than the fleet has"
        );
        for (i, c) in cfg.fleet.npus.iter().enumerate() {
            assert!(
                model.npu_cfgs()[i] == *c,
                "decode table row {i} was built for a different NPU configuration"
            );
        }
        LlmFleet { cfg, model }
    }

    /// The configuration.
    pub fn config(&self) -> &LlmConfig {
        &self.cfg
    }

    /// Serves `requests` (ascending ids `0..n`, nondecreasing arrivals)
    /// to completion and reports. [`FleetReport::llm`] is `Some`;
    /// requests are never dropped or timed out (admission is unbounded).
    pub fn serve(&self, requests: &[LlmRequest]) -> FleetReport {
        self.serve_traced(requests, &mut NullSink)
    }

    /// [`LlmFleet::serve`], streaming Perfetto spans into `sink`: one
    /// iteration span per batch step on each NPU's lane (batch
    /// membership over time reads directly off the spans),
    /// preempt/resume markers, a cumulative token counter, and the HBM
    /// bandwidth series under contention.
    pub fn serve_traced(&self, requests: &[LlmRequest], sink: &mut dyn TraceSink) -> FleetReport {
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(r.id, i as u64, "request ids must be dense and ascending");
            assert!(r.output_tokens >= 1, "requests must want at least 1 token");
            assert!(
                i == 0 || requests[i - 1].arrival_ns <= r.arrival_ns,
                "arrivals must be nondecreasing"
            );
        }
        let n_npus = self.cfg.fleet.npus.len();
        let retain = self.cfg.fleet.retain_records;
        let mut sim = Sim {
            cfg: &self.cfg,
            model: self.model,
            reqs: requests,
            class_names: [
                format!("{}:interactive", self.model.name()),
                format!("{}:batch", self.model.name()),
            ],
            n_npus,
            events: EventQueue::with_reserved_seqs(requests.len() as u64),
            lanes: (0..n_npus).map(|_| Lane::default()).collect(),
            acct: vec![Acct::default(); requests.len()],
            wait_lat: VecDeque::new(),
            wait_batch: VecDeque::new(),
            mem: MemorySystem::new(&self.cfg.fleet),
            gen: 0,
            usage: vec![NpuUsage::default(); n_npus],
            depth: 0,
            peak_depth: 0,
            depth_samples: Vec::new(),
            makespan_ns: 0,
            arrived: 0,
            completed: 0,
            retain,
            records: Vec::new(),
            llm: LlmStats::default(),
            ttfts: Vec::new(),
            tpots: Vec::new(),
            lat_sketch: LatencySketch::new(),
            queue_sketch: LatencySketch::new(),
            stall_sketch: LatencySketch::new(),
            ttft_sketch: LatencySketch::new(),
            tpot_sketch: LatencySketch::new(),
            class_sketches: [LatencySketch::new(), LatencySketch::new()],
            serving_buf: Vec::new(),
            alloc_buf: Allocation::default(),
        };
        // Arrivals carry reserved sequences 1..=n (issue order), so
        // event order matches a heap seeded with the whole trace.
        for r in requests {
            sim.events
                .push_with_seq(r.arrival_ns, r.id + 1, EV_ARRIVAL, r.id);
        }
        while let Some((now, kind, payload)) = sim.events.pop() {
            match kind {
                EV_ARRIVAL => {
                    sim.makespan_ns = sim.makespan_ns.max(now);
                    sim.on_arrival(payload as u32, now, sink);
                }
                EV_STEP => {
                    let n = (payload % n_npus as u64) as usize;
                    let gen = payload / n_npus as u64;
                    if sim.lanes[n].busy && sim.lanes[n].gen == gen {
                        sim.makespan_ns = sim.makespan_ns.max(now);
                        sim.end_iteration(n, now, sink);
                    }
                }
                EV_POKE => {
                    let n = payload as usize;
                    sim.lanes[n].poke_armed = false;
                    if !sim.lanes[n].busy && sim.lanes[n].members.is_empty() {
                        sim.try_start_static(n, now, sink);
                    }
                }
                _ => unreachable!("unknown event kind"),
            }
        }
        assert_eq!(
            sim.completed,
            requests.len() as u64,
            "every LLM request must complete"
        );

        let mut records = sim.records;
        let mut llm = sim.llm;
        let (latency, queue, mem_stall, per_model) = if retain {
            records.sort_by_key(|r| r.id);
            llm.per_request.sort_by_key(|r| r.id);
            let mut latencies: Vec<u64> = records.iter().map(|r| r.latency_ns()).collect();
            latencies.sort_unstable();
            let mut queues: Vec<u64> = records.iter().map(|r| r.queue_ns).collect();
            queues.sort_unstable();
            let mut stalls: Vec<u64> = records.iter().map(|r| r.mem_stall_ns).collect();
            stalls.sort_unstable();
            sim.ttfts.sort_unstable();
            sim.tpots.sort_unstable();
            llm.ttft = LatencyStats::from_sorted(&sim.ttfts);
            llm.tpot = LatencyStats::from_sorted(&sim.tpots);
            let per_model: Vec<ModelStats> = (0..2)
                .filter_map(|class| {
                    let mut lat: Vec<u64> = records
                        .iter()
                        .filter(|r| r.model == class)
                        .map(|r| r.latency_ns())
                        .collect();
                    if lat.is_empty() {
                        return None;
                    }
                    lat.sort_unstable();
                    Some(ModelStats {
                        model: class,
                        name: sim.class_names[class].clone(),
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
            llm.ttft = LatencyStats::from_sketch(&sim.ttft_sketch);
            llm.tpot = LatencyStats::from_sketch(&sim.tpot_sketch);
            let per_model: Vec<ModelStats> = sim
                .class_sketches
                .iter()
                .enumerate()
                .filter(|(_, s)| s.count() > 0)
                .map(|(class, s)| ModelStats {
                    model: class,
                    name: sim.class_names[class].clone(),
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
        FleetReport {
            policy: self.cfg.mode.name().to_string(),
            fleet_size: n_npus,
            offered: requests.len() as u64,
            completed: sim.completed,
            dropped: 0,
            timed_out: 0,
            makespan_ns: sim.makespan_ns,
            latency,
            queue,
            hbm_gbps: sim.mem.budget_gbps(),
            mem_stall,
            peak_queue_depth: sim.peak_depth,
            queue_depth_samples: sim.depth_samples,
            rollup_window_ns: None,
            rollups: Vec::new(),
            per_npu: sim.usage,
            per_model,
            records,
            llm: Some(llm),
            // The cycle-model work was paid (and is accounted) at
            // DecodeModel::build time; serving replays the tables.
            stats: ExecStats::default(),
        }
    }
}
