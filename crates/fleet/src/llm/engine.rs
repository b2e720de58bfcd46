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
//! Costs come from the [`DecodeModel`]'s cycle-oracle tables and batch
//! scaling uses the fleet's sub-linear batch-service law
//! ([`FleetConfig::batch_marginal`]). Like the whole-graph engine, this
//! one is a policy over the shared serving core: each iteration runs on
//! its NPU's lane in [`crate::lanes::ServiceLanes`], which, when a
//! shared HBM budget is configured, turns the iteration's DRAM
//! footprint (weights + the growing KV pages) into a bandwidth demand
//! from iteration start (prefill included) and reschedules the
//! iteration boundary whenever the set of serving NPUs changes.
//! Completed requests go through the shared report builder
//! ([`crate::report::Tally`]), which keeps the fleet invariant exact:
//! `latency == queue + warmup + service + mem_stall` for every
//! completed request (prefill and KV re-warm charges count as warm-up;
//! the decode share of each iteration counts as service). TTFT and TPOT
//! accumulate next to it.

use crate::engine::FleetConfig;
use crate::events::EventQueue;
use crate::lanes::{batch_scaled, ServiceLanes};
use crate::llm::model::DecodeModel;
use crate::llm::workload::LlmRequest;
use crate::memory::{BandwidthDemand, MemorySystem};
use crate::report::{FleetReport, LlmRecord, LlmStats, RequestRecord, Tally};
use crate::stats::LatencyAccumulator;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::mem;
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
/// An iteration boundary on one NPU. Stamped (see
/// [`ServiceLanes::live`]): contention reallocations supersede the
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

/// Per-NPU batch state: the running members plus what the in-flight
/// iteration ran. Its timing lives in the NPU's service lane.
#[derive(Debug, Default)]
struct Batch {
    members: Vec<Member>,
    /// Per-member warm-up charge of the current iteration (own solo
    /// prefill + own re-warm), parallel to `members`.
    warm_charge: Vec<u64>,
    /// Preempted requests parked on their home NPU (KV locality: the
    /// persisted pages live in this member's DRAM).
    paused: VecDeque<Member>,
    /// Static mode: the formed batch size decode steps stay scaled by.
    static_k: usize,
    /// A batch-window poke is already in the heap.
    poke_armed: bool,
    // --- current iteration ---
    prefills: u64,
    decodes: u64,
    max_ctx: u64,
}

/// Per-request running accounts (indexed by request).
#[derive(Debug, Clone, Copy, Default)]
struct Acct {
    /// When the request last became waiting (arrival or preemption).
    wait_since: u64,
    queue_ns: u64,
    warmup_ns: u64,
    service_ns: u64,
    stall_ns: u64,
    /// When its first token came out of the prompt pass.
    first_token_ns: Option<u64>,
    preemptions: u32,
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
    events: EventQueue,
    /// Per-NPU iteration timing over the shared memory system.
    lanes: ServiceLanes,
    batches: Vec<Batch>,
    acct: Vec<Acct>,
    /// Latency-critical waiting queue (continuous modes only).
    wait_lat: VecDeque<u32>,
    /// Throughput-class waiting queue (every arrival in static mode).
    wait_batch: VecDeque<u32>,
    arrived: u64,
    /// Waiting requests (fresh + paused) are `tally.depth`; classes are
    /// its latency groups.
    tally: Tally,
    llm: LlmStats,
    ttft: LatencyAccumulator,
    tpot: LatencyAccumulator,
}

impl Sim<'_> {
    /// Whether lane `n` is between iterations with nobody running.
    fn vacant(&self, n: usize) -> bool {
        !self.lanes.serving(n) && self.batches[n].members.is_empty()
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
        self.tally.depth += 1;
        self.tally.sample_depth(now);
        spans::queue_depth(sink, now, self.tally.depth);
        for n in 0..self.batches.len() {
            if !self.vacant(n) {
                continue;
            }
            if self.cfg.mode == LlmMode::Static {
                self.try_start_static(n, now, sink);
            } else if self.admit(n, now, sink) {
                self.begin_iteration(n, now, sink);
            }
        }
    }

    /// Continuous-mode admission: fills lane `n` up to `max_batch` from
    /// (in priority order) the latency-critical queue, the lane's own
    /// paused set, then the throughput queue. Returns whether anything
    /// joined.
    fn admit(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) -> bool {
        let mut any = false;
        while self.batches[n].members.len() < self.cfg.fleet.max_batch {
            let member = if let Some(idx) = self.wait_lat.pop_front() {
                Member::fresh(idx)
            } else if let Some(mut m) = self.batches[n].paused.pop_front() {
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
            self.batches[n].members.push(member);
            self.tally.depth -= 1;
            any = true;
        }
        if any {
            self.tally.sample_depth(now);
            spans::queue_depth(sink, now, self.tally.depth);
        }
        any
    }

    /// Static-mode batch formation: start only when the queue can fill
    /// the batch or the head has out-waited the window.
    fn try_start_static(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        if !self.vacant(n) {
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
                if !self.batches[n].poke_armed {
                    self.batches[n].poke_armed = true;
                    self.events.push(deadline.max(now + 1), EV_POKE, n as u64);
                }
                return;
            }
        };
        for _ in 0..take {
            let idx = self.wait_batch.pop_front().expect("sized above");
            self.note_join(idx, now);
            self.batches[n].members.push(Member::fresh(idx));
            self.tally.depth -= 1;
        }
        self.batches[n].static_k = take;
        self.tally.sample_depth(now);
        spans::queue_depth(sink, now, self.tally.depth);
        self.begin_iteration(n, now, sink);
    }

    /// Prices and launches one iteration on lane `n`: joiners' prefills
    /// (batch-scaled among themselves) + one batch-scaled decode step +
    /// any resume re-warms; charges the per-NPU usage and, under
    /// contention, registers the iteration's bandwidth demand.
    fn begin_iteration(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        let mut members = mem::take(&mut self.batches[n].members);
        let mut warm = mem::take(&mut self.batches[n].warm_charge);
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
        // Static batching pays for the formed batch size even after
        // members finished — the padding cost continuous batching avoids.
        let k_decode = match self.cfg.mode {
            LlmMode::Static => (self.batches[n].static_k as u64).max(k_d),
            _ => k_d,
        };
        let marginal = self.cfg.fleet.batch_marginal;
        let decode_part = batch_scaled(decode_max, k_decode, marginal);
        let prefill_part = batch_scaled(prefill_max, k_p, marginal);
        let nominal = (prefill_part + decode_part + rewarm_total).max(1);
        let batch = members.len();
        let b = &mut self.batches[n];
        b.members = members;
        b.warm_charge = warm;
        b.prefills = k_p;
        b.decodes = k_d;
        b.max_ctx = max_ctx;
        let contended = self.lanes.mem().enabled();
        let u = &mut self.tally.usage[n];
        u.batches += 1;
        u.warmups += k_p;
        u.warmup_ns += prefill_part + rewarm_total;
        u.service_ns += decode_part;
        u.dram_bytes += if contended { bytes } else { 0 };
        self.llm.iterations += 1;
        self.llm.prefills += k_p;
        self.llm.max_batch_seen = self.llm.max_batch_seen.max(batch as u64);
        if contended {
            let demand = self.lanes.mem().demand(n, bytes, nominal);
            self.lanes.begin(n, now, nominal, demand);
            self.lanes.reallocate(now, EV_STEP, &mut self.events, sink);
        } else {
            self.lanes
                .begin(n, now, nominal, BandwidthDemand::default());
            self.lanes
                .schedule(n, now + nominal, EV_STEP, &mut self.events);
        }
    }

    /// Ends lane `n`'s iteration at `now`: accounts every member's
    /// exact charges, emits one token each, retires finished requests,
    /// preempts/admits per the mode, and immediately launches the next
    /// iteration if members remain.
    fn end_iteration(&mut self, n: usize, now: u64, sink: &mut dyn TraceSink) {
        let stall = self.lanes.end(n, now);
        let (start, nominal) = (self.lanes.start_ns(n), self.lanes.nominal_ns(n));
        let b = &self.batches[n];
        let (k_p, k_d, max_ctx, batch) = (b.prefills, b.decodes, b.max_ctx, b.members.len());
        self.tally.usage[n].mem_stall_ns += stall;
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
        let mut members = mem::take(&mut self.batches[n].members);
        let warm = mem::take(&mut self.batches[n].warm_charge);
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
                a.first_token_ns = Some(now);
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
        self.batches[n].members = members;
        self.batches[n].warm_charge = warm;
        // Continuous modes admit between iterations; static batching
        // has no joins mid-flight: it drains fully, then forms anew.
        let mode = self.cfg.mode;
        if mode == LlmMode::Preemptive {
            self.preempt(n, now, sink);
        }
        if mode != LlmMode::Static {
            self.admit(n, now, sink);
        }
        if !self.batches[n].members.is_empty() {
            self.begin_iteration(n, now, sink);
        } else {
            if self.lanes.mem().enabled() {
                self.lanes.reallocate(now, EV_STEP, &mut self.events, sink);
            }
            if mode == LlmMode::Static {
                self.try_start_static(n, now, sink);
            }
        }
        // Membership conservation at every step boundary: every issued
        // request is exactly one of completed / waiting (fresh or
        // paused) / running.
        debug_assert_eq!(
            self.arrived,
            self.tally.completed
                + self.tally.depth
                + self
                    .batches
                    .iter()
                    .map(|b| b.members.len() as u64)
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
        let free = self.cfg.fleet.max_batch - self.batches[n].members.len();
        let mut need = self.wait_lat.len().saturating_sub(free);
        let mut any = false;
        while need > 0 {
            // Batch-class, prefilled, on a block boundary (checkpoints
            // land there only); the first of the largest remaining
            // budgets wins.
            let reqs = self.reqs;
            let victim = self.batches[n]
                .members
                .iter()
                .enumerate()
                .filter(|(_, m)| {
                    let r = &reqs[m.idx as usize];
                    !r.latency_class
                        && m.prefilled
                        && (r.prompt_tokens + m.tokens as usize).is_multiple_of(block)
                })
                .min_by_key(|(_, m)| {
                    Reverse(reqs[m.idx as usize].output_tokens - m.tokens as usize)
                });
            let Some((i, _)) = victim else { break };
            let m = self.batches[n].members.remove(i);
            let r = self.reqs[m.idx as usize];
            let a = &mut self.acct[m.idx as usize];
            a.preemptions += 1;
            a.wait_since = now;
            self.llm.preemptions += 1;
            self.tally.depth += 1;
            spans::preempt_marker(sink, n as u16, now, r.id, m.tokens as u64);
            self.batches[n].paused.push_back(m);
            need -= 1;
            any = true;
        }
        if any {
            self.tally.sample_depth(now);
            spans::queue_depth(sink, now, self.tally.depth);
        }
    }

    /// Banks one completed request into the tally and the LLM
    /// accounting.
    fn finish_member(&mut self, m: Member, n: usize, batch: usize, now: u64) {
        let r = self.reqs[m.idx as usize];
        let a = self.acct[m.idx as usize];
        self.tally.record(RequestRecord {
            id: r.id,
            model: usize::from(!r.latency_class),
            npu: n,
            batch,
            arrival_ns: r.arrival_ns,
            queue_ns: a.queue_ns,
            warmup_ns: a.warmup_ns,
            service_ns: a.service_ns,
            mem_stall_ns: a.stall_ns,
            completion_ns: now,
        });
        let first = a
            .first_token_ns
            .expect("a finished request emitted a token");
        let ttft = first - r.arrival_ns;
        self.ttft.record(ttft);
        if m.tokens >= 2 {
            self.tpot.record((now - first) / (m.tokens as u64 - 1));
        }
        if self.tally.retain {
            self.llm.per_request.push(LlmRecord {
                id: r.id,
                ttft_ns: ttft,
                tokens: m.tokens,
                preemptions: a.preemptions,
                latency_class: r.latency_class,
            });
        }
    }
}

impl<'a> LlmFleet<'a> {
    /// Binds `cfg` to prebuilt decode tables. The tables must cover the
    /// fleet: one row per member, matching configurations.
    pub fn new(cfg: LlmConfig, model: &'a DecodeModel) -> Self {
        cfg.fleet.validate();
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
            events: EventQueue::with_reserved_seqs(requests.len() as u64),
            lanes: ServiceLanes::new(n_npus, MemorySystem::new(&self.cfg.fleet)),
            batches: (0..n_npus).map(|_| Batch::default()).collect(),
            acct: vec![Acct::default(); requests.len()],
            wait_lat: VecDeque::new(),
            wait_batch: VecDeque::new(),
            arrived: 0,
            tally: Tally::new(retain, n_npus, 2, None),
            llm: LlmStats::default(),
            ttft: LatencyAccumulator::new(retain),
            tpot: LatencyAccumulator::new(retain),
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
                    sim.tally.advance(now);
                    sim.on_arrival(payload as u32, now, sink);
                }
                EV_STEP => {
                    if let Some(n) = sim.lanes.live(payload) {
                        sim.tally.advance(now);
                        sim.end_iteration(n, now, sink);
                    }
                }
                EV_POKE => {
                    let n = payload as usize;
                    sim.batches[n].poke_armed = false;
                    if sim.vacant(n) {
                        sim.try_start_static(n, now, sink);
                    }
                }
                _ => unreachable!("unknown event kind"),
            }
        }
        assert_eq!(
            sim.tally.completed,
            requests.len() as u64,
            "every LLM request must complete"
        );
        let mut llm = sim.llm;
        llm.ttft = sim.ttft.finish();
        llm.tpot = sim.tpot.finish();
        llm.per_request.sort_by_key(|r| r.id);
        let hbm_gbps = sim.lanes.mem().budget_gbps();
        let names = sim.class_names;
        let mut report = sim.tally.finish(
            self.cfg.mode.name(),
            requests.len() as u64,
            hbm_gbps,
            |class| names[class].clone(),
        );
        report.llm = Some(llm);
        // The cycle-model work was paid (and is accounted) at
        // DecodeModel::build time; serving replays the tables, so
        // `stats` stays default.
        report
    }
}
