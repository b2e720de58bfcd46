//! Per-request records and the aggregate fleet report.

use crate::stats::{nearest_rank, LatencyAccumulator, LatencySketch, RollupWindow, Rollups};
use std::fmt::Write as _;
use tandem_npu::ExecStats;

/// The full accounting of one completed request. The engine maintains
/// the invariant that end-to-end latency decomposes **exactly**:
/// `latency_ns() == queue_ns + warmup_ns + service_ns + mem_stall_ns` —
/// asserted at completion time and again by the test suite
/// (`mem_stall_ns` is zero whenever the shared-HBM contention model is
/// off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Request id (issue order).
    pub id: u64,
    /// Catalog model id.
    pub model: usize,
    /// NPU that served it.
    pub npu: usize,
    /// Size of the dispatch batch it rode in (1 = solo).
    pub batch: usize,
    /// Arrival time.
    pub arrival_ns: u64,
    /// Time spent pending before dispatch.
    pub queue_ns: u64,
    /// Cold-compile warm-up charged to its dispatch (zero when the NPU
    /// had already seen the model).
    pub warmup_ns: u64,
    /// Service time of its (batch-scaled) dispatch, as it would have
    /// run with the shared HBM to itself.
    pub service_ns: u64,
    /// Extra time its dispatch spent stalled on the shared HBM because
    /// concurrent members' bandwidth demands exceeded the budget. Zero
    /// when [`crate::FleetConfig::hbm_gbps`] is unset (unlimited).
    pub mem_stall_ns: u64,
    /// Completion time.
    pub completion_ns: u64,
}

impl RequestRecord {
    /// End-to-end latency (completion − arrival).
    pub fn latency_ns(&self) -> u64 {
        self.completion_ns - self.arrival_ns
    }
}

/// Why a request never completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// Bounded admission queue was full on arrival (backpressure).
    Dropped {
        /// When it was turned away.
        at_ns: u64,
    },
    /// Waited in queue past the configured deadline; removed at
    /// dispatch time without being served.
    TimedOut {
        /// When the expiry was detected.
        at_ns: u64,
    },
}

/// Order statistics of a latency population, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Population size.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Median (nearest-rank).
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Maximum.
    pub max_ns: u64,
}

impl LatencyStats {
    /// Computes the stats from an **ascending-sorted** latency slice
    /// (empty slice ⇒ all zeros). Percentiles use the one shared
    /// nearest-rank implementation ([`nearest_rank`]):
    /// `p(q) = sorted[⌈q·n⌉ − 1]`.
    pub fn from_sorted(sorted_ns: &[u64]) -> Self {
        if sorted_ns.is_empty() {
            return Self::default();
        }
        debug_assert!(sorted_ns.windows(2).all(|w| w[0] <= w[1]));
        let n = sorted_ns.len();
        let sum: u128 = sorted_ns.iter().map(|&x| x as u128).sum();
        LatencyStats {
            count: n as u64,
            mean_ns: (sum / n as u128) as u64,
            p50_ns: nearest_rank(sorted_ns, 0.50),
            p95_ns: nearest_rank(sorted_ns, 0.95),
            p99_ns: nearest_rank(sorted_ns, 0.99),
            p999_ns: nearest_rank(sorted_ns, 0.999),
            max_ns: sorted_ns[n - 1],
        }
    }

    /// Reads the stats off a streaming [`LatencySketch`]: count, mean,
    /// and max are exact; percentiles carry the sketch's one-sub-bucket
    /// relative error bound (`1/32`).
    pub fn from_sketch(sketch: &LatencySketch) -> Self {
        LatencyStats {
            count: sketch.count(),
            mean_ns: sketch.mean(),
            p50_ns: sketch.quantile(0.50),
            p95_ns: sketch.quantile(0.95),
            p99_ns: sketch.quantile(0.99),
            p999_ns: sketch.quantile(0.999),
            max_ns: sketch.max(),
        }
    }
}

/// What one NPU of the fleet did during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NpuUsage {
    /// Requests it completed.
    pub served: u64,
    /// Dispatches it executed (batches count once).
    pub batches: u64,
    /// Cold-compile warm-ups it paid (first sight of a model).
    pub warmups: u64,
    /// Nanoseconds spent in warm-up.
    pub warmup_ns: u64,
    /// Nanoseconds spent serving (excludes warm-up and memory stall).
    pub service_ns: u64,
    /// Nanoseconds spent stalled on the shared HBM (zero when the
    /// contention model is off).
    pub mem_stall_ns: u64,
    /// DRAM bytes its dispatches streamed (counted once per dispatch,
    /// zero when the contention model is off).
    pub dram_bytes: u64,
}

impl NpuUsage {
    /// Busy fraction of the run: (warm-up + service + memory stall) /
    /// makespan — a memory-stalled NPU is occupied, just not advancing.
    pub fn utilization(&self, makespan_ns: u64) -> f64 {
        if makespan_ns == 0 {
            0.0
        } else {
            (self.warmup_ns + self.service_ns + self.mem_stall_ns) as f64 / makespan_ns as f64
        }
    }

    /// Off-chip bandwidth this NPU actually achieved while busy serving,
    /// in GB/s: bytes streamed over (service + stall) time. Zero when it
    /// never served (or the contention model is off and no bytes were
    /// accounted).
    pub fn achieved_gbps(&self) -> f64 {
        let busy = self.service_ns + self.mem_stall_ns;
        if busy == 0 {
            0.0
        } else {
            self.dram_bytes as f64 / busy as f64
        }
    }
}

/// Per-request LLM serving detail, kept (like [`RequestRecord`]) only
/// when [`crate::FleetConfig::retain_records`] is on. Indexed by the
/// same ids as [`FleetReport::records`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlmRecord {
    /// Request id (issue order).
    pub id: u64,
    /// Time-to-first-token: first generated token minus arrival.
    pub ttft_ns: u64,
    /// Output tokens generated (always the request's full budget —
    /// preemption checkpoints, it never discards decoded tokens).
    pub tokens: u32,
    /// How many times the request was preempted (and later resumed).
    pub preemptions: u32,
    /// Whether the request was latency-critical class.
    pub latency_class: bool,
}

/// Aggregate LLM-serving accounting, present on a [`FleetReport`] only
/// when the run came from the [`crate::llm`] engine — classic
/// whole-graph serving reports carry `None` and serialize byte-identical
/// to reports rendered before the LLM subsystem existed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LlmStats {
    /// Time-to-first-token distribution over completed requests.
    pub ttft: LatencyStats,
    /// Time-per-output-token distribution (`(completion − first token) /
    /// (tokens − 1)`) over completed requests with ≥ 2 output tokens.
    pub tpot: LatencyStats,
    /// Total output tokens generated.
    pub tokens_out: u64,
    /// Serving iterations executed across the fleet (each runs the
    /// joiners' prefills plus one decode step for the running members).
    pub iterations: u64,
    /// Prompt prefills performed (one per admitted request).
    pub prefills: u64,
    /// Block-boundary preemptions (checkpointed to persisted KV pages).
    pub preemptions: u64,
    /// Checkpoint/restore resumes (each charged a KV re-warm cost).
    pub resumes: u64,
    /// Largest batch membership any iteration reached.
    pub max_batch_seen: u64,
    /// Per-request LLM detail, ascending id; empty unless records are
    /// retained.
    pub per_request: Vec<LlmRecord>,
}

/// Per-model aggregate over the completed requests.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// Catalog model id.
    pub model: usize,
    /// Catalog display name.
    pub name: String,
    /// Completed requests of this model.
    pub latency: LatencyStats,
}

/// The aggregate result of one fleet serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Scheduling policy name.
    pub policy: String,
    /// Number of NPUs.
    pub fleet_size: usize,
    /// Requests the workload issued.
    pub offered: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests refused at admission (queue full).
    pub dropped: u64,
    /// Requests expired in queue (deadline exceeded).
    pub timed_out: u64,
    /// Virtual time from first arrival to last completion.
    pub makespan_ns: u64,
    /// End-to-end latency stats over completed requests.
    pub latency: LatencyStats,
    /// Queueing-delay stats over completed requests.
    pub queue: LatencyStats,
    /// Shared-HBM budget this run was served under (`None` = unlimited,
    /// the contention model off).
    pub hbm_gbps: Option<f64>,
    /// Shared-HBM stall stats over completed requests (all zeros when
    /// `hbm_gbps` is `None`).
    pub mem_stall: LatencyStats,
    /// Deepest the pending queue ever got.
    pub peak_queue_depth: u64,
    /// `(virtual ns, depth)` samples, one per queue-depth change.
    /// Empty when [`crate::FleetConfig::retain_records`] is off — at
    /// millions of requests even one sample per event is unbounded
    /// memory; use [`FleetReport::rollups`] instead.
    pub queue_depth_samples: Vec<(u64, u64)>,
    /// The rollup window width this run was collected under (`None` =
    /// rollups off).
    pub rollup_window_ns: Option<u64>,
    /// Per-virtual-time-window aggregates (throughput, queue depth,
    /// utilization), window `i` covering
    /// `[i·w, (i+1)·w)` ns. Empty unless
    /// [`crate::FleetConfig::rollup_window_ns`] was set.
    pub rollups: Vec<RollupWindow>,
    /// Per-NPU usage, indexed by NPU.
    pub per_npu: Vec<NpuUsage>,
    /// Per-model stats, ascending model id, completed models only.
    pub per_model: Vec<ModelStats>,
    /// Every completed request, ascending id.
    pub records: Vec<RequestRecord>,
    /// LLM serving accounting (TTFT, per-token latency, token
    /// throughput, preemption counters). `None` for classic whole-graph
    /// serving runs, which keeps their JSON byte-identical.
    pub llm: Option<LlmStats>,
    /// Host-side cache statistics, merged across the fleet's distinct
    /// cache sets with [`ExecStats::merge`] over per-window deltas (see
    /// that method's double-counting note). Not serialized: `wall_s` is
    /// host time and would break byte-determinism of `SERVE.json`.
    pub stats: ExecStats,
}

impl FleetReport {
    /// Completed requests per virtual second.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.completed as f64 * 1e9 / self.makespan_ns as f64
        }
    }

    /// Generated output tokens per virtual second (zero for classic
    /// whole-graph serving runs, which carry no LLM accounting).
    pub fn tokens_per_s(&self) -> f64 {
        match (&self.llm, self.makespan_ns) {
            (Some(l), ns) if ns > 0 => l.tokens_out as f64 * 1e9 / ns as f64,
            _ => 0.0,
        }
    }

    /// Mean per-NPU utilization.
    pub fn mean_utilization(&self) -> f64 {
        if self.per_npu.is_empty() {
            return 0.0;
        }
        self.per_npu
            .iter()
            .map(|u| u.utilization(self.makespan_ns))
            .sum::<f64>()
            / self.per_npu.len() as f64
    }

    /// Serializes the report (aggregates only — per-request records,
    /// queue samples, and host-side stats stay in memory) as one
    /// deterministic JSON object: every number is integer nanoseconds or
    /// a fixed-precision decimal, so equal runs serialize byte-equal.
    pub fn to_json(&self) -> String {
        let ms = |ns: u64| format!("{:.4}", ns as f64 / 1e6);
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"policy\": \"{}\", \"fleet_size\": {}, \"offered\": {}, \"completed\": {}, \
             \"dropped\": {}, \"timed_out\": {}, \"makespan_ms\": {}, \"throughput_rps\": {:.3}, \
             \"peak_queue_depth\": {}",
            self.policy,
            self.fleet_size,
            self.offered,
            self.completed,
            self.dropped,
            self.timed_out,
            ms(self.makespan_ns),
            self.throughput_rps(),
            self.peak_queue_depth,
        );
        let _ = write!(
            out,
            ", \"latency_ms\": {{\"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \
             \"p999\": {}, \"max\": {}}}",
            ms(self.latency.mean_ns),
            ms(self.latency.p50_ns),
            ms(self.latency.p95_ns),
            ms(self.latency.p99_ns),
            ms(self.latency.p999_ns),
            ms(self.latency.max_ns),
        );
        let _ = write!(
            out,
            ", \"queue_ms\": {{\"mean\": {}, \"p50\": {}, \"p99\": {}}}",
            ms(self.queue.mean_ns),
            ms(self.queue.p50_ns),
            ms(self.queue.p99_ns),
        );
        // Contention fields appear only when the model is on, so an
        // unlimited-budget SERVE.json stays byte-identical to one
        // rendered before the memory system existed.
        if let Some(h) = self.hbm_gbps {
            let _ = write!(
                out,
                ", \"hbm_gbps\": {:.2}, \"mem_stall_ms\": {{\"mean\": {}, \"p50\": {}, \
                 \"p99\": {}, \"max\": {}}}",
                h,
                ms(self.mem_stall.mean_ns),
                ms(self.mem_stall.p50_ns),
                ms(self.mem_stall.p99_ns),
                ms(self.mem_stall.max_ns),
            );
        }
        out.push_str(", \"per_npu\": [");
        for (i, u) in self.per_npu.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"served\": {}, \"batches\": {}, \"warmups\": {}, \"utilization\": {:.4}",
                u.served,
                u.batches,
                u.warmups,
                u.utilization(self.makespan_ns),
            );
            if self.hbm_gbps.is_some() {
                let _ = write!(
                    out,
                    ", \"mem_stall_ms\": {}, \"achieved_gbps\": {:.2}",
                    ms(u.mem_stall_ns),
                    u.achieved_gbps(),
                );
            }
            out.push('}');
        }
        out.push_str("], \"per_model\": [");
        for (i, m) in self.per_model.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"completed\": {}, \"p50_ms\": {}, \"p99_ms\": {}}}",
                m.name,
                m.latency.count,
                ms(m.latency.p50_ns),
                ms(m.latency.p99_ns),
            );
        }
        out.push(']');
        // Rollup fields appear only when windows were collected, so a
        // run without them serializes byte-identically to a report
        // rendered before rollups existed.
        if let Some(w) = self.rollup_window_ns {
            let _ = write!(out, ", \"rollup_window_ms\": {}", ms(w));
            out.push_str(", \"rollups\": [");
            for (i, r) in self.rollups.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"arrivals\": {}, \"completed\": {}, \"dropped\": {}, \
                     \"timed_out\": {}, \"peak_depth\": {}, \"throughput_rps\": {:.3}, \
                     \"utilization\": {:.4}}}",
                    r.arrivals,
                    r.completed,
                    r.dropped,
                    r.timed_out,
                    r.peak_depth,
                    r.throughput_rps(w),
                    r.utilization(w, self.fleet_size),
                );
            }
            out.push(']');
        }
        // LLM fields appear only for runs of the LLM engine, so classic
        // serving reports serialize byte-identically to reports rendered
        // before the subsystem existed.
        if let Some(l) = &self.llm {
            let _ = write!(
                out,
                ", \"llm\": {{\"ttft_ms\": {{\"mean\": {}, \"p50\": {}, \"p95\": {}, \
                 \"p99\": {}, \"p999\": {}, \"max\": {}}}",
                ms(l.ttft.mean_ns),
                ms(l.ttft.p50_ns),
                ms(l.ttft.p95_ns),
                ms(l.ttft.p99_ns),
                ms(l.ttft.p999_ns),
                ms(l.ttft.max_ns),
            );
            let _ = write!(
                out,
                ", \"tpot_ms\": {{\"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                ms(l.tpot.mean_ns),
                ms(l.tpot.p50_ns),
                ms(l.tpot.p99_ns),
            );
            let _ = write!(
                out,
                ", \"tokens_out\": {}, \"tokens_per_s\": {:.1}, \"iterations\": {}, \
                 \"prefills\": {}, \"preemptions\": {}, \"resumes\": {}, \
                 \"max_batch_seen\": {}}}",
                l.tokens_out,
                self.tokens_per_s(),
                l.iterations,
                l.prefills,
                l.preemptions,
                l.resumes,
                l.max_batch_seen,
            );
        }
        out.push('}');
        out
    }
}

/// The one report builder both serving engines account into: every
/// completed request goes through [`Tally::record`], every queue-depth
/// change through [`Tally::sample_depth`], and [`Tally::finish`]
/// assembles the [`FleetReport`]. Each distribution is a
/// [`LatencyAccumulator`], so retained runs report exact nearest-rank
/// percentiles and streaming runs read them off sketches — one code
/// path either way.
#[derive(Debug)]
pub(crate) struct Tally {
    /// Whether per-request detail is retained.
    pub(crate) retain: bool,
    pub(crate) completed: u64,
    pub(crate) dropped: u64,
    pub(crate) timed_out: u64,
    latency: LatencyAccumulator,
    queue: LatencyAccumulator,
    stall: LatencyAccumulator,
    /// Latency per group: catalog model (whole-graph) or class (LLM).
    per_group: Vec<LatencyAccumulator>,
    /// Completed requests, kept only when retaining.
    records: Vec<RequestRecord>,
    /// Requests waiting right now.
    pub(crate) depth: u64,
    peak_depth: u64,
    /// One sample per depth change, kept only when retaining.
    depth_samples: Vec<(u64, u64)>,
    pub(crate) rollups: Option<Rollups>,
    makespan_ns: u64,
    pub(crate) usage: Vec<NpuUsage>,
}

impl Tally {
    /// An empty tally over `npus` members and `groups` latency groups,
    /// with rollups of `window_ns` windows when set.
    pub(crate) fn new(retain: bool, npus: usize, groups: usize, window_ns: Option<u64>) -> Self {
        Tally {
            retain,
            completed: 0,
            dropped: 0,
            timed_out: 0,
            latency: LatencyAccumulator::new(retain),
            queue: LatencyAccumulator::new(retain),
            stall: LatencyAccumulator::new(retain),
            per_group: (0..groups)
                .map(|_| LatencyAccumulator::new(retain))
                .collect(),
            records: Vec::new(),
            depth: 0,
            peak_depth: 0,
            depth_samples: Vec::new(),
            rollups: window_ns.map(Rollups::new),
            makespan_ns: 0,
            usage: vec![NpuUsage::default(); npus],
        }
    }

    /// Extends the makespan to cover an event at `now`.
    #[inline]
    pub(crate) fn advance(&mut self, now: u64) {
        self.makespan_ns = self.makespan_ns.max(now);
    }

    /// Banks one completed request; its group is `rec.model`.
    #[inline]
    pub(crate) fn record(&mut self, rec: RequestRecord) {
        // The contract the report advertises: latency decomposes
        // exactly into its components.
        let lat = rec.latency_ns();
        debug_assert_eq!(
            lat,
            rec.queue_ns + rec.warmup_ns + rec.service_ns + rec.mem_stall_ns
        );
        self.completed += 1;
        self.usage[rec.npu].served += 1;
        self.latency.record(lat);
        self.queue.record(rec.queue_ns);
        self.stall.record(rec.mem_stall_ns);
        self.per_group[rec.model].record(lat);
        if self.retain {
            self.records.push(rec);
        }
    }

    /// Notes the current depth at `at`: peak, rollup window, and (when
    /// retaining) one sample per change.
    pub(crate) fn sample_depth(&mut self, at: u64) {
        self.peak_depth = self.peak_depth.max(self.depth);
        if let Some(r) = &mut self.rollups {
            r.on_depth(at, self.depth);
        }
        if self.retain && self.depth_samples.last() != Some(&(at, self.depth)) {
            self.depth_samples.push((at, self.depth));
        }
    }

    /// The report: records ascending by id, per-group stats for groups
    /// that completed anything, named by `name`. `llm` and `stats` are
    /// left for the engine to fill.
    pub(crate) fn finish(
        mut self,
        policy: &str,
        offered: u64,
        hbm_gbps: Option<f64>,
        name: impl Fn(usize) -> String,
    ) -> FleetReport {
        self.records.sort_by_key(|r| r.id);
        FleetReport {
            policy: policy.to_string(),
            fleet_size: self.usage.len(),
            offered,
            completed: self.completed,
            dropped: self.dropped,
            timed_out: self.timed_out,
            makespan_ns: self.makespan_ns,
            latency: self.latency.finish(),
            queue: self.queue.finish(),
            hbm_gbps,
            mem_stall: self.stall.finish(),
            peak_queue_depth: self.peak_depth,
            queue_depth_samples: self.depth_samples,
            rollup_window_ns: self.rollups.as_ref().map(Rollups::window_ns),
            rollups: self.rollups.map(Rollups::finish).unwrap_or_default(),
            per_npu: self.usage,
            per_model: self
                .per_group
                .into_iter()
                .enumerate()
                .filter(|(_, acc)| acc.count() > 0)
                .map(|(m, acc)| ModelStats {
                    model: m,
                    name: name(m),
                    latency: acc.finish(),
                })
                .collect(),
            records: self.records,
            llm: None,
            stats: ExecStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        let s = LatencyStats::from_sorted(&sorted);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.p999_ns, 100);
        assert_eq!(s.max_ns, 100);
        assert_eq!(s.mean_ns, 50); // floor(5050/100)
    }

    #[test]
    fn empty_population_is_all_zeros() {
        assert_eq!(LatencyStats::from_sorted(&[]), LatencyStats::default());
    }

    #[test]
    fn single_sample_fills_every_field() {
        let s = LatencyStats::from_sorted(&[42]);
        assert_eq!(s.p50_ns, 42);
        assert_eq!(s.p999_ns, 42);
        assert_eq!(s.max_ns, 42);
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let r = FleetReport {
            policy: "fifo".into(),
            fleet_size: 2,
            offered: 10,
            completed: 9,
            dropped: 1,
            timed_out: 0,
            makespan_ns: 2_000_000,
            latency: LatencyStats::from_sorted(&[1_000_000, 2_000_000]),
            queue: LatencyStats::from_sorted(&[0, 1_000_000]),
            hbm_gbps: None,
            mem_stall: LatencyStats::default(),
            peak_queue_depth: 3,
            queue_depth_samples: vec![(0, 1)],
            rollup_window_ns: None,
            rollups: Vec::new(),
            per_npu: vec![NpuUsage {
                served: 9,
                batches: 9,
                warmups: 1,
                warmup_ns: 100_000,
                service_ns: 900_000,
                mem_stall_ns: 0,
                dram_bytes: 0,
            }],
            per_model: vec![ModelStats {
                model: 0,
                name: "BERT".into(),
                latency: LatencyStats::from_sorted(&[1_000_000]),
            }],
            records: Vec::new(),
            llm: None,
            stats: ExecStats::default(),
        };
        let a = r.to_json();
        assert_eq!(a, r.to_json());
        assert!(a.contains("\"policy\": \"fifo\""));
        assert!(a.contains("\"p99\""));
        assert!(a.contains("\"utilization\": 0.5000"));
        assert!(a.contains("\"name\": \"BERT\""));
        // Host wall-time must not leak into the serialization.
        assert!(!a.contains("wall"));
        // Contention fields are absent while the model is off …
        assert!(!a.contains("hbm_gbps"));
        assert!(!a.contains("mem_stall"));
        assert!(!a.contains("achieved_gbps"));
        // … and present (with the stall decomposition and per-NPU
        // achieved bandwidth) once a budget is set.
        let mut contended = r.clone();
        contended.hbm_gbps = Some(32.0);
        contended.mem_stall = LatencyStats::from_sorted(&[0, 500_000]);
        contended.per_npu[0].mem_stall_ns = 500_000;
        contended.per_npu[0].dram_bytes = 1_400_000;
        let b = contended.to_json();
        assert!(b.contains("\"hbm_gbps\": 32.00"));
        assert!(b.contains("\"mem_stall_ms\": {\"mean\": 0.2500"));
        assert!(b.contains("\"achieved_gbps\": 1.00"));
        // The busy-time accounting includes the stall.
        assert!(b.contains("\"utilization\": 0.7500"));
        // Rollup fields likewise appear only when windows were collected.
        assert!(!a.contains("rollup"));
        let mut rolled = r.clone();
        rolled.rollup_window_ns = Some(1_000_000);
        rolled.rollups = vec![RollupWindow {
            arrivals: 5,
            completed: 4,
            dropped: 1,
            timed_out: 0,
            peak_depth: 3,
            busy_ns: 500_000,
        }];
        let c = rolled.to_json();
        assert!(c.contains("\"rollup_window_ms\": 1.0000"));
        assert!(c.contains("\"throughput_rps\": 4000.000"));
        assert!(c.contains("\"utilization\": 0.2500"));
        // LLM fields likewise appear only for LLM-engine runs.
        assert!(!a.contains("llm"));
        assert!(!a.contains("ttft"));
        let mut llm = r.clone();
        llm.llm = Some(LlmStats {
            ttft: LatencyStats::from_sorted(&[1_000_000]),
            tpot: LatencyStats::from_sorted(&[100_000]),
            tokens_out: 200,
            iterations: 40,
            prefills: 9,
            preemptions: 2,
            resumes: 2,
            max_batch_seen: 4,
            per_request: Vec::new(),
        });
        let d = llm.to_json();
        assert!(d.contains("\"ttft_ms\": {\"mean\": 1.0000"));
        assert!(d.contains("\"tpot_ms\": {\"mean\": 0.1000"));
        // 200 tokens over a 2 ms makespan = 100k tokens/s.
        assert!(d.contains("\"tokens_per_s\": 100000.0"));
        assert!(d.contains("\"preemptions\": 2"));
        assert!(d.contains("\"max_batch_seen\": 4"));
    }
}
