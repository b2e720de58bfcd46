//! The serving core both fleet engines run on: one service lane per
//! NPU, timed against the shared memory system.
//!
//! A lane serves one unit of work at a time — a whole-graph dispatch's
//! service phase, or one LLM iteration — with a *nominal* (uncontended)
//! length. Under a finite HBM budget the unit progresses at the
//! fair-share rate the [`MemorySystem`] grants, so its completion is
//! provisional: every change to the set of serving lanes banks
//! progress, re-shares the bandwidth, and reschedules the completions
//! whose estimate moved ([`ServiceLanes::reallocate`]). Scheduled
//! completions are generation-stamped in the event payload
//! (`gen · lanes + lane`); a superseded entry stays in the heap and is
//! discarded on pop by [`ServiceLanes::live`].
//!
//! The engines differ only in *what* a lane serves and when it starts;
//! the timing rules — progress banking, the physics floor, the
//! unchanged-ETA rule, the stale check, and the batch-scaling law — live
//! here once.

use crate::events::EventQueue;
use crate::memory::{eta_ns, Allocation, BandwidthDemand, MemorySystem};
use tandem_trace::{fleet as spans, TraceSink};

/// Service time of a `k`-member batch whose solo service takes `solo`
/// nanoseconds: `solo + round((k − 1) · marginal · solo)`, zero for an
/// empty batch. `marginal` is [`crate::FleetConfig::batch_marginal`],
/// validated into `0.0..=1.0`.
pub(crate) fn batch_scaled(solo: u64, k: u64, marginal: f64) -> u64 {
    match k {
        0 => 0,
        k => solo + ((k - 1) as f64 * marginal * solo as f64).round() as u64,
    }
}

/// One lane's timing state.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Serving (demanding bandwidth, progressing toward completion).
    serving: bool,
    /// When the current service began.
    start_ns: u64,
    /// Its nominal (uncontended) length.
    nominal_ns: u64,
    /// Progress through the nominal length, in nominal nanoseconds.
    progress: f64,
    /// When `progress` was last banked.
    accrued_ns: u64,
    /// Progress rate in force since then (≤ 1; 1 = uncontended).
    rate: f64,
    /// Time of the scheduled completion, so an unchanged estimate is
    /// not rescheduled.
    eta_ns: Option<u64>,
    /// Generation of the lane's one live scheduled event.
    gen: u64,
    demand: BandwidthDemand,
}

/// The per-NPU service lanes of one serving run plus the shared memory
/// system they contend on. All scratch is reused across events.
#[derive(Debug)]
pub(crate) struct ServiceLanes {
    lanes: Vec<Lane>,
    mem: MemorySystem,
    /// Monotone generation counter for stamped events.
    gen: u64,
    serving_buf: Vec<Option<BandwidthDemand>>,
    alloc: Allocation,
}

impl ServiceLanes {
    /// `n` idle lanes over `mem`.
    pub(crate) fn new(n: usize, mem: MemorySystem) -> Self {
        ServiceLanes {
            lanes: vec![Lane::default(); n],
            mem,
            gen: 0,
            serving_buf: Vec::with_capacity(n),
            alloc: Allocation::default(),
        }
    }

    /// The shared memory system.
    pub(crate) fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Whether lane `n` is serving.
    pub(crate) fn serving(&self, n: usize) -> bool {
        self.lanes[n].serving
    }

    /// When lane `n`'s current service began.
    pub(crate) fn start_ns(&self, n: usize) -> u64 {
        self.lanes[n].start_ns
    }

    /// Lane `n`'s current nominal service length.
    pub(crate) fn nominal_ns(&self, n: usize) -> u64 {
        self.lanes[n].nominal_ns
    }

    /// Supersedes lane `n`'s scheduled event and returns the payload
    /// that names the new one.
    pub(crate) fn stamp(&mut self, n: usize) -> u64 {
        self.gen += 1;
        self.lanes[n].gen = self.gen;
        self.gen * self.lanes.len() as u64 + n as u64
    }

    /// The stale check: the lane a popped stamped payload names, or
    /// `None` when a later [`ServiceLanes::stamp`] superseded it.
    pub(crate) fn live(&self, payload: u64) -> Option<usize> {
        let n_lanes = self.lanes.len() as u64;
        let n = (payload % n_lanes) as usize;
        (self.lanes[n].gen == payload / n_lanes).then_some(n)
    }

    /// Starts lane `n` serving `nominal_ns` of work at `now` with
    /// bandwidth `demand`. The caller schedules its completion: through
    /// [`ServiceLanes::reallocate`] under contention, or
    /// [`ServiceLanes::schedule`] at `now + nominal_ns` without.
    pub(crate) fn begin(&mut self, n: usize, now: u64, nominal_ns: u64, demand: BandwidthDemand) {
        self.lanes[n] = Lane {
            serving: true,
            start_ns: now,
            nominal_ns,
            accrued_ns: now,
            rate: 1.0,
            gen: self.lanes[n].gen,
            demand,
            ..Lane::default()
        };
    }

    /// Ends lane `n`'s service at `now` and returns its memory stall:
    /// how far contention pushed the completion past the nominal end.
    pub(crate) fn end(&mut self, n: usize, now: u64) -> u64 {
        let l = &mut self.lanes[n];
        debug_assert!(l.serving, "completion without a service");
        l.serving = false;
        let nominal_end = l.start_ns + l.nominal_ns;
        debug_assert!(now >= nominal_end, "completions never beat nominal time");
        now - nominal_end
    }

    /// Schedules lane `n`'s completion event of `kind` at `eta` under a
    /// fresh generation.
    pub(crate) fn schedule(&mut self, n: usize, eta: u64, kind: u8, events: &mut EventQueue) {
        self.lanes[n].eta_ns = Some(eta);
        let payload = self.stamp(n);
        events.push(eta, kind, payload);
    }

    /// Recomputes the fair-share allocation and every serving lane's
    /// completion — called whenever the set of serving lanes changes,
    /// which makes each lane's rate piecewise-constant between events.
    /// Only completions whose time moved are rescheduled (fewer stale
    /// events, and undisturbed lanes keep their event order).
    pub(crate) fn reallocate(
        &mut self,
        now: u64,
        kind: u8,
        events: &mut EventQueue,
        sink: &mut dyn TraceSink,
    ) {
        // Bank progress earned at the rates in force since the last event.
        for l in self.lanes.iter_mut().filter(|l| l.serving) {
            l.progress += (now - l.accrued_ns) as f64 * l.rate;
            l.accrued_ns = now;
        }
        self.serving_buf.clear();
        self.serving_buf
            .extend(self.lanes.iter().map(|l| l.serving.then_some(l.demand)));
        self.mem.allocate_into(&self.serving_buf, &mut self.alloc);
        for n in 0..self.lanes.len() {
            let l = &mut self.lanes[n];
            if !l.serving {
                continue;
            }
            l.rate = self.alloc.rates[n];
            let eta = eta_ns(now, l.nominal_ns as f64 - l.progress, l.rate);
            // Physics floor: contention can only push a completion past
            // its nominal end, never before it (also guards the stall's
            // non-negativity against float rounding).
            let eta = eta.max(l.start_ns + l.nominal_ns);
            if l.eta_ns != Some(eta) {
                self.schedule(n, eta, kind, events);
            }
        }
        if sink.enabled() {
            let cgbps = |g: f64| (g * 100.0).round() as u64;
            let a = &self.alloc;
            spans::hbm_bandwidth(sink, now, cgbps(a.demand_gbps), cgbps(a.granted_gbps));
            if a.throttled > 0 {
                spans::hbm_throttle(sink, now, a.throttled as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FleetConfig;
    use tandem_npu::NpuConfig;
    use tandem_trace::NullSink;

    const EV: u8 = 1;

    fn lanes(n: usize, hbm_gbps: f64) -> ServiceLanes {
        let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), n);
        cfg.hbm_gbps = Some(hbm_gbps);
        ServiceLanes::new(n, MemorySystem::new(&cfg))
    }

    /// Begins lane `n` demanding its full 16 GB/s link, then re-shares.
    fn begin_full(l: &mut ServiceLanes, n: usize, now: u64, nominal: u64, q: &mut EventQueue) {
        let demand = l.mem().demand(n, 16 * nominal, nominal);
        l.begin(n, now, nominal, demand);
        l.reallocate(now, EV, q, &mut NullSink);
    }

    #[test]
    fn batch_scaling_law() {
        assert_eq!(batch_scaled(198, 1, 0.35), 198);
        assert_eq!(batch_scaled(198, 8, 0.35), 198 + 485);
        assert_eq!(batch_scaled(198, 0, 0.35), 0);
        assert_eq!(batch_scaled(0, 5, 0.35), 0);
        assert_eq!(batch_scaled(100, 3, 1.0), 300);
    }

    #[test]
    fn unchanged_eta_pushes_no_event() {
        let mut l = lanes(2, 64.0);
        let mut q = EventQueue::with_reserved_seqs(0);
        begin_full(&mut l, 0, 0, 1_000, &mut q);
        assert_eq!(q.len(), 1);
        // Re-sharing with nothing changed keeps the scheduled event.
        l.reallocate(300, EV, &mut q, &mut NullSink);
        assert_eq!(q.len(), 1);
        // A second lane fits the budget: lane 0's completion stands.
        begin_full(&mut l, 1, 500, 1_000, &mut q);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((1_000, EV, l.lanes[0].gen * 2)));
    }

    #[test]
    fn stale_check_rejects_superseded_generations() {
        let mut l = lanes(3, 16.0);
        let old = l.stamp(2);
        let other = l.stamp(1);
        let new = l.stamp(2);
        assert_eq!(l.live(old), None);
        assert_eq!(l.live(new), Some(2));
        assert_eq!(l.live(other), Some(1));
    }

    #[test]
    fn banked_progress_is_the_sum_of_rate_intervals() {
        let mut l = lanes(2, 16.0);
        let mut q = EventQueue::with_reserved_seqs(0);
        begin_full(&mut l, 0, 0, 10_000, &mut q);
        let solo_rate = l.lanes[0].rate;
        begin_full(&mut l, 1, 1_000, 10_000, &mut q);
        let shared_rate = l.lanes[0].rate;
        assert_eq!(solo_rate, 1.0);
        assert_eq!(
            shared_rate, 0.5,
            "two full-link lanes halve a one-link budget"
        );
        l.reallocate(3_500, EV, &mut q, &mut NullSink);
        let expected = 1_000.0 * solo_rate + 2_500.0 * shared_rate;
        assert_eq!(l.lanes[0].progress, expected);
        assert_eq!(l.lanes[1].progress, 2_500.0 * shared_rate);
        // Both lanes finish the remaining nominal work at half speed.
        let eta = 3_500 + ((10_000.0 - expected) / shared_rate) as u64;
        assert_eq!(l.lanes[0].eta_ns, Some(eta));
    }

    #[test]
    fn unit_rate_reproduces_the_nominal_end_exactly() {
        let mut l = lanes(2, 1e6);
        let mut q = EventQueue::with_reserved_seqs(0);
        begin_full(&mut l, 0, 7, 1_234_567, &mut q);
        for t in [100, 5_000, 777_777] {
            l.reallocate(t, EV, &mut q, &mut NullSink);
        }
        begin_full(&mut l, 1, 900_000, 10, &mut q);
        assert_eq!(l.lanes[0].rate, 1.0);
        assert_eq!(l.lanes[0].eta_ns, Some(7 + 1_234_567));
        assert_eq!(l.end(0, 7 + 1_234_567), 0, "no stall at full rate");
    }
}
