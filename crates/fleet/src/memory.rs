//! The fleet's shared memory system: turns per-model DRAM byte
//! footprints into bandwidth demands and asks the [`HbmModel`] for a
//! max-min fair split of the shared budget whenever the set of serving
//! NPUs changes.
//!
//! The engine models each dispatch as streaming its model's byte
//! footprint at a constant average rate over the service: the demand of
//! NPU `i` serving model `m` is `d = min(bytes[m] / solo_ns[i][m],
//! link_i)` GB/s (bytes per nanosecond *is* GB/s), and the fraction of
//! the service during which its private link is busy is `μ = d /
//! link_i`. When the shared stack grants `a ≤ d`, the memory-bound
//! fraction stretches by `d / a` while the compute-bound remainder is
//! unaffected, so the NPU makes service progress at rate
//!
//! ```text
//! rate = 1 / ((1 − μ) + μ · d / a)      (= 1 exactly when a ≥ d)
//! ```
//!
//! The allocation — and with it every in-flight dispatch's completion
//! time — is recomputed at each dispatch/completion event, making both
//! piecewise-constant in virtual time.

use crate::engine::FleetConfig;
use tandem_core::{link_gbps, HbmModel};

/// A bandwidth demand: average rate and link-busy fraction of one
/// (NPU, model) service, precomputed once per serving run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BandwidthDemand {
    /// Average off-chip bandwidth demand in GB/s, capped at the link.
    pub gbps: f64,
    /// Fraction of the service during which the private link is busy
    /// (`gbps / link`), the memory-bound share that contention stretches.
    pub mu: f64,
}

/// The result of one fair-share recomputation over the fleet. Holds its
/// own scratch, so a reused `Allocation` makes
/// [`MemorySystem::allocate_into`] allocation-free in steady state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Allocation {
    /// Progress rate per NPU (`1.0` = uncontended full speed; idle NPUs
    /// report `1.0` too).
    pub rates: Vec<f64>,
    /// Aggregate demand of the serving NPUs, GB/s.
    pub demand_gbps: f64,
    /// Aggregate bandwidth actually granted, GB/s.
    pub granted_gbps: f64,
    /// How many NPUs are currently stretched (`rate < 1`).
    pub throttled: usize,
    /// Scratch: active members' demands in member order.
    demands: Vec<f64>,
    /// Scratch: their grants, parallel to `demands`.
    grants: Vec<f64>,
}

/// The shared memory system of a fleet: one [`HbmModel`] behind the
/// members' private links.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    hbm: HbmModel,
    links: Vec<f64>,
}

impl MemorySystem {
    /// Builds the memory system for `cfg`: per-member links from
    /// `cfg.bw_gbps` (or derived from each member's configuration via
    /// [`link_gbps`] when unset) behind a shared [`HbmModel`] with
    /// budget `cfg.hbm_gbps`.
    pub fn new(cfg: &FleetConfig) -> Self {
        let links = match &cfg.bw_gbps {
            Some(v) => {
                assert_eq!(
                    v.len(),
                    cfg.npus.len(),
                    "bw_gbps needs one entry per fleet member"
                );
                v.clone()
            }
            None => cfg.npus.iter().map(|n| link_gbps(&n.tandem)).collect(),
        };
        MemorySystem {
            hbm: HbmModel::new(cfg.hbm_gbps),
            links,
        }
    }

    /// Whether contention is modeled at all. `false` (unlimited budget)
    /// means the engine takes its uncontended fast path, byte-identical
    /// to a fleet that predates the memory system.
    pub fn enabled(&self) -> bool {
        !self.hbm.is_unlimited()
    }

    /// The shared budget in GB/s (`None` when unlimited).
    pub fn budget_gbps(&self) -> Option<f64> {
        self.hbm.budget_gbps()
    }

    /// The private link bandwidth of member `npu` in GB/s.
    pub fn link_gbps(&self, npu: usize) -> f64 {
        self.links[npu]
    }

    /// The bandwidth demand of serving `dram_bytes` over `solo_ns`
    /// nanoseconds on member `npu`.
    pub fn demand(&self, npu: usize, dram_bytes: u64, solo_ns: u64) -> BandwidthDemand {
        let link = self.links[npu];
        if link <= 0.0 || solo_ns == 0 {
            return BandwidthDemand::default();
        }
        let gbps = (dram_bytes as f64 / solo_ns as f64).min(link);
        BandwidthDemand {
            gbps,
            mu: gbps / link,
        }
    }

    /// Fair-shares the budget over the currently serving members
    /// (`None` = idle) and converts each grant into a progress rate.
    pub fn allocate(&self, serving: &[Option<BandwidthDemand>]) -> Allocation {
        let mut out = Allocation::default();
        self.allocate_into(serving, &mut out);
        out
    }

    /// [`MemorySystem::allocate`] into a reused [`Allocation`]: the same
    /// arithmetic in the same order (identical rates, bitwise), but no
    /// allocation once the buffers have grown to the fleet size — the
    /// form the serving engine calls at every dispatch/completion event.
    pub fn allocate_into(&self, serving: &[Option<BandwidthDemand>], out: &mut Allocation) {
        out.demands.clear();
        out.demands.extend(serving.iter().flatten().map(|d| d.gbps));
        self.hbm.allocate_into(&out.demands, &mut out.grants);
        out.rates.clear();
        out.rates.resize(serving.len(), 1.0);
        out.throttled = 0;
        let mut k = 0usize;
        for (i, s) in serving.iter().enumerate() {
            let Some(d) = s else { continue };
            let grant = out.grants[k];
            k += 1;
            // Bitwise `grant >= demand` (the allocator returns demands
            // unchanged when the budget suffices) keeps the uncontended
            // rate at exactly 1.0 — no float round-trip, so an
            // under-subscribed budget reproduces uncontended virtual
            // time to the nanosecond.
            if grant >= d.gbps || d.gbps <= 0.0 {
                continue;
            }
            out.rates[i] = 1.0 / ((1.0 - d.mu) + d.mu * (d.gbps / grant));
            out.throttled += 1;
        }
        out.demand_gbps = out.demands.iter().sum();
        out.granted_gbps = out.grants.iter().sum();
    }
}

/// The last virtual nanosecond a contended completion may be scheduled
/// at (about 146 years). Leaving three quarters of the `u64` range above
/// it keeps every later `start + warmup + service` sum representable.
pub(crate) const HORIZON_NS: u64 = u64::MAX / 4;

/// When work with `remaining_ns` of nominal service left, progressing at
/// `rate` (nominal ns per virtual ns) from `now`, completes:
/// `now + ⌈remaining_ns / rate⌉`. The checked form of that sum, used by
/// [`crate::lanes::ServiceLanes::reallocate`] for both serving engines:
/// as a budget shrinks toward zero the fair-share rate does too, and the
/// quotient outgrows `u64`. Such a completion
/// lands at [`HORIZON_NS`] instead, or at `now` once the clock has passed
/// it; the caller's physics floor (never before the nominal end) then
/// applies as usual, so virtual time never overflows and the latency
/// identity holds exactly.
pub(crate) fn eta_ns(now: u64, remaining_ns: f64, rate: f64) -> u64 {
    if remaining_ns <= 0.0 {
        return now;
    }
    let limit = HORIZON_NS.max(now);
    let delta = (remaining_ns / rate).ceil();
    if delta < (limit - now) as f64 {
        now + delta as u64
    } else {
        limit // also a NaN or infinite quotient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_npu::NpuConfig;

    fn mem(n: usize, hbm: Option<f64>) -> MemorySystem {
        let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), n);
        cfg.hbm_gbps = hbm;
        MemorySystem::new(&cfg)
    }

    #[test]
    fn links_derive_from_the_member_configuration() {
        let m = mem(2, None);
        assert_eq!(m.link_gbps(0), 16.0);
        assert!(!m.enabled());
        assert_eq!(m.budget_gbps(), None);
    }

    #[test]
    fn explicit_links_override_the_derived_ones() {
        let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 2);
        cfg.bw_gbps = Some(vec![8.0, 32.0]);
        let m = MemorySystem::new(&cfg);
        assert_eq!(m.link_gbps(0), 8.0);
        assert_eq!(m.link_gbps(1), 32.0);
    }

    #[test]
    fn demand_is_capped_at_the_link() {
        let m = mem(1, Some(32.0));
        // 64 bytes over 2 ns would be 32 GB/s — capped at the 16 GB/s link.
        let d = m.demand(0, 64, 2);
        assert_eq!(d.gbps, 16.0);
        assert_eq!(d.mu, 1.0);
        // 16 bytes over 4 ns = 4 GB/s, a quarter of the link.
        let d = m.demand(0, 16, 4);
        assert_eq!(d.gbps, 4.0);
        assert_eq!(d.mu, 0.25);
    }

    #[test]
    fn uncontended_allocation_rates_are_exactly_one() {
        let m = mem(4, Some(64.0));
        let d = m.demand(0, 16, 4); // 4 GB/s each, 16 total ≤ 64 budget
        let alloc = m.allocate(&[Some(d), Some(d), None, Some(d)]);
        assert_eq!(alloc.rates, vec![1.0; 4]);
        assert_eq!(alloc.throttled, 0);
        assert_eq!(alloc.demand_gbps, 12.0);
        assert_eq!(alloc.granted_gbps, 12.0);
    }

    #[test]
    fn oversubscription_slows_only_the_memory_bound_fraction() {
        let m = mem(2, Some(16.0));
        // Each NPU demands its full 16 GB/s link (μ = 1): two of them on
        // a 16 GB/s budget get 8 each, so rate = 1 / (d/a) = 0.5.
        let d = m.demand(0, 160, 10);
        let alloc = m.allocate(&[Some(d), Some(d)]);
        assert_eq!(alloc.rates, vec![0.5, 0.5]);
        assert_eq!(alloc.throttled, 2);
        // Half the link busy (μ = 0.5): the compute half is unaffected,
        // so rate = 1 / (0.5 + 0.5·(8/α)) with α = min(8, 16/2) = 8 ⇒ no
        // throttle at all (8 + 8 = 16 fits the budget exactly).
        let half = m.demand(0, 80, 10);
        let alloc = m.allocate(&[Some(half), Some(half)]);
        assert_eq!(alloc.rates, vec![1.0, 1.0]);
    }

    #[test]
    fn idle_members_do_not_consume_budget() {
        let m = mem(2, Some(16.0));
        let d = m.demand(0, 160, 10); // full link
        let alloc = m.allocate(&[Some(d), None]);
        assert_eq!(alloc.rates, vec![1.0, 1.0]);
        assert_eq!(alloc.throttled, 0);
    }
}
