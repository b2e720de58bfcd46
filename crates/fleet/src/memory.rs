//! The fleet's shared memory system: turns per-model DRAM byte
//! footprints into bandwidth demands and splits the shared HBM budget
//! max-min fairly among them whenever the set of serving NPUs changes.
//!
//! One NPU's Data Access Engine sees a private link whose peak bandwidth
//! follows from its configuration, but co-located NPUs share the HBM
//! stack behind those links. The split is progressive filling: a member
//! demanding less than its equal share keeps its demand, and the budget
//! it frees is re-shared among the heavier members.
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
use tandem_core::TandemConfig;

/// Peak bandwidth of one NPU's private DRAM link in GB/s, as implied by
/// its configuration: `dram_words_per_cycle` 4-byte words per cycle at
/// `freq_ghz` GHz (the paper configuration works out to 16 GB/s).
fn link_gbps(cfg: &TandemConfig) -> f64 {
    cfg.dram_words_per_cycle * 4.0 * cfg.freq_ghz
}

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

/// The shared memory system of a fleet: one HBM budget behind the
/// members' private links.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    /// The shared budget in GB/s; `None` is unlimited.
    budget_gbps: Option<f64>,
    links: Vec<f64>,
}

impl MemorySystem {
    /// Builds the memory system for `cfg`: per-member links from
    /// `cfg.bw_gbps` (or derived from each member's configuration when
    /// unset) behind a shared budget of `cfg.hbm_gbps`. A non-finite or
    /// non-positive budget is unlimited.
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
            budget_gbps: cfg.hbm_gbps.filter(|b| b.is_finite() && *b > 0.0),
            links,
        }
    }

    /// Whether contention is modeled at all. `false` (unlimited budget)
    /// means the engine takes its uncontended fast path, byte-identical
    /// to a fleet that predates the memory system.
    pub fn enabled(&self) -> bool {
        self.budget_gbps.is_some()
    }

    /// The shared budget in GB/s (`None` when unlimited).
    pub fn budget_gbps(&self) -> Option<f64> {
        self.budget_gbps
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
        fair_share(self.budget_gbps, &out.demands, &mut out.grants);
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

/// Max-min fair grants of `budget` (GB/s, `None` = unlimited) over
/// `demands` (GB/s each), into `out`.
///
/// When the demands fit inside the budget every consumer receives
/// exactly its demand — bit-for-bit, no arithmetic touches the values —
/// so an under-subscribed stack is indistinguishable from an unlimited
/// one. Over-subscribed, the budget is progressively filled: consumers
/// demanding no more than the equal share of the remaining budget are
/// satisfied first, and whatever they leave behind is re-shared among
/// the rest, which all end up clamped to one common fair level.
fn fair_share(budget: Option<f64>, demands: &[f64], out: &mut Vec<f64>) {
    out.clear();
    let budget = match budget {
        Some(b) => b,
        None => {
            out.extend_from_slice(demands);
            return;
        }
    };
    let total: f64 = demands.iter().sum();
    if total <= budget {
        out.extend_from_slice(demands);
        return;
    }
    // Progressive filling without index scratch: `-1.0` marks a
    // still-active consumer (real grants are never negative — every
    // active demand is positive and the remaining budget never goes
    // below zero, since each satisfied demand is at most the share).
    out.extend(demands.iter().map(|&d| if d > 0.0 { -1.0 } else { 0.0 }));
    let mut active = demands.iter().filter(|&&d| d > 0.0).count();
    let mut remaining = budget;
    while active > 0 {
        let share = remaining / active as f64;
        let mut satisfied = 0usize;
        for (grant, &d) in out.iter_mut().zip(demands) {
            if *grant == -1.0 && d <= share {
                *grant = d;
                remaining -= d;
                satisfied += 1;
            }
        }
        if satisfied == 0 {
            // Everyone left wants more than the fair level: clamp.
            for grant in out.iter_mut() {
                if *grant == -1.0 {
                    *grant = share;
                }
            }
            break;
        }
        active -= satisfied;
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

    /// The grants of a `budget` stack over `demands`.
    fn allocate(budget: Option<f64>, demands: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        fair_share(budget, demands, &mut out);
        out
    }

    #[test]
    fn paper_link_is_16_gbps() {
        assert_eq!(link_gbps(&TandemConfig::paper()), 16.0);
    }

    #[test]
    fn unlimited_allocation_is_identity() {
        assert!(!mem(1, None).enabled());
        assert_eq!(allocate(None, &[3.0, 100.0]), vec![3.0, 100.0]);
        // Non-finite and non-positive budgets degrade to unlimited.
        assert!(!mem(1, Some(f64::INFINITY)).enabled());
        assert!(!mem(1, Some(0.0)).enabled());
        assert!(mem(1, Some(32.0)).enabled());
    }

    #[test]
    fn under_subscription_returns_demands_bitwise() {
        let d = [16.0, 15.9999, 0.0, 32.0];
        assert_eq!(allocate(Some(64.0), &d[..3]), d[..3].to_vec());
        // Exactly at budget still fits.
        assert_eq!(allocate(Some(64.0), &[32.0, 32.0]), vec![32.0, 32.0]);
    }

    #[test]
    fn equal_heavy_demands_split_the_budget_evenly() {
        assert_eq!(
            allocate(Some(32.0), &[16.0, 16.0, 16.0, 16.0]),
            vec![8.0; 4]
        );
    }

    #[test]
    fn light_consumers_keep_their_demand_under_pressure() {
        // The 2 GB/s consumer is under the fair level and keeps its
        // demand; the two heavy ones split what's left.
        let a = allocate(Some(30.0), &[2.0, 16.0, 16.0]);
        assert_eq!(a[0], 2.0);
        assert_eq!(a[1], 14.0);
        assert_eq!(a[2], 14.0);
        let granted: f64 = a.iter().sum();
        assert!((granted - 30.0).abs() < 1e-9);
    }

    #[test]
    fn allocation_never_exceeds_demand_or_budget() {
        let demands = [1.0, 3.0, 9.0, 27.0];
        let a = allocate(Some(20.0), &demands);
        for (ai, di) in a.iter().zip(&demands) {
            assert!(ai <= di, "allocation may never exceed demand");
            assert!(*ai >= 0.0);
        }
        assert!(a.iter().sum::<f64>() <= 20.0 + 1e-9);
    }

    #[test]
    fn shrinking_the_budget_never_grows_an_allocation() {
        let demands = [4.0, 10.0, 16.0];
        let wide = allocate(Some(28.0), &demands);
        let tight = allocate(Some(14.0), &demands);
        for (w, t) in wide.iter().zip(&tight) {
            assert!(t <= w, "halving the budget must not raise anyone");
        }
    }

    #[test]
    fn idle_consumers_get_zero() {
        let a = allocate(Some(8.0), &[0.0, 16.0, 0.0]);
        assert_eq!(a[0], 0.0);
        assert_eq!(a[2], 0.0);
        assert_eq!(a[1], 8.0);
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
