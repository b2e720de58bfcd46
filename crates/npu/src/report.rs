//! End-to-end execution reports.

use std::collections::BTreeMap;
use tandem_core::{EnergyBreakdown, EventCounters};
use tandem_model::OpKind;
use tandem_trace::CycleAttribution;

/// Busy-cycle totals per unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitBusy {
    /// Cycles the GEMM unit spent computing.
    pub gemm_cycles: u64,
    /// Cycles the Tandem Processor spent computing.
    pub tandem_cycles: u64,
}

/// Host-side execution statistics for one `Npu::run` call: wall-clock
/// time and hit/miss counts of the compilation, node-simulation,
/// graph-report and verify-gate caches. (The fifth memo, the per-graph
/// plan, keeps its counters out of these stats.)
///
/// Deliberately **excluded** from [`NpuReport`] equality — a cached and
/// an uncached run of the same model compare equal even though their
/// wall-times and hit counts differ.
///
/// # Delta semantics
///
/// The caches are shared by every clone of an `Npu` and by all
/// `Npu::run_many` workers, and their hit/miss counters are cumulative
/// over the caches' lifetime — they are **never reset**. The stats
/// attached to each [`NpuReport`] are the counter difference between the
/// start and the end of that `run` call, which under concurrent
/// `run_many` workers also picks up the other workers' lookups. For
/// reliable accounting across a batch, snapshot `Npu::stats()` before
/// and after and subtract with [`ExecStats::delta`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecStats {
    /// Host wall-clock seconds the run took.
    pub wall_s: f64,
    /// Compilation-cache hits during this run.
    pub compile_hits: u64,
    /// Compilation-cache misses (nodes actually lowered) during this run.
    pub compile_misses: u64,
    /// Node-simulation-cache hits during this run. A node whose
    /// signature id an earlier node of the same run resolved reads the
    /// run's own table of node reports instead of probing the shared
    /// memo, and counts here too, exactly like the probe it replaces:
    /// each run adds those in once, when it ends.
    pub sim_hits: u64,
    /// Node-simulation-cache misses (nodes actually simulated).
    pub sim_misses: u64,
    /// Always zero: the GEMM cycle model is evaluated directly, with no
    /// memo. Kept until hostbench stops reading it.
    #[deprecated(note = "always zero; the GEMM model has no memo")]
    pub gemm_hits: u64,
    /// Always zero, like [`ExecStats::gemm_hits`].
    #[deprecated(note = "always zero; the GEMM model has no memo")]
    pub gemm_misses: u64,
    /// Graph-level report-cache hits (whole run answered from cache).
    pub graph_hits: u64,
    /// Graph-level report-cache misses (graphs executed block-by-block).
    pub graph_misses: u64,
    /// Block verdicts [`crate::Npu::verify_schedule`] answered from its
    /// memo.
    pub gate_hits: u64,
    /// Blocks [`crate::Npu::verify_schedule`] assembled and verified.
    pub gate_misses: u64,
    /// Blocks a run composed from the cost of an earlier block of their
    /// class instead of looking up each of their nodes. Not a cache
    /// lookup: [`ExecStats::lookups`] and [`ExecStats::hit_rate`] leave
    /// it out.
    pub reused_blocks: u64,
}

impl ExecStats {
    /// The counter increments between `baseline` (an earlier
    /// `Npu::stats()` snapshot of the same cache set) and `self`.
    /// Counters only grow, but fields are subtracted saturating so a
    /// mismatched baseline degrades to zeros instead of wrapping.
    /// `wall_s` is carried over from `self` unchanged — snapshots record
    /// no wall time of their own.
    pub fn delta(&self, baseline: &ExecStats) -> ExecStats {
        ExecStats {
            wall_s: self.wall_s,
            compile_hits: self.compile_hits.saturating_sub(baseline.compile_hits),
            compile_misses: self.compile_misses.saturating_sub(baseline.compile_misses),
            sim_hits: self.sim_hits.saturating_sub(baseline.sim_hits),
            sim_misses: self.sim_misses.saturating_sub(baseline.sim_misses),
            graph_hits: self.graph_hits.saturating_sub(baseline.graph_hits),
            graph_misses: self.graph_misses.saturating_sub(baseline.graph_misses),
            gate_hits: self.gate_hits.saturating_sub(baseline.gate_hits),
            gate_misses: self.gate_misses.saturating_sub(baseline.gate_misses),
            reused_blocks: self.reused_blocks.saturating_sub(baseline.reused_blocks),
            ..ExecStats::default()
        }
    }

    /// Accumulates `other` into `self`, field by field (`wall_s` adds
    /// too: the merged value is total work time, not makespan).
    ///
    /// # Multi-NPU aggregation
    ///
    /// This is the only sound way to total stats across the NPUs of a
    /// fleet — but only over **deltas**. `Npu::stats()` snapshots are
    /// cumulative over a cache set's lifetime, and NPUs built by
    /// [`crate::Npu::fleet`] (or cloning) *share* one cache set: summing
    /// raw snapshots from such NPUs counts every shared lookup once per
    /// NPU. Snapshot each NPU before and after the work, take per-NPU
    /// [`ExecStats::delta`]s — under shared caches, one delta from one
    /// member already covers the whole group — and `merge` those.
    pub fn merge(&mut self, other: &ExecStats) {
        self.wall_s += other.wall_s;
        self.compile_hits += other.compile_hits;
        self.compile_misses += other.compile_misses;
        self.sim_hits += other.sim_hits;
        self.sim_misses += other.sim_misses;
        self.graph_hits += other.graph_hits;
        self.graph_misses += other.graph_misses;
        self.gate_hits += other.gate_hits;
        self.gate_misses += other.gate_misses;
        self.reused_blocks += other.reused_blocks;
    }

    /// Total lookups across the four counted caches.
    pub fn lookups(&self) -> u64 {
        self.compile_hits
            + self.compile_misses
            + self.sim_hits
            + self.sim_misses
            + self.graph_hits
            + self.graph_misses
            + self.gate_hits
            + self.gate_misses
    }

    /// Overall hit rate in `[0, 1]` (zero when no lookups happened,
    /// e.g. on an uncached run).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.compile_hits + self.sim_hits + self.graph_hits + self.gate_hits) as f64
                / lookups as f64
        }
    }
}

/// The result of running one model end-to-end on the NPU-Tandem.
#[derive(Debug, Clone, Default)]
pub struct NpuReport {
    /// End-to-end latency in cycles (tile-pipelined blocks summed).
    pub total_cycles: u64,
    /// Per-unit busy cycles.
    pub busy: UnitBusy,
    /// Tandem cycles attributed to each operator kind (GEMM kinds carry
    /// the GEMM unit's cycles) — the Figure 24 breakdown.
    pub per_kind_cycles: BTreeMap<OpKind, u64>,
    /// Bytes moved to/from DRAM by the Tandem side.
    pub tandem_dram_bytes: u64,
    /// Bytes moved to/from DRAM by the GEMM unit.
    pub gemm_dram_bytes: u64,
    /// Tandem Processor energy breakdown (Figure 25 categories).
    pub tandem_energy: EnergyBreakdown,
    /// GEMM unit energy in nanojoules.
    pub gemm_energy_nj: f64,
    /// Static/background energy of the whole NPU in nanojoules.
    pub static_nj: f64,
    /// Aggregate Tandem event counters.
    pub counters: EventCounters,
    /// Total GEMM multiply-accumulates executed.
    pub gemm_macs: u64,
    /// Peak MAC slots per cycle of the GEMM unit.
    pub gemm_mac_slots: u64,
    /// SIMD lanes of the Tandem Processor.
    pub tandem_lanes: u64,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Critical-path cycle attribution: where every cycle of
    /// `total_cycles` went (compute per unit, front-end stalls, sync
    /// waits, DAE excess, tile-pipeline fill/drain). Maintained so that
    /// `attribution.total() == total_cycles` exactly.
    pub attribution: CycleAttribution,
    /// Host-side wall-time and cache statistics (not part of equality).
    pub stats: ExecStats,
}

/// Equality over the *modeled* execution only: every architectural field
/// participates, `stats` (host wall-time, cache hit counts) does not.
impl PartialEq for NpuReport {
    fn eq(&self, other: &Self) -> bool {
        self.total_cycles == other.total_cycles
            && self.busy == other.busy
            && self.per_kind_cycles == other.per_kind_cycles
            && self.tandem_dram_bytes == other.tandem_dram_bytes
            && self.gemm_dram_bytes == other.gemm_dram_bytes
            && self.tandem_energy == other.tandem_energy
            && self.gemm_energy_nj == other.gemm_energy_nj
            && self.static_nj == other.static_nj
            && self.counters == other.counters
            && self.gemm_macs == other.gemm_macs
            && self.gemm_mac_slots == other.gemm_mac_slots
            && self.tandem_lanes == other.tandem_lanes
            && self.freq_ghz == other.freq_ghz
            && self.attribution == other.attribution
    }
}

impl NpuReport {
    /// End-to-end wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Total energy (GEMM + Tandem + static) in nanojoules.
    pub fn total_energy_nj(&self) -> f64 {
        self.gemm_energy_nj + self.tandem_energy.total_nj() + self.static_nj
    }

    /// Average power in watts.
    pub fn average_power_w(&self) -> f64 {
        self.total_energy_nj() * 1e-9 / self.seconds().max(1e-12)
    }

    /// GEMM-unit compute utilization: achieved MACs over peak MAC slots
    /// across the whole run (the Figure 8 metric).
    pub fn gemm_utilization(&self) -> f64 {
        let peak = self.total_cycles as f64 * self.gemm_mac_slots as f64;
        if peak == 0.0 {
            0.0
        } else {
            self.gemm_macs as f64 / peak
        }
    }

    /// Tandem Processor utilization: ALU lane-ops over peak lane slots.
    pub fn tandem_utilization(&self) -> f64 {
        let peak = self.total_cycles as f64 * self.tandem_lanes as f64;
        if peak == 0.0 {
            0.0
        } else {
            self.counters.alu_lane_ops as f64 / peak
        }
    }

    /// Cycles attributed to GEMM-class operators.
    pub fn gemm_kind_cycles(&self) -> u64 {
        self.per_kind_cycles
            .iter()
            .filter(|(k, _)| k.class() == tandem_model::OpClass::Gemm)
            .map(|(_, &c)| c)
            .sum()
    }

    /// Cycles attributed to non-GEMM operators.
    pub fn non_gemm_kind_cycles(&self) -> u64 {
        self.per_kind_cycles
            .iter()
            .filter(|(k, _)| k.class().is_non_gemm())
            .map(|(_, &c)| c)
            .sum()
    }

    /// Fraction of attributed cycles spent on non-GEMM operators.
    pub fn non_gemm_fraction(&self) -> f64 {
        let total = (self.gemm_kind_cycles() + self.non_gemm_kind_cycles()).max(1);
        self.non_gemm_kind_cycles() as f64 / total as f64
    }
}

impl std::fmt::Display for NpuReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "latency {:.3} ms | energy {:.3} mJ | power {:.2} W",
            self.seconds() * 1e3,
            self.total_energy_nj() * 1e-6,
            self.average_power_w()
        )?;
        write!(
            f,
            "gemm util {:.1}% | tandem util {:.1}% | non-GEMM share {:.1}%",
            self.gemm_utilization() * 100.0,
            self.tandem_utilization() * 100.0,
            self.non_gemm_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_never_empty_and_carries_units() {
        let r = NpuReport {
            total_cycles: 1_000_000,
            freq_ghz: 1.0,
            gemm_mac_slots: 1024,
            tandem_lanes: 32,
            ..Default::default()
        };
        let text = r.to_string();
        assert!(text.contains("ms"));
        assert!(text.contains("util"));
    }

    #[test]
    fn merge_sums_every_counter_and_wall_time() {
        let a = ExecStats {
            wall_s: 0.25,
            compile_hits: 1,
            compile_misses: 2,
            sim_hits: 3,
            sim_misses: 4,
            graph_hits: 7,
            graph_misses: 8,
            gate_hits: 9,
            gate_misses: 10,
            reused_blocks: 11,
            ..ExecStats::default()
        };
        let b = ExecStats {
            wall_s: 0.75,
            compile_hits: 10,
            compile_misses: 20,
            sim_hits: 30,
            sim_misses: 40,
            graph_hits: 70,
            graph_misses: 80,
            gate_hits: 90,
            gate_misses: 100,
            reused_blocks: 110,
            ..ExecStats::default()
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.wall_s, 1.0);
        assert_eq!(m.compile_hits, 11);
        assert_eq!(m.compile_misses, 22);
        assert_eq!(m.sim_hits, 33);
        assert_eq!(m.sim_misses, 44);
        assert_eq!(m.graph_hits, 77);
        assert_eq!(m.graph_misses, 88);
        assert_eq!(m.gate_hits, 99);
        assert_eq!(m.gate_misses, 110);
        assert_eq!(m.reused_blocks, 121);
        assert_eq!(m.lookups(), a.lookups() + b.lookups());
        assert_eq!(a.lookups(), 1 + 2 + 3 + 4 + 7 + 8 + 9 + 10);
    }

    #[test]
    fn merged_deltas_from_shared_caches_do_not_double_count() {
        // Two fleet members sharing one cache set: the raw snapshots are
        // identical (the counters are shared), so summing snapshots
        // double-counts. Deltas against a common baseline merge cleanly:
        // each member contributes only what moved during its own window.
        use crate::executor::{Npu, NpuConfig};
        let fleet = Npu::fleet(&[NpuConfig::paper(), NpuConfig::paper()]);
        let before = fleet[0].stats();
        let graph = tandem_model::zoo::mobilenetv2();
        fleet[0].run(&graph);
        let after_first = fleet[0].stats();
        fleet[1].run(&graph);
        let after_second = fleet[1].stats();
        let mut merged = after_first.delta(&before);
        merged.merge(&after_second.delta(&after_first));
        // The merged deltas equal the shared counters' total movement …
        assert_eq!(
            merged.lookups(),
            after_second.delta(&before).lookups(),
            "per-window deltas must tile the total exactly"
        );
        // … while summing the raw snapshots overstates it.
        let mut naive = after_first;
        naive.merge(&after_second);
        assert!(naive.lookups() > after_second.lookups());
        // The second member's run hit the shared graph-level cache.
        assert_eq!(after_second.delta(&after_first).graph_hits, 1);
    }

    #[test]
    fn merge_of_disjoint_deltas_equals_the_concatenated_run() {
        // The asserted form of the `merge` doc note: per-window deltas
        // over one shared cache set tile the timeline, so merging them
        // must reproduce the whole-run delta *counter for counter* — not
        // just in aggregate lookups.
        use crate::executor::{Npu, NpuConfig};
        let fleet = Npu::fleet(&[NpuConfig::paper(), NpuConfig::paper()]);
        let graph = tandem_model::zoo::mobilenetv2();
        let before = fleet[0].stats();
        let mut merged = ExecStats::default();
        let mut last = before;
        // Four disjoint windows alternating members of the shared set.
        for i in 0..4 {
            fleet[i % 2].run(&graph);
            let now = fleet[i % 2].stats();
            merged.merge(&now.delta(&last));
            last = now;
        }
        let mut whole = fleet[1].stats().delta(&before);
        assert!(whole.lookups() > 0, "the windows must have moved counters");
        // Field-for-field equality, host wall-time excluded.
        merged.wall_s = 0.0;
        whole.wall_s = 0.0;
        assert_eq!(
            merged, whole,
            "merged disjoint deltas must equal the concatenated run"
        );
    }

    #[test]
    fn utilization_is_zero_without_cycles() {
        let r = NpuReport::default();
        assert_eq!(r.gemm_utilization(), 0.0);
        assert_eq!(r.tandem_utilization(), 0.0);
        assert_eq!(r.non_gemm_fraction(), 0.0);
    }
}
