//! Baselines (1) and (2) of the evaluation (§7): the same systolic GEMM
//! unit either falling back to the off-chip CPU for every non-GEMM layer,
//! or augmented with a fixed set of dedicated on-chip blocks and falling
//! back for the rest.

use crate::cpu::{CpuModel, PcieModel};
use crate::platform::{Platform, PlatformReport};
use gemm_sim::{GemmConfig, GemmUnit, GemmWorkload};
use tandem_model::{Graph, Node, NodeCost, OpClass, OpKind};

/// Operators the dedicated on-chip blocks of Baseline (2) support
/// (paper §7: "Relu, Clip, Residual Add, MaxPool, and scale & shift,
/// similar to the design in Gemmini").
pub const DEDICATED_OPS: [OpKind; 6] = [
    OpKind::Relu,
    OpKind::Clip,
    OpKind::Add,
    OpKind::MaxPool,
    OpKind::BitShift,
    OpKind::Cast,
];

/// GEMM seconds + traffic for all GEMM-class nodes of a graph.
pub(crate) fn gemm_side(graph: &Graph, unit: &GemmUnit) -> (f64, f64) {
    let mut seconds = 0.0;
    let mut energy_j = 0.0;
    for node in graph.nodes() {
        if node.kind.class() != OpClass::Gemm {
            continue;
        }
        let r = unit.layer_report(GemmWorkload::of_node(graph, node));
        seconds += r.overlapped_cycles() as f64 / (unit.config().freq_ghz * 1e9);
        energy_j += r.energy_nj * 1e-9;
    }
    (seconds, energy_j)
}

/// Baseline (1): every non-GEMM layer crosses PCIe to the host CPU and
/// back — INT32 activations out, (converted) activations back in.
#[derive(Debug, Clone)]
pub struct CpuFallback {
    gemm: GemmUnit,
    cpu: CpuModel,
    pcie: PcieModel,
    /// NPU-side power for the GEMM unit, watts.
    pub gemm_power_w: f64,
}

impl CpuFallback {
    /// The paper's Baseline (1).
    pub fn new() -> Self {
        CpuFallback {
            gemm: GemmUnit::new(GemmConfig::paper()),
            cpu: CpuModel::i9_9980xe(),
            pcie: PcieModel::gen3_x8(),
            gemm_power_w: 1.8,
        }
    }

    fn non_gemm_and_comm(
        &self,
        graph: &Graph,
        on_cpu: impl Fn(&Node) -> bool,
    ) -> (f64, f64, f64, f64) {
        let mut non_gemm_s = 0.0;
        let mut comm_s = 0.0;
        let mut cpu_energy = 0.0;
        let mut pcie_energy = 0.0;
        let mut prev_on_cpu = false;
        for node in graph.nodes() {
            if node.kind.class() == OpClass::Gemm {
                prev_on_cpu = false;
                continue;
            }
            if !on_cpu(node) {
                // handled on-chip by a dedicated unit: 32 elements/cycle,
                // bounded by streaming its INT8 operands through DRAM
                let cost = NodeCost::of(graph, node);
                let compute_s = cost.out_elems as f64 / 32e9;
                let dram_s = (cost.in_elems + cost.out_elems) as f64 / 16e9;
                non_gemm_s += compute_s.max(dram_s);
                prev_on_cpu = false;
                continue;
            }
            let cost = NodeCost::of(graph, node);
            // Cross PCIe on entry to a CPU region and once on exit; chained
            // CPU ops stay host-side.
            if !prev_on_cpu {
                let bytes = cost.in_elems * 4;
                comm_s += self.pcie.transfer_s(bytes);
                pcie_energy += self.pcie.energy_j(bytes);
            }
            let back = cost.out_elems * 4;
            comm_s += self.pcie.transfer_s(back);
            pcie_energy += self.pcie.energy_j(back);
            let s = self.cpu.node_seconds(graph, node);
            non_gemm_s += s;
            cpu_energy += self.cpu.energy_j(s);
            prev_on_cpu = true;
        }
        (non_gemm_s, comm_s, cpu_energy, pcie_energy)
    }

    fn run_with(&self, graph: &Graph, on_cpu: impl Fn(&Node) -> bool) -> PlatformReport {
        let (gemm_s, gemm_e) = gemm_side(graph, &self.gemm);
        let (non_gemm_s, comm_s, cpu_e, pcie_e) = self.non_gemm_and_comm(graph, on_cpu);
        let total_s = gemm_s + non_gemm_s + comm_s;
        // The host package cannot sleep while orchestrating the
        // accelerator: idle/uncore power accrues for the whole inference.
        let host_idle_w = 12.0;
        PlatformReport {
            gemm_s,
            non_gemm_s,
            comm_s,
            energy_j: gemm_e + cpu_e + pcie_e + self.gemm_power_w * gemm_s + host_idle_w * total_s,
        }
    }
}

impl Default for CpuFallback {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform for CpuFallback {
    fn name(&self) -> &str {
        "GEMM + off-chip CPU"
    }

    fn run(&self, graph: &Graph) -> PlatformReport {
        self.run_with(graph, |_| true)
    }
}

/// Baseline (2): dedicated on-chip units for [`DEDICATED_OPS`]; CPU
/// fallback (with PCIe crossings) for everything else.
#[derive(Debug, Clone, Default)]
pub struct DedicatedUnits {
    inner: CpuFallback,
}

impl DedicatedUnits {
    /// The paper's Baseline (2).
    pub fn new() -> Self {
        DedicatedUnits {
            inner: CpuFallback::new(),
        }
    }
}

impl Platform for DedicatedUnits {
    fn name(&self) -> &str {
        "GEMM + dedicated units"
    }

    fn run(&self, graph: &Graph) -> PlatformReport {
        self.inner
            .run_with(graph, |node| !DEDICATED_OPS.contains(&node.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::zoo;

    #[test]
    fn dedicated_units_beat_pure_cpu_fallback() {
        for graph in [zoo::vgg16(), zoo::resnet50()] {
            let b1 = CpuFallback::new().run(&graph);
            let b2 = DedicatedUnits::new().run(&graph);
            assert!(
                b2.total_s() < b1.total_s(),
                "{}: b2 {} !< b1 {}",
                graph.name,
                b2.total_s(),
                b1.total_s()
            );
            assert!(b2.energy_j < b1.energy_j);
        }
    }

    #[test]
    fn newer_models_spend_more_time_off_chip() {
        // Paper Figure 3: EfficientNet/BERT are non-GEMM/PCIe dominated on
        // Baseline (2), VGG is not.
        let b2 = DedicatedUnits::new();
        let vgg = b2.run(&zoo::vgg16());
        let eff = b2.run(&zoo::efficientnet_b0());
        let (vg, vn, vc) = vgg.fractions();
        let (eg, en, ec) = eff.fractions();
        assert!(vg > 0.5, "VGG GEMM fraction {vg}");
        assert!(en + ec > 0.6, "EfficientNet non-GEMM+comm {}", en + ec);
        let _ = (vn, vc, eg);
    }

    #[test]
    fn bert_on_baseline2_still_falls_back_heavily() {
        let b2 = DedicatedUnits::new().run(&zoo::bert_base(128));
        let (_, n, c) = b2.fractions();
        assert!(n + c > 0.5, "BERT fallback fraction {}", n + c);
    }
}
