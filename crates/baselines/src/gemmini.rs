//! The Gemmini-like design point (paper §7 / Figures 16–17): a systolic
//! array, the dedicated-unit set of Baseline (2) on chip, and one or more
//! in-order scalar RISC-V cores executing the remaining non-GEMM
//! operators. Depth-wise convolutions are im2col-expanded into
//! low-utilization GEMMs — the behaviour Figure 17 shows consuming 90% of
//! MobileNetV2/EfficientNet runtime.

use crate::fallback::DEDICATED_OPS;
use crate::platform::{Platform, PlatformReport};
use gemm_sim::{GemmConfig, GemmUnit, GemmWorkload};
use tandem_model::{Graph, NodeCost, OpClass, OpKind};

/// Per-element scalar instruction cost on the in-order core: two loads,
/// one store, three address-arithmetic instructions, two loop-control
/// instructions, the operation itself, and the cache-miss stalls of a
/// blocking in-order core streaming from DRAM.
const SCALAR_CYCLES_PER_ELEMENT_OP: f64 = 20.0;

/// Runtime breakdown of one Gemmini run (Figure 17's three components).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GemminiBreakdown {
    /// Systolic-array seconds (including im2col'd depthwise GEMMs).
    pub gemm_s: f64,
    /// Dedicated-unit seconds (ReLU/Clip/Add/MaxPool + the im2col engine).
    pub dedicated_s: f64,
    /// Scalar RISC-V core seconds.
    pub riscv_s: f64,
}

impl GemminiBreakdown {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.gemm_s + self.dedicated_s + self.riscv_s
    }
}

/// The Gemmini-like platform.
#[derive(Debug, Clone)]
pub struct Gemmini {
    gemm: GemmUnit,
    /// Number of scalar cores (1 in stock Gemmini; the paper's iso-resource
    /// comparison scales to the Tandem Processor's lane count, §7:
    /// "optimistically scale down the CPU runtime … with the number of
    /// integrated cores").
    pub cores: usize,
    /// Core frequency in GHz.
    pub core_ghz: f64,
    /// SoC power, watts (array + core + SRAM).
    pub power_w: f64,
}

impl Gemmini {
    /// Stock single-core Gemmini.
    pub fn new() -> Self {
        Gemmini {
            gemm: GemmUnit::new(GemmConfig::paper()),
            cores: 1,
            core_ghz: 1.0,
            power_w: 2.5,
        }
    }

    /// The iso-resource scale-up with one core per Tandem lane.
    pub fn multicore(cores: usize) -> Self {
        Gemmini {
            cores,
            ..Self::new()
        }
    }

    /// Runs with the Figure 17 breakdown.
    pub fn run_breakdown(&self, graph: &Graph) -> GemminiBreakdown {
        let mut b = GemminiBreakdown::default();
        let freq = self.gemm.config().freq_ghz * 1e9;
        for node in graph.nodes() {
            let cost = NodeCost::of(graph, node);
            match node.kind {
                k if k.class() == OpClass::Gemm => {
                    let r = self.gemm.layer_report(GemmWorkload::of_node(graph, node));
                    b.gemm_s += r.overlapped_cycles() as f64 / freq;
                }
                OpKind::DepthwiseConv => {
                    // im2col expansion: the dedicated engine writes k²
                    // copies of every input element …
                    let k = node.attrs.kernel as u64;
                    let im2col_elems = cost.out_elems * k * k;
                    // the im2col engine materializes k² strided copies of
                    // every element — one gather/scatter per cycle
                    b.dedicated_s += 2.0 * im2col_elems as f64 / freq;
                    // … and the array runs one GEMM per channel with a
                    // k²-deep reduction: only k² of the 32-row reduction
                    // depth is used, so utilization collapses.
                    let out = &graph.tensor(node.outputs[0]).shape;
                    let (c, oh, ow) = (out.dim(1) as u64, out.dim(2) as u64, out.dim(3) as u64);
                    let per_channel = GemmWorkload::new(oh * ow, k * k, 1);
                    let r = self.gemm.layer_report(per_channel);
                    b.gemm_s += (r.compute_cycles * c) as f64 / freq;
                }
                k if DEDICATED_OPS.contains(&k) => {
                    // dedicated streaming blocks, 8 elements/cycle
                    b.dedicated_s += cost.out_elems as f64 / (8.0 * freq);
                }
                k if k.class() == OpClass::LayoutTransform => {
                    // scalar copy loop on the core
                    let cycles = cost.out_elems as f64 * SCALAR_CYCLES_PER_ELEMENT_OP;
                    b.riscv_s += cycles / (self.core_ghz * 1e9 * self.cores as f64);
                }
                k => {
                    // scalar expansion of the complex operator
                    let expansion = tandem_model::operator_roofline(k, 1.0, 1.0).ops_per_element;
                    let cycles =
                        cost.out_elems as f64 * expansion.max(1.0) * SCALAR_CYCLES_PER_ELEMENT_OP;
                    b.riscv_s += cycles / (self.core_ghz * 1e9 * self.cores as f64);
                }
            }
        }
        b
    }
}

impl Default for Gemmini {
    fn default() -> Self {
        Self::new()
    }
}

impl Platform for Gemmini {
    fn name(&self) -> &str {
        "Gemmini (RISC-V core + dedicated units)"
    }

    fn run(&self, graph: &Graph) -> PlatformReport {
        let b = self.run_breakdown(graph);
        PlatformReport {
            gemm_s: b.gemm_s,
            non_gemm_s: b.dedicated_s + b.riscv_s,
            comm_s: 0.0,
            energy_j: self.power_w * b.total_s(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::zoo;

    #[test]
    fn im2col_dominates_mobilenet() {
        // Paper Figure 17: "Gemmini spends a large amount of time (90% of
        // runtime) on its im2col dedicated unit" + the resulting
        // low-utilization GEMMs for MobileNetV2/EfficientNet.
        let b = Gemmini::new().run_breakdown(&zoo::mobilenetv2());
        let dw_related = (b.dedicated_s + b.gemm_s) / b.total_s();
        assert!(dw_related > 0.5, "depthwise path fraction {dw_related}");
    }

    #[test]
    fn riscv_core_bottlenecks_transformers() {
        // Figure 17: "For YoloV3, BERT, and GPT-2 RISC-V core is the
        // bottleneck".
        for graph in [zoo::bert_base(128), zoo::gpt2(128), zoo::yolov3()] {
            let b = Gemmini::new().run_breakdown(&graph);
            assert!(
                b.riscv_s > b.gemm_s && b.riscv_s > b.dedicated_s,
                "{}: riscv {} gemm {} dedicated {}",
                graph.name,
                b.riscv_s,
                b.gemm_s,
                b.dedicated_s
            );
        }
    }

    #[test]
    fn multicore_scaling_helps_core_bound_models() {
        let one = Gemmini::new().run(&zoo::bert_base(128)).total_s();
        let many = Gemmini::multicore(32).run(&zoo::bert_base(128)).total_s();
        assert!(
            many < one / 3.0,
            "32 cores {many} vs 1 core {one} — should scale"
        );
    }
}
