//! The experiment registry: every reproduced paper table and figure in
//! paper order, and the marked extensions beyond the paper, each with its
//! claim, the function that renders it, the printed numbers its verdict
//! rests on and the band each must stay in.
//!
//! `tandem figure <id>|all` prints from it, `tests/figures_render.rs`
//! renders every entry, checks every headline against its band, pins the
//! full `figure all` text to a golden, and checks the EXPERIMENTS.md table
//! against one generated from it.

use crate::figures::{breakdowns::*, characterization::*, extensions::*, gpus::*, headline::*};
use crate::figures::{specialization::*, vpu::*};
use crate::suite::Suite;
use crate::table::Table;

/// One experiment: a paper table or figure, or an extension.
#[derive(Debug)]
pub struct Experiment {
    /// The `tandem figure` id: `table1`, `fig01` … `fig26` for the
    /// paper; `fig24b` (after `fig24`), `dse`, `seq` and `llm` (after
    /// `fig26`) for the extensions.
    pub id: &'static str,
    /// What the paper measures and claims, in one line.
    pub claim: &'static str,
    /// Renders the experiment's tables (one, except Figure 4's three and
    /// the sequence sweep's two).
    pub render: fn(&Suite) -> Vec<Table>,
    /// The printed numbers the verdict rests on.
    pub headlines: &'static [Headline],
    /// How the measured shape compares with the paper's.
    pub verdict: &'static str,
}

/// A headline number `(row, column, lo, hi)`: the [`number`] printed at
/// `row` / `column`, which must lie in `lo..=hi` (`hi` is
/// `f64::INFINITY` for a floor only).
pub type Headline = (&'static str, &'static str, f64, f64);

/// The number printed under `column` in the first row of `tables` holding
/// a cell equal to `row`, read up to its unit: `3.25x` is 3.25, `25.3%` is
/// 25.3, `32 lanes` is 32.
pub fn number(tables: &[Table], row: &str, column: &str) -> Option<f64> {
    let cell = tables.iter().find_map(|t| t.cell(row, column))?;
    let end = cell
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(cell.len());
    cell[..end].parse().ok()
}

/// The `tandem figure` text of rendered tables: each followed by a blank
/// line.
pub fn text(tables: &[Table]) -> String {
    tables.iter().map(|t| format!("{t}\n")).collect()
}

/// The experiment registered under `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Every experiment in paper order, each extension after the figure it
/// accompanies or, standing alone, after `fig26`.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        claim: "operator classes: 5 non-GEMM classes across the suite",
        render: |s| vec![table1_operator_classes(s)],
        headlines: &[],
        verdict: "✅ identical classification; per-model operator lists regenerated",
    },
    Experiment {
        id: "fig01",
        claim: "operator variety: VGG-16 ≈ 3 non-GEMM types → ~10 for the language models",
        render: |s| vec![fig01_operator_types(s)],
        headlines: &[("GPT-2", "non-GEMM types", 8.0, 20.0)],
        verdict: "✅ growth trend reproduced; our LayerNorm/GELU decompositions surface a few more kinds",
    },
    Experiment {
        id: "fig02",
        claim: "cumulative op counts: ~15% of all nodes are GEMM",
        render: |s| vec![fig02_cumulative_ops(s)],
        headlines: &[("GPT-2", "GEMM share", 10.0, 30.0)],
        verdict: "✅ band; transformers dominate the non-GEMM count (deviation 1)",
    },
    Experiment {
        id: "fig03",
        claim: "runtime breakdown: non-GEMM reaches 81% of EfficientNet on Baseline (2), 73% on the GPU",
        render: |s| vec![fig03_runtime_breakdown(s)],
        headlines: &[("EfficientNet", "B2 nonG", 20.0, 90.0)],
        verdict: "✅ shape; on Baseline (2) its PCIe transfers take most of the rest, and our TensorRT model fuses more on the GPU",
    },
    Experiment {
        id: "fig04",
        claim: "repeated subgraphs: Conv→Relu chains with residual Adds (ResNet-50), Conv→Clip→DWConv→Clip (MobileNetV2), MatMul/Softmax attention (BERT)",
        render: fig04_subgraphs,
        headlines: &[("[MatMul]→(Div)→(Add)→(Softmax)", "count", 12.0, 12.0)],
        verdict: "✅ the partitioner's fused blocks are the paper's subgraphs; one attention block per BERT layer",
    },
    Experiment {
        id: "table2",
        claim: "design classes: qualitative matrix",
        render: |s| vec![table2_design_classes(s)],
        headlines: &[],
        verdict: "✅ verbatim",
    },
    Experiment {
        id: "fig05",
        claim: "roofline: all analyzed operators are memory-bound except Softmax and GeLU",
        render: |s| vec![fig05_roofline(s)],
        headlines: &[
            ("Softmax", "intensity", 2.0, f64::INFINITY),
            ("Tanh", "intensity", 0.0, 1.99),
        ],
        verdict: "✅ identical split at the 2 ops/B ridge point",
    },
    Experiment {
        id: "fig06",
        claim: "overhead each specialization removes: regfile LD/ST 41% non-GEMM / 27% E2E; address calculation 59% / 40%; branch loops 70% / 47%",
        render: |s| vec![fig06_specialization_overheads(s)],
        headlines: &[("mean", "(c) loop N-G", 35.0, 95.0)],
        verdict: "✅ band; our E2E shares are smaller because our E2E is more GEMM-weighted",
    },
    Experiment {
        id: "fig08",
        claim: "tile vs layer granularity: +20% GEMM-unit and +13% Tandem utilization",
        render: |s| vec![fig08_utilization(s)],
        headlines: &[
            ("mean", "GEMM util (tile)", 25.0, 60.0),
            ("mean", "Tandem util (tile)", 20.0, 60.0),
        ],
        verdict: "✅ shape: tile granularity raises both units' utilization",
    },
    Experiment {
        id: "table3",
        claim: "configuration: 32×32 array, 32 lanes, 384/128/128 KB, INT8/INT32, 1 GHz",
        render: |s| vec![table3_config(s)],
        headlines: &[("dimensions", "Tandem Processor", 32.0, 32.0)],
        verdict: "✅ identical",
    },
    Experiment {
        id: "fig14",
        claim: "speedup over Baselines (1) / (2): 3.5× / 2.7× (MobileNetV2 5.9× / 5.4×, BERT 5.4× / 4.5×)",
        render: |s| vec![fig14_speedup_baselines(s)],
        headlines: &[
            ("geomean", "vs baseline(1)", 2.0, 6.0),
            ("geomean", "vs baseline(2)", 1.5, 4.5),
        ],
        verdict: "✅ MobileNetV2 gains the most",
    },
    Experiment {
        id: "fig15",
        claim: "energy reduction over Baselines (1) / (2): 39.2× / 20.6×",
        render: |s| vec![fig15_energy_baselines(s)],
        headlines: &[
            ("geomean", "vs baseline(1)", 20.0, 160.0),
            ("geomean", "vs baseline(2)", 10.0, 80.0),
        ],
        verdict: "✅ order of magnitude; our host-power attribution is coarser",
    },
    Experiment {
        id: "fig16",
        claim: "speedup over Gemmini 1-core / 32-core: 47.8× / 5.9× (min 0.9× VGG-16); multicore helps Gemmini 8.0×",
        render: |s| vec![fig16_gemmini(s)],
        headlines: &[
            ("geomean", "vs 1-core", 10.0, 70.0),
            ("geomean", "vs 32-core", 2.0, 10.0),
            ("VGG-16", "vs 1-core", 0.7, 2.0),
            ("MobileNetV2", "vs 32-core", 8.0, f64::INFINITY),
            ("BERT", "32-core self-gain", 10.0, f64::INFINITY),
        ],
        verdict: "✅ shape: more cores rescue the core-bound transformers, not the im2col path",
    },
    Experiment {
        id: "fig17",
        claim: "Gemmini breakdown: im2col ≈ 90% for MobileNetV2/EfficientNet; the RISC-V core bottlenecks YOLOv3/BERT/GPT-2",
        render: |s| vec![fig17_gemmini_breakdown(s)],
        headlines: &[("MobileNetV2", "dedicated+im2col", 60.0, 100.0)],
        verdict: "✅ shape; EfficientNet lands core-bound (deviation 2)",
    },
    Experiment {
        id: "fig18",
        claim: "speedup over TPU+VPU, cumulative: regfile 1.4×, +loops 2.1×, +OBUF ≈ ×1.1, final 2.6×",
        render: |s| vec![fig18_vpu_speedup(s)],
        headlines: &[("geomean", "+special fns (final)", 1.2, 4.0)],
        verdict: "✅ shape; final low (deviation 3)",
    },
    Experiment {
        id: "fig19",
        claim: "energy reduction over TPU+VPU: final 1.4× (regfile worth 1.2×; MobileNetV2 2.0×)",
        render: |s| vec![fig19_vpu_energy(s)],
        headlines: &[("geomean", "+special fns (final)", 1.0, 3.0)],
        verdict: "✅",
    },
    Experiment {
        id: "fig20",
        claim: "perf/W over Jetson Xavier NX: NPU-Tandem 4.8×; RTX 2080 Ti ≈ 0.8×",
        render: |s| vec![fig20_perf_per_watt(s)],
        headlines: &[("geomean", "NPU-Tandem", 1.5, 8.0)],
        verdict: "✅ direction",
    },
    Experiment {
        id: "fig21",
        claim: "iso-TOPs vs A100: 4.0× over CUDA; ≈ parity with TensorRT",
        render: |s| vec![fig21_a100(s)],
        headlines: &[
            ("geomean", "NPU-Tandem", 1.2, 6.0),
            ("geomean", "NPU vs TensorRT", 0.3, 2.0),
        ],
        verdict: "⚠️ direction holds; our TensorRT model fuses more aggressively than the real stack (deviation 4)",
    },
    Experiment {
        id: "fig22",
        claim: "breakdown vs A100 CUDA: non-GEMM dominates A100 time for MobileNetV2/EfficientNet/BERT/GPT-2",
        render: |s| vec![fig22_a100_breakdown(s)],
        headlines: &[("BERT", "A100 non-GEMM", 50.0, 100.0)],
        verdict: "✅ the NPU flips them to GEMM-bound",
    },
    Experiment {
        id: "fig23",
        claim: "non-GEMM-only speedup over A100: 3.4× (BERT 8.0×; GPT-2 bandwidth-limited)",
        render: |s| vec![fig23_nongemm_speedup(s)],
        headlines: &[("geomean", "speedup", 1.5, 40.0)],
        verdict: "⚠️ overshoot: our A100-CUDA non-GEMM model is launch-overhead-dominated while the scaled Tandem runs SRAM-resident; the ranking (BERT/GPT-2 highest) matches (deviation 4)",
    },
    Experiment {
        id: "fig24",
        claim: "NPU-Tandem breakdown: dwconv dominates MobileNetV2/EfficientNet; GELU+transpose BERT; ReduceMean GPT-2; GEMM once Tandem removes the rest",
        render: |s| vec![fig24_tandem_breakdown(s)],
        headlines: &[("MobileNetV2", "dwconv", 20.0, 80.0)],
        verdict: "✅ EfficientNet's swish activations outweigh its dwconv",
    },
    Experiment {
        id: "fig24b",
        claim: "critical-path cycle attribution (companion of Fig 24, not in the paper): six buckets sum to the latency",
        render: |s| vec![fig24b_cycle_attribution(s)],
        headlines: &[("MobileNetV2", "tandem compute", 30.0, 100.0)],
        verdict: "✅ Tandem compute is on the critical path of the non-GEMM-heavy models",
    },
    Experiment {
        id: "fig25",
        claim: "Tandem energy breakdown: DRAM 31%, on-chip 13%, ALU 12%, loop+addr 40%",
        render: |s| vec![fig25_energy_breakdown(s)],
        headlines: &[
            ("mean", "off-chip DRAM", 15.0, 70.0),
            ("mean", "on-chip SRAM", 3.0, 25.0),
            ("mean", "ALU", 3.0, 25.0),
            ("mean", "loop+addr", 15.0, 55.0),
            ("mean", "other", 0.0, 10.0),
        ],
        verdict: "✅",
    },
    Experiment {
        id: "fig26",
        claim: "area breakdown: 1.02 mm²; ALU 56.6%, Interim BUF 29.2%, permute 12.0%",
        render: |s| vec![fig26_area(s)],
        headlines: &[("ALU lanes", "share", 55.0, 58.0)],
        verdict: "✅ by construction: the model is fitted to the paper's post-layout data, then exercised parametrically",
    },
    Experiment {
        id: "dse",
        claim: "GeneSys generator sweep (§10, not in the paper): on BERT the latency × Tandem-area × energy frontier keeps 15 of 20 grid points; the paper's 32×512×32 is not on it",
        render: |_| vec![dse_frontier()],
        headlines: &[("32×256×32", "latency ms", 20.0, 35.0)],
        verdict: "✅ extension: halving the paper point's Interim BUF rows dominates it on BERT; every grid point compiles and verifies for the whole zoo",
    },
    Experiment {
        id: "seq",
        claim: "sequence-length scaling (§1–2 trend, not in the paper): attention's O(seq²) work grows the non-GEMM share of BERT and GPT-2 with context",
        render: |_| seq_scaling(),
        headlines: &[
            ("32", "non-GEMM share", 5.0, 20.0),
            ("512", "non-GEMM share", 35.0, 60.0),
        ],
        verdict: "✅ extension: BERT's non-GEMM share rises from 11% at 32 tokens to 48% at 512",
    },
    Experiment {
        id: "llm",
        claim: "LLaMA-style decoder (not in the paper): RMSNorm, RoPE and SwiGLU lower onto the unmodified primitive set",
        render: |_| vec![llm_preview()],
        headlines: &[("LLaMA-style (2023)", "non-GEMM share", 15.0, 40.0)],
        verdict: "✅ extension: no hardware change; its non-GEMM share sits with BERT's and GPT-2's",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_found() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len(), "duplicate experiment ids");
        assert_eq!(find("fig24b").map(|e| e.id), Some("fig24b"));
        assert!(find("nope").is_none());
    }
}
