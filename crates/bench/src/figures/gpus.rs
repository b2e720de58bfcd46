//! Figures 20–23: the GPU comparisons (perf/W vs Jetson/RTX; iso-TOPs vs
//! A100).

use crate::geomean;
use crate::suite::Suite;
use crate::table::{pct, ratio, Table};
use tandem_npu::{Npu, NpuConfig, NpuReport};

/// Figure 20: performance-per-watt, normalized to Jetson Xavier NX.
pub fn fig20_perf_per_watt(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 20 — perf/W normalized to Jetson Xavier NX",
        &["model", "NPU-Tandem", "RTX 2080 Ti"],
    );
    let mut npu_col = Vec::new();
    let mut rtx_col = Vec::new();
    for (i, name) in suite.names().iter().enumerate() {
        let r = &suite.tandem[i];
        let npu_ppw = (1.0 / r.seconds()) / r.average_power_w().max(1e-9);
        let jetson_ppw = suite.jetson[i].perf_per_watt();
        let rtx_ppw = suite.rtx[i].perf_per_watt();
        let a = npu_ppw / jetson_ppw;
        let b = rtx_ppw / jetson_ppw;
        npu_col.push(a);
        rtx_col.push(b);
        t.row(vec![name.to_string(), ratio(a), ratio(b)]);
    }
    t.labelled_row("geomean", [npu_col, rtx_col].map(|c| ratio(geomean(&c))));
    t.note("paper: NPU-Tandem 4.8x over Jetson; RTX 2080 Ti ~20% below Jetson on average");
    t
}

/// The iso-TOPs (216×) NPU-Tandem reports, computed once.
pub fn scaled_reports(suite: &Suite) -> Vec<NpuReport> {
    let npu = Npu::new(NpuConfig::iso_a100());
    suite.models.iter().map(|(_, g)| npu.run(g)).collect()
}

/// Figure 21: iso-TOPs speedup over the A100, normalized to CUDA
/// execution.
pub fn fig21_a100(suite: &Suite) -> Table {
    let scaled = scaled_reports(suite);
    let mut t = Table::new(
        "Figure 21 — iso-TOPs comparison to A100 (normalized to CUDA execution)",
        &["model", "NPU-Tandem", "A100 TensorRT", "NPU vs TensorRT"],
    );
    let mut vs_cuda = Vec::new();
    let mut trt_vs_cuda = Vec::new();
    let mut vs_trt = Vec::new();
    for (i, name) in suite.names().iter().enumerate() {
        let npu_s = scaled[i].seconds();
        let cuda_s = suite.a100_cuda[i].total_s();
        let trt_s = suite.a100_trt[i].total_s();
        let a = cuda_s / npu_s;
        let b = cuda_s / trt_s;
        let c = trt_s / npu_s;
        vs_cuda.push(a);
        trt_vs_cuda.push(b);
        vs_trt.push(c);
        t.row(vec![name.to_string(), ratio(a), ratio(b), ratio(c)]);
    }
    t.labelled_row(
        "geomean",
        [vs_cuda, trt_vs_cuda, vs_trt].map(|c| ratio(geomean(&c))),
    );
    t.note("paper: 4.0x over CUDA execution; ~parity with TensorRT (1.025x)");
    t
}

/// Figure 22: GEMM / non-GEMM runtime split, scaled NPU-Tandem vs A100
/// CUDA.
pub fn fig22_a100_breakdown(suite: &Suite) -> Table {
    let scaled = scaled_reports(suite);
    let mut t = Table::new(
        "Figure 22 — runtime breakdown, iso-TOPs NPU-Tandem vs A100 (CUDA)",
        &[
            "model",
            "NPU GEMM",
            "NPU non-GEMM",
            "A100 GEMM",
            "A100 non-GEMM",
        ],
    );
    for (i, name) in suite.names().iter().enumerate() {
        let r = &scaled[i];
        let (g, n) = (r.gemm_kind_cycles() as f64, r.non_gemm_kind_cycles() as f64);
        let total = (g + n).max(1.0);
        let cuda = &suite.a100_cuda[i];
        let (cg, cn, _) = cuda.fractions();
        t.labelled_row(name, [g / total, n / total, cg, cn].map(pct));
    }
    t.note("paper: non-GEMM dominates the A100-CUDA time of MobileNetV2/EfficientNet/BERT/GPT-2");
    t
}

/// Figure 23: non-GEMM-only speedup of the scaled Tandem Processor over
/// A100 CUDA cores.
pub fn fig23_nongemm_speedup(suite: &Suite) -> Table {
    let scaled = scaled_reports(suite);
    let mut t = Table::new(
        "Figure 23 — non-GEMM speedup over A100 CUDA cores (iso-TOPs)",
        &["model", "speedup"],
    );
    let mut col = Vec::new();
    for (i, name) in suite.names().iter().enumerate() {
        let tandem_ng_s = scaled[i].non_gemm_kind_cycles() as f64 / (scaled[i].freq_ghz * 1e9);
        let v = suite.a100_cuda[i].non_gemm_s / tandem_ng_s.max(1e-12);
        col.push(v);
        t.row(vec![name.to_string(), ratio(v)]);
    }
    t.labelled_row("geomean", [ratio(geomean(&col))]);
    t.note("paper: 3.4x average; BERT 8.0x, ResNet-50 5.2x, MobileNetV2 4.5x; GPT-2 memory-bandwidth-limited");
    t
}
