//! Figures 24–26: where the NPU-Tandem's time, energy, and area go.

use crate::suite::Suite;
use crate::table::{pct, Table};
use tandem_core::{AreaModel, TandemConfig};
use tandem_model::{OpClass, OpKind};

/// Figure 24: NPU-Tandem runtime breakdown across GEMM and the major
/// non-GEMM layer families.
pub fn fig24_tandem_breakdown(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 24 — NPU-Tandem runtime breakdown by operator family",
        &[
            "model",
            "GEMM",
            "dwconv",
            "pool/reduce",
            "softmax",
            "gelu/act",
            "layout",
            "other",
        ],
    );
    for (i, name) in suite.names().iter().enumerate() {
        let r = &suite.tandem[i];
        let total: u64 = r.per_kind_cycles.values().sum();
        let total = total.max(1) as f64;
        let mut gemm = 0u64;
        let mut dw = 0u64;
        let mut pool = 0u64;
        let mut softmax = 0u64;
        let mut act = 0u64;
        let mut layout = 0u64;
        let mut other = 0u64;
        for (&kind, &cycles) in &r.per_kind_cycles {
            match kind {
                k if k.class() == OpClass::Gemm => gemm += cycles,
                OpKind::DepthwiseConv => dw += cycles,
                OpKind::MaxPool
                | OpKind::AveragePool
                | OpKind::GlobalAveragePool
                | OpKind::ReduceMean => pool += cycles,
                OpKind::Softmax => softmax += cycles,
                k if k.class() == OpClass::Activation => act += cycles,
                OpKind::Erf | OpKind::Exp | OpKind::Sqrt | OpKind::Tanh => act += cycles,
                k if k.class() == OpClass::LayoutTransform => layout += cycles,
                _ => other += cycles,
            }
        }
        t.row(vec![
            name.to_string(),
            pct(gemm as f64 / total),
            pct(dw as f64 / total),
            pct(pool as f64 / total),
            pct(softmax as f64 / total),
            pct(act as f64 / total),
            pct(layout as f64 / total),
            pct(other as f64 / total),
        ]);
    }
    t.note("paper: depthwise conv dominates MobileNetV2/EfficientNet non-GEMM time; GELU+transpose dominate BERT; ReduceMean GPT-2");
    t
}

/// Figure 24 companion: the same runtime story regenerated from the
/// cycle-attribution rollup — every cycle of each model's latency in one
/// of the six critical-path buckets, shares summing to 100% by
/// construction ([`NpuReport::attribution`](tandem_npu::NpuReport)
/// maintains `total() == total_cycles` exactly).
pub fn fig24b_cycle_attribution(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 24 (companion) — critical-path cycle attribution",
        &[
            "model",
            "gemm compute",
            "tandem compute",
            "front-end stall",
            "sync wait",
            "dae wait",
            "fill/drain",
        ],
    );
    for (i, name) in suite.names().iter().enumerate() {
        let a = &suite.tandem[i].attribution;
        let total = a.total().max(1) as f64;
        t.labelled_row(
            name,
            a.rows()
                .iter()
                .map(|&(_, cycles)| pct(cycles as f64 / total)),
        );
    }
    t.note("from NpuReport::attribution; buckets sum to the end-to-end latency exactly (see docs/PROFILING.md)");
    t
}

/// Figure 25: Tandem Processor energy breakdown, averaged across the
/// suite.
pub fn fig25_energy_breakdown(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 25 — Tandem Processor energy breakdown",
        &[
            "model",
            "off-chip DRAM",
            "on-chip SRAM",
            "ALU",
            "loop+addr",
            "other",
        ],
    );
    let mut sums = [0.0f64; 5];
    for (i, name) in suite.names().iter().enumerate() {
        let e = &suite.tandem[i].tandem_energy;
        let (dram, spad, alu, loop_addr, other) = e.fractions();
        for (s, v) in sums.iter_mut().zip([dram, spad, alu, loop_addr, other]) {
            *s += v;
        }
        t.labelled_row(name, [dram, spad, alu, loop_addr, other].map(pct));
    }
    let n = suite.models.len() as f64;
    t.labelled_row("mean", sums.map(|s| pct(s / n)));
    t.note("paper means: DRAM ~31%, on-chip ~13%, ALU ~12%, loop+addr ~40%");
    t
}

/// Figure 26: post-layout area breakdown of the Tandem Processor (65 nm).
pub fn fig26_area(_suite: &Suite) -> Table {
    let area = AreaModel::paper().breakdown(&TandemConfig::paper());
    let (alu, interim, permute, other) = area.fractions();
    let mut t = Table::new(
        "Figure 26 — Tandem Processor area breakdown (GF 65 nm)",
        &["component", "mm^2", "share"],
    );
    t.row(vec![
        "ALU lanes".into(),
        format!("{:.3}", area.alu_mm2),
        pct(alu),
    ]);
    t.row(vec![
        "Interim BUF 1&2".into(),
        format!("{:.3}", area.interim_mm2),
        pct(interim),
    ]);
    t.row(vec![
        "Permute engine".into(),
        format!("{:.3}", area.permute_mm2),
        pct(permute),
    ]);
    t.row(vec![
        "decode/repeater/pipeline".into(),
        format!("{:.3}", area.other_mm2),
        pct(other),
    ]);
    t.row(vec![
        "total".into(),
        format!("{:.3}", area.total_mm2()),
        pct(1.0),
    ]);
    t.note("paper: 1.02 mm² total; ALU 56.6%, Interim BUF 29.2%, permute 12.0%");
    t
}
