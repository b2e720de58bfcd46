//! Figures 14–17: the headline comparisons against Baselines (1)/(2) and
//! Gemmini.

use crate::geomean;
use crate::suite::Suite;
use crate::table::{pct, ratio, Table};

/// Figure 14: end-to-end speedup of the NPU-Tandem over Baseline (1)
/// (off-chip CPU fallback) and Baseline (2) (dedicated units).
pub fn fig14_speedup_baselines(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 14 — speedup over off-chip CPU fallback and dedicated units",
        &["model", "vs baseline(1)", "vs baseline(2)"],
    );
    let tandem = suite.tandem_seconds();
    let mut s1 = Vec::new();
    let mut s2 = Vec::new();
    for (i, name) in suite.names().iter().enumerate() {
        let v1 = suite.baseline1[i].total_s() / tandem[i];
        let v2 = suite.baseline2[i].total_s() / tandem[i];
        s1.push(v1);
        s2.push(v2);
        t.row(vec![name.to_string(), ratio(v1), ratio(v2)]);
    }
    t.labelled_row("geomean", [s1, s2].map(|c| ratio(geomean(&c))));
    t.note("paper: 3.5x over baseline(1), 2.7x over baseline(2); MobileNetV2 5.9x/5.4x, BERT 5.4x/4.5x");
    t
}

/// Figure 15: total-energy reduction over Baselines (1) and (2).
pub fn fig15_energy_baselines(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 15 — energy reduction over the baselines",
        &["model", "vs baseline(1)", "vs baseline(2)"],
    );
    let mut e1 = Vec::new();
    let mut e2 = Vec::new();
    for (i, name) in suite.names().iter().enumerate() {
        let tandem_j = suite.tandem[i].total_energy_nj() * 1e-9;
        let v1 = suite.baseline1[i].energy_j / tandem_j;
        let v2 = suite.baseline2[i].energy_j / tandem_j;
        e1.push(v1);
        e2.push(v2);
        t.row(vec![name.to_string(), ratio(v1), ratio(v2)]);
    }
    t.labelled_row("geomean", [e1, e2].map(|c| ratio(geomean(&c))));
    t.note("paper: 39.2x over baseline(1), 20.6x over baseline(2)");
    t
}

/// Figure 16: speedup over Gemmini with one core and with one core per
/// Tandem lane (iso-resource).
pub fn fig16_gemmini(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 16 — speedup over Gemmini",
        &["model", "vs 1-core", "vs 32-core", "32-core self-gain"],
    );
    let tandem = suite.tandem_seconds();
    let mut v1 = Vec::new();
    let mut v32 = Vec::new();
    let mut gain = Vec::new();
    for (i, name) in suite.names().iter().enumerate() {
        let a = suite.gemmini1[i].total_s() / tandem[i];
        let b = suite.gemmini32[i].total_s() / tandem[i];
        let g = suite.gemmini1[i].total_s() / suite.gemmini32[i].total_s();
        v1.push(a);
        v32.push(b);
        gain.push(g);
        t.row(vec![name.to_string(), ratio(a), ratio(b), ratio(g)]);
    }
    t.labelled_row("geomean", [v1, v32, gain].map(|c| ratio(geomean(&c))));
    t.note("paper: 47.8x over 1-core, 5.9x over multicore (max 35.3x MobileNetV2, min 0.9x VGG-16); multicore helps Gemmini 8.0x");
    t
}

/// Figure 17: Gemmini runtime breakdown across the systolic array, the
/// dedicated units (incl. im2col) and the RISC-V core.
pub fn fig17_gemmini_breakdown(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 17 — Gemmini (1 core) runtime breakdown",
        &["model", "GEMM", "dedicated+im2col", "RISC-V core"],
    );
    for (bench, graph) in &suite.models {
        let b = tandem_baselines::Gemmini::new().run_breakdown(graph);
        let total = b.total_s();
        t.row(vec![
            bench.name().to_string(),
            pct(b.gemm_s / total),
            pct(b.dedicated_s / total),
            pct(b.riscv_s / total),
        ]);
    }
    t.note("paper: im2col path ~90% for MobileNetV2/EfficientNet; RISC-V core dominates YOLOv3/BERT/GPT-2 and ResNet-50 (AveragePool)");
    t
}
