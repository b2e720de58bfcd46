//! Figures 18–19: the TPU+VPU comparison, decision by decision.

use crate::geomean;
use crate::suite::Suite;
use crate::table::{ratio, Table};
use tandem_baselines::vpu::{run_vpu, vpu_regfile_energy_nj, VpuAblation};
use tandem_core::EnergyModel;

const BAR_NAMES: [&str; 4] = ["+regfile", "+loops/addr", "+FIFO", "+special fns (final)"];

/// Figure 18: speedup of the NPU-Tandem over the TPU+VPU design as each
/// design decision is ablated cumulatively. The last bar is the full
/// end-to-end comparison.
pub fn fig18_vpu_speedup(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 18 — speedup over TPU+VPU, per design decision",
        &[
            "model",
            BAR_NAMES[0],
            BAR_NAMES[1],
            BAR_NAMES[2],
            BAR_NAMES[3],
        ],
    );
    let mut cols: [Vec<f64>; 4] = Default::default();
    for (i, (bench, graph)) in suite.models.iter().enumerate() {
        let base = suite.tandem[i].total_cycles as f64;
        let mut cells = vec![bench.name().to_string()];
        for (j, abl) in VpuAblation::ALL.iter().enumerate() {
            let v = run_vpu(graph, *abl).total_cycles as f64 / base;
            cols[j].push(v);
            cells.push(ratio(v));
        }
        t.row(cells);
    }
    t.labelled_row("geomean", cols.iter().map(|c| ratio(geomean(c))));
    t.note("paper: final 2.6x; loop specialization worth 2.1x alone, regfile removal 1.4x (GPT-2 2.9x), OBUF 1.1x, VPU special fns cost us 0.8x");
    t
}

/// The VPU's total energy at one ablation step: the Tandem event energy
/// plus register-file traffic, the extra instruction issues of software
/// loops/addressing, minus the special-function credit.
pub fn vpu_energy_nj(report: &tandem_npu::NpuReport, abl: VpuAblation) -> f64 {
    let knobs = abl.knobs();
    let issue_pj = EnergyModel::paper(report.tandem_lanes as usize).issue_pj;
    let c = &report.counters;
    let mut extra_nj = 0.0;
    if knobs.regfile_ldst {
        extra_nj += vpu_regfile_energy_nj(report);
        extra_nj += 3.0 * c.compute_issues as f64 * issue_pj * 1e-3;
    }
    if knobs.sw_addr_calc {
        extra_nj += 3.0 * c.compute_issues as f64 * issue_pj * 1e-3;
    }
    if knobs.branch_loops {
        extra_nj += 2.0 * c.loop_steps as f64 * issue_pj * 1e-3;
    }
    let mut total = report.total_energy_nj() + extra_nj;
    if knobs.special_fn {
        // Replacing multi-primitive expansions with single instructions
        // saves the VPU ~7% total energy (paper §8).
        total *= 0.93;
    }
    total
}

/// Figure 19: energy reduction of the NPU-Tandem over the TPU+VPU design
/// under the same cumulative ablation.
pub fn fig19_vpu_energy(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 19 — energy reduction over TPU+VPU, per design decision",
        &[
            "model",
            BAR_NAMES[0],
            BAR_NAMES[1],
            BAR_NAMES[2],
            BAR_NAMES[3],
        ],
    );
    let mut cols: [Vec<f64>; 4] = Default::default();
    for (i, (bench, graph)) in suite.models.iter().enumerate() {
        let base_nj = suite.tandem[i].total_energy_nj();
        let mut cells = vec![bench.name().to_string()];
        for (j, abl) in VpuAblation::ALL.iter().enumerate() {
            let vpu_report = run_vpu(graph, *abl);
            let v = vpu_energy_nj(&vpu_report, *abl) / base_nj;
            cols[j].push(v);
            cells.push(ratio(v));
        }
        t.row(cells);
    }
    t.labelled_row("geomean", cols.iter().map(|c| ratio(geomean(c))));
    t.note("paper: final 1.4x; regfile removal worth 1.2x; MobileNetV2 2.0x, EfficientNet 1.8x, GPT-2 1.7x, VGG-16/YOLOv3 1.1x");
    t
}
