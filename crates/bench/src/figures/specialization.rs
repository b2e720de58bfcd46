//! Figures 6 and 8: what each Tandem specialization is worth.

use crate::suite::Suite;
use crate::table::{pct, Table};
use tandem_npu::{Despecialization, Npu, NpuConfig, TileGranularity};

fn knob_run(suite: &Suite, knobs: Despecialization) -> Vec<tandem_npu::NpuReport> {
    let mut cfg = NpuConfig::paper();
    cfg.knobs = knobs;
    let npu = Npu::new(cfg);
    suite.models.iter().map(|(_, g)| npu.run(g)).collect()
}

/// Figure 6: runtime overhead each de-specialization adds, as a fraction
/// of the de-specialized runtime — (a) vector-register-file LD/ST,
/// (b) software address calculation, (c) branch-based loops — for
/// non-GEMM execution and end-to-end.
pub fn fig06_specialization_overheads(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 6 — overheads removed by each specialization",
        &[
            "model",
            "(a) regfile N-G",
            "(a) E2E",
            "(b) addr N-G",
            "(b) E2E",
            "(c) loop N-G",
            "(c) E2E",
        ],
    );
    let configs = [
        Despecialization {
            regfile_ldst: true,
            ..Default::default()
        },
        Despecialization {
            sw_addr_calc: true,
            ..Default::default()
        },
        Despecialization {
            branch_loops: true,
            ..Default::default()
        },
    ];
    let runs: Vec<_> = configs.iter().map(|&k| knob_run(suite, k)).collect();
    let mut sums = [[0.0f64; 2]; 3];
    for (i, name) in suite.names().iter().enumerate() {
        let base = &suite.tandem[i];
        let mut cells = vec![name.to_string()];
        for (j, run) in runs.iter().enumerate() {
            let knob = &run[i];
            let ng = 1.0 - base.busy.tandem_cycles as f64 / knob.busy.tandem_cycles.max(1) as f64;
            let e2e = 1.0 - base.total_cycles as f64 / knob.total_cycles.max(1) as f64;
            sums[j][0] += ng;
            sums[j][1] += e2e;
            cells.push(pct(ng));
            cells.push(pct(e2e));
        }
        t.row(cells);
    }
    let n = suite.models.len() as f64;
    t.labelled_row("mean", sums.iter().flatten().map(|s| pct(s / n)));
    t.note("paper means: regfile 41% N-G / 27% E2E; addr calc 59% / 40%; loops 70% / 47%");
    t
}

/// Figure 8: GEMM-unit and Tandem-Processor utilization at tile vs layer
/// coordination granularity, with the stall share that *explains* the
/// gap regenerated from the cycle-attribution rollup (the sum of its
/// `sync wait` + `fill/drain` + `dae wait` buckets over the latency —
/// `tandem profile` prints the full per-model table).
pub fn fig08_utilization(suite: &Suite) -> Table {
    let mut cfg = NpuConfig::paper();
    cfg.granularity = TileGranularity::Layer;
    let layer_npu = Npu::new(cfg);
    let mut t = Table::new(
        "Figure 8 — resource utilization: tile vs layer granularity",
        &[
            "model",
            "GEMM util (tile)",
            "GEMM util (layer)",
            "Tandem util (tile)",
            "Tandem util (layer)",
            "stall (tile)",
            "stall (layer)",
        ],
    );
    let stall_share = |r: &tandem_npu::NpuReport| {
        let a = &r.attribution;
        (a.sync_wait + a.dae_wait + a.drain) as f64 / a.total().max(1) as f64
    };
    let mut sums = [0.0f64; 6];
    for (i, (bench, graph)) in suite.models.iter().enumerate() {
        let tile = &suite.tandem[i];
        let layer = layer_npu.run(graph);
        let vals = [
            tile.gemm_utilization(),
            layer.gemm_utilization(),
            tile.tandem_utilization(),
            layer.tandem_utilization(),
            stall_share(tile),
            stall_share(&layer),
        ];
        for (s, v) in sums.iter_mut().zip(vals.iter()) {
            *s += v;
        }
        t.labelled_row(bench.name(), vals.map(pct));
    }
    let n = suite.models.len() as f64;
    t.labelled_row("mean", sums.map(|s| pct(s / n)));
    t.note("paper: tile granularity gains +20% GEMM-unit and +13% Tandem utilization; stall columns from the attribution rollup (sync wait + dae wait + fill/drain)");
    t
}
