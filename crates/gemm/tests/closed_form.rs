//! The GEMM-side decisions the NPU and the baselines take from
//! `gemm-sim` agree with each other and with the graph IR.

use gemm_sim::{GemmConfig, GemmUnit, GemmWorkload};
use tandem_model::{zoo, NodeCost, OpClass};
use tandem_trace::ChromeTraceSink;

#[test]
fn node_workloads_carry_every_mac_of_the_zoo() {
    for graph in zoo::all_models() {
        for node in graph.nodes() {
            if node.kind.class() != OpClass::Gemm {
                continue;
            }
            assert_eq!(
                GemmWorkload::of_node(&graph, node).macs(),
                NodeCost::of(&graph, node).macs,
                "{} {}",
                graph.name,
                node.name
            );
        }
    }
}

#[test]
fn one_pass_geometry_drives_the_report_and_the_trace() {
    let units = [
        GemmUnit::new(GemmConfig::paper()),
        GemmUnit::new(GemmConfig::paper().scaled(4.0)),
    ];
    let workloads = [
        GemmWorkload::new(0, 0, 0),
        GemmWorkload::new(1, 64, 64),
        GemmWorkload::new(3136, 576, 64),
        GemmWorkload::new(196, 4608, 512),
        GemmWorkload::new(128, 20, 10),
    ];
    for unit in &units {
        for w in workloads {
            let cap = unit.baseline_tile_rows(w);
            assert!((1..=w.m.max(1)).contains(&cap), "{w:?}");
            for m_tile in [w.m, cap, (cap / 2).max(1), 1] {
                let geometry = unit.pass_geometry(w, m_tile);
                let report = unit.tile_report(w, m_tile);
                assert_eq!(geometry.cycles(), report.compute_cycles, "{w:?} {m_tile}");
                let mut sink = ChromeTraceSink::new();
                assert_eq!(
                    unit.trace_tile(w, m_tile, 7, &mut sink),
                    7 + report.compute_cycles
                );
                assert_eq!(sink.len() as u64, geometry.passes(), "{w:?} {m_tile}");
                // A prefetch hides only weight traffic the tile charges.
                let prefetch = unit.prefetchable_bytes(w, m_tile);
                assert_eq!(
                    prefetch == 0 && w.macs() > 0,
                    unit.weights_amortized(w, m_tile)
                );
                assert!(prefetch <= report.dram_bytes, "{w:?} {m_tile}");
            }
        }
    }
}
