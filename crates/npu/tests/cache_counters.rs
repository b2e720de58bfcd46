//! Pins the exact hit/miss accounting of the NPU's caches.
//!
//! One fixed, single-threaded sequence of runs on one fresh cache set;
//! every step's [`ExecStats`] delta is asserted exactly, so a refactor
//! of the caches that probes, misses or inserts differently fails here
//! even when every report stays identical. The misses are the distinct
//! keys and have not moved since the memo tables were unified. The hits
//! count one probe per node of each block a run computes and one gate
//! probe per block class: a block repeating an earlier one of its class
//! probes nothing and counts in `reused_blocks` instead.

use std::collections::BTreeMap;
use tandem_model::zoo;
use tandem_npu::{
    Despecialization, ExecStats, Npu, NpuConfig, Schedule, TileChoice, TileGranularity,
};

/// `[compile hits, compile misses, sim hits, sim misses, graph hits, graph
/// misses, gate hits, gate misses, reused blocks]`.
fn counts(s: &ExecStats) -> [u64; 9] {
    [
        s.compile_hits,
        s.compile_misses,
        s.sim_hits,
        s.sim_misses,
        s.graph_hits,
        s.graph_misses,
        s.gate_hits,
        s.gate_misses,
        s.reused_blocks,
    ]
}

/// The counter increments `step` causes on `npu`'s cache set.
fn delta(npu: &Npu, step: impl FnOnce()) -> [u64; 9] {
    let before = npu.stats();
    step();
    counts(&npu.stats().delta(&before))
}

/// A fixed non-empty schedule: every third tuning site of `graph` takes its
/// first non-baseline candidate.
fn fixed_schedule(npu: &Npu, graph: &tandem_model::Graph) -> Schedule {
    let choices: BTreeMap<u64, TileChoice> = npu
        .tune_sites(graph)
        .iter()
        .step_by(3)
        .filter_map(|s| {
            let pick = s.candidates.iter().find(|&&c| c != s.baseline)?;
            Some((s.key, *pick))
        })
        .collect();
    assert!(!choices.is_empty(), "the schedule must override something");
    Schedule::new(choices)
}

#[test]
fn every_step_moves_the_counters_exactly_as_pinned() {
    let resnet = zoo::resnet50();
    let bert = zoo::bert_base(64);
    let hub = Npu::new(NpuConfig::paper());

    let cold_resnet = delta(&hub, || {
        hub.run(&resnet);
    });
    let cold_bert = delta(&hub, || {
        hub.run(&bert);
    });
    let warm_resnet = delta(&hub, || {
        hub.run(&resnet);
    });

    let mut tuned = NpuConfig::paper();
    tuned.schedule = fixed_schedule(&hub, &resnet);
    let sibling = hub.sibling(tuned);
    let sibling_run = delta(&hub, || {
        sibling.run(&resnet);
    });
    let gate = delta(&hub, || {
        assert!(sibling.verify_schedule(&resnet));
    });

    let measured = [
        ("cold resnet50", cold_resnet),
        ("cold bert", cold_bert),
        ("warm resnet50", warm_resnet),
        ("scheduled sibling", sibling_run),
        ("verify_schedule", gate),
    ];
    let pinned: [[u64; 9]; 5] = [
        [0, 20, 16, 20, 0, 1, 0, 0, 25],
        [0, 30, 42, 30, 0, 1, 0, 0, 100],
        [0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 7, 29, 7, 0, 1, 0, 0, 25],
        [22, 0, 0, 0, 0, 0, 14, 15, 0],
    ];
    for ((step, got), want) in measured.iter().zip(&pinned) {
        assert_eq!(got, want, "{step}");
    }
}

/// Granularity only composes node reports and the knobs are arithmetic
/// on them after the simulation, so neither is part of the per-node sim
/// key: a sibling of a warm Tile hub at Layer granularity, with software
/// loops or as a VPU-like vector unit simulates no node again, and still
/// reports what the uncached reference does under its own config.
#[test]
fn a_granularity_or_knob_sibling_of_a_warm_hub_simulates_no_node() {
    let graph = zoo::mobilenetv2();
    let hub = Npu::new(NpuConfig::paper());
    hub.run(&graph);
    let mut layer = NpuConfig::paper();
    layer.granularity = TileGranularity::Layer;
    let mut loops = NpuConfig::paper();
    loops.knobs = Despecialization {
        branch_loops: true,
        ..Despecialization::none()
    };
    let mut vpu = NpuConfig::paper();
    vpu.knobs = Despecialization::vpu_like();
    for (name, cfg) in [("layer", layer), ("branch_loops", loops), ("vpu_like", vpu)] {
        let sibling = hub.sibling(cfg.clone());
        let before = hub.stats();
        let report = sibling.run(&graph);
        let d = hub.stats().delta(&before);
        assert_eq!(d.sim_misses, 0, "{name}: {d:?}");
        assert!(d.sim_hits > 0, "{name}: {d:?}");
        assert_eq!(report, Npu::uncached(cfg).run(&graph), "{name}");
    }
}
