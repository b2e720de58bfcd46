//! Pins the exact hit/miss accounting of the NPU's caches.
//!
//! One fixed, single-threaded sequence of runs on one fresh cache set;
//! every step's [`ExecStats`] delta is asserted exactly. The counts are
//! what the caches measured before their memo tables were unified, so a
//! refactor of the caches that probes, misses or inserts differently
//! fails here even when every report stays identical.

use std::collections::BTreeMap;
use tandem_model::zoo;
use tandem_npu::{ExecStats, Npu, NpuConfig, Schedule, TileChoice};
use tandem_verify::VerifyMode;

/// `[compile hits, compile misses, sim hits, sim misses, gemm hits, gemm
/// misses, graph hits, graph misses, gate hits, gate misses]`.
fn counts(s: &ExecStats) -> [u64; 10] {
    [
        s.compile_hits,
        s.compile_misses,
        s.sim_hits,
        s.sim_misses,
        s.gemm_hits,
        s.gemm_misses,
        s.graph_hits,
        s.graph_misses,
        s.gate_hits,
        s.gate_misses,
    ]
}

/// The counter increments `step` causes on `npu`'s cache set.
fn delta(npu: &Npu, step: impl FnOnce()) -> [u64; 10] {
    let before = npu.stats();
    step();
    counts(&npu.stats().delta(&before))
}

/// The paper machine with verification pinned off and widened, so the
/// counts do not depend on the build profile's defaults.
fn base_config() -> NpuConfig {
    let mut cfg = NpuConfig::paper();
    cfg.verify = false;
    cfg.verify_mode = VerifyMode::Widened;
    cfg
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
    let hub = Npu::new(base_config());

    let cold_resnet = delta(&hub, || {
        hub.run(&resnet);
    });
    let cold_bert = delta(&hub, || {
        hub.run(&bert);
    });
    let warm_resnet = delta(&hub, || {
        hub.run(&resnet);
    });

    let mut tuned = base_config();
    tuned.schedule = fixed_schedule(&hub, &resnet);
    let sibling = hub.sibling(tuned);
    let sibling_run = delta(&hub, || {
        sibling.run(&resnet);
    });
    let gate = delta(&hub, || {
        assert!(sibling.verify_schedule(&resnet));
    });

    let mut verified = base_config();
    verified.verify = true;
    let checker = hub.sibling(verified);
    let verify_run = delta(&hub, || {
        assert!(checker.run(&bert).verify.is_clean());
    });

    let measured = [
        ("cold resnet50", cold_resnet),
        ("cold bert", cold_bert),
        ("warm resnet50", warm_resnet),
        ("scheduled sibling", sibling_run),
        ("verify_schedule", gate),
        ("verify run", verify_run),
    ];
    let pinned: [[u64; 10]; 6] = [
        [0, 20, 49, 20, 69, 39, 0, 1, 0, 0],
        [0, 30, 506, 30, 185, 9, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 7, 62, 7, 101, 7, 0, 1, 0, 0],
        [22, 0, 0, 0, 0, 0, 0, 0, 39, 15],
        [30, 0, 536, 0, 194, 0, 0, 1, 0, 0],
    ];
    for ((step, got), want) in measured.iter().zip(&pinned) {
        assert_eq!(got, want, "{step}");
    }
}
