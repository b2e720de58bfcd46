//! Seeded properties of the search driver.
//!
//! * The whole trajectory is byte-identical across repeated runs and
//!   across `jobs` values (workers can never reorder or change results).
//! * Every scored candidate's materialized schedule compiles with zero
//!   error-severity findings under widened `tandem-verify`, though the
//!   search gates only its winner.
//! * The running best is monotonically non-increasing across
//!   generations, and different seeds genuinely explore differently.

use tandem_compiler::{schedule_graph_opts, CompileOptions, OpLowering};
use tandem_npu::{Npu, NpuConfig};
use tandem_tune::{demo_graph, search_space, trajectory_json, tune_in_space, TuneOptions};
use tandem_verify::VerifyMode;

fn opts(seed: u64, jobs: usize) -> TuneOptions {
    TuneOptions {
        seed,
        generations: 3,
        population: 10,
        beam: 3,
        jobs,
        ..TuneOptions::default()
    }
}

#[test]
fn search_is_byte_identical_across_runs_and_jobs() {
    let g = demo_graph();
    let render = |jobs: usize| {
        // A fresh hub per run: cache state must not leak into results.
        let npu = Npu::new(NpuConfig::paper());
        let space = search_space(&npu, &g);
        let out = tune_in_space(&npu, &g, &space, &opts(7, jobs));
        trajectory_json(&[(out, space)])
    };
    let serial = render(1);
    assert_eq!(serial, render(1), "same seed, same jobs → same bytes");
    assert_eq!(serial, render(2), "jobs=2 changed the trajectory");
    assert_eq!(serial, render(4), "jobs=4 changed the trajectory");
}

#[test]
fn every_accepted_candidate_verifies_clean() {
    let g = demo_graph();
    let npu = Npu::new(NpuConfig::paper());
    let out = tune_in_space(&npu, &g, &search_space(&npu, &g), &opts(11, 0));
    assert!(!out.accepted.is_empty());
    let cfg = npu.config();
    let lowering = OpLowering::new(cfg.tandem.lanes, cfg.tandem.interim_rows);
    for (cand, _) in &out.accepted {
        let copts = CompileOptions {
            verify: true,
            verify_mode: VerifyMode::Widened,
            schedule: cand.clone(),
        };
        schedule_graph_opts(&lowering, &g, &copts).unwrap_or_else(|e| {
            panic!(
                "scored candidate {:016x} fails widened verify: {e}",
                cand.digest()
            )
        });
    }
}

#[test]
fn best_cycles_is_monotone_and_seeds_diverge() {
    let g = demo_graph();
    let npu = Npu::new(NpuConfig::paper());
    let space = search_space(&npu, &g);
    let a = tune_in_space(&npu, &g, &space, &opts(1, 0));
    for w in a.generations.windows(2) {
        assert!(
            w[1].best_cycles <= w[0].best_cycles,
            "best regressed: {} → {}",
            w[0].best_cycles,
            w[1].best_cycles
        );
    }
    // Same baseline whatever the seed; the explored set differs.
    let b = tune_in_space(&npu, &g, &space, &opts(2, 0));
    assert_eq!(a.baseline_cycles, b.baseline_cycles);
    let digests = |o: &tandem_tune::TuneOutcome| {
        o.accepted
            .iter()
            .map(|(c, _)| c.digest())
            .collect::<std::collections::BTreeSet<_>>()
    };
    assert_ne!(digests(&a), digests(&b), "two seeds explored identically");
}
