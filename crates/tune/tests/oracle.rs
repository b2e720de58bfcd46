//! The cached simulator is the search's oracle — so the caches must be
//! invisible. For tuned candidates sampled from a real search, the
//! cycles the search recorded (scored through cache-sharing siblings)
//! must bit-agree with a fresh [`Npu::uncached`] run of the same
//! configuration; on a real transformer, so must every report and
//! every verify-gate verdict.

use tandem_fleet::SplitMix64;
use tandem_model::zoo;
use tandem_npu::{Npu, NpuConfig};
use tandem_tune::{demo_graph, search_space, tune_in_space, TuneOptions};

#[test]
fn cached_scores_bit_agree_with_uncached_runs() {
    let g = demo_graph();
    let npu = Npu::new(NpuConfig::paper());
    let space = search_space(&npu, &g);
    let opts = TuneOptions {
        seed: 5,
        generations: 3,
        population: 10,
        beam: 3,
        ..TuneOptions::default()
    };
    let out = tune_in_space(&npu, &g, &space, &opts);
    assert!(out.accepted.len() >= 4, "search scored too few candidates");

    // The best candidate plus an evenly spaced sample of the rest.
    let step = (out.accepted.len() / 4).max(1);
    let best = (out.best.clone(), out.best_cycles);
    let sample = out
        .accepted
        .iter()
        .step_by(step)
        .chain(std::iter::once(&best));
    for (cand, recorded) in sample {
        let mut cfg = NpuConfig::paper();
        cfg.schedule = cand.clone();
        let fresh = Npu::uncached(cfg).run(&g).total_cycles;
        assert_eq!(
            *recorded,
            fresh,
            "cached score diverges from uncached oracle for {:016x}",
            cand.digest()
        );
    }
}

#[test]
fn baseline_score_matches_unscheduled_run() {
    // The empty schedule must cost exactly what the hand-rolled
    // scheduler costs — the reduction numbers in BENCH_TUNE.json are
    // relative to it.
    let g = demo_graph();
    let npu = Npu::new(NpuConfig::paper());
    let out = tune_in_space(
        &npu,
        &g,
        &search_space(&npu, &g),
        &TuneOptions {
            generations: 0,
            ..TuneOptions::default()
        },
    );
    let plain = Npu::uncached(NpuConfig::paper()).run(&g).total_cycles;
    assert_eq!(out.baseline_cycles, plain);
}

#[test]
fn bert_siblings_of_one_hub_equal_uncached_runs() {
    // Candidates run one after another on siblings of one hub, so later
    // ones read the graph plan and the node caches earlier ones filled.
    let g = zoo::bert_base(32);
    let hub = Npu::new(NpuConfig::paper());
    let space = search_space(&hub, &g);
    let mut rng = SplitMix64::new(32);
    for i in 0..8 {
        let cand = space.random(&mut rng);
        assert!(!cand.is_empty(), "candidate {i} pins no site");
        let mut cfg = NpuConfig::paper();
        cfg.schedule = cand;
        let sibling = hub.sibling(cfg.clone());
        let uncached = Npu::uncached(cfg);
        let before = hub.stats();
        assert_eq!(
            sibling.verify_schedule(&g),
            uncached.verify_schedule(&g),
            "candidate {i}: gate verdict"
        );
        assert_eq!(sibling.run(&g), uncached.run(&g), "candidate {i}: report");
        let s = hub.stats().delta(&before);
        if i > 0 {
            assert!(
                s.sim_hits > 0 && s.gate_hits > 0,
                "candidate {i} reused nothing: {s:?}"
            );
        }
    }
}
