//! The tuner's verify gate against its whole-graph oracle.
//!
//! [`Npu::verify_schedule`] memoizes one verdict per execution block,
//! keyed on whether the block has a GEMM region, the signatures of its
//! non-GEMM nodes and the verifier mode, and leaves the block's sync
//! group out of the key. These tests pin both halves of that contract
//! on seeded candidates over BERT, GPT-2 and ResNet-50:
//!
//! * the memoized verdict (and the uncached one) equals
//!   `schedule_graph_opts(…, widened, schedule).is_ok()`;
//! * every distinct block key verifies the same under its real group
//!   and under group 0.

use std::collections::HashSet;
use tandem_compiler::{
    schedule_block, schedule_graph_opts, CompileOptions, NodeSignature, OpLowering, Partitioner,
};
use tandem_fleet::SplitMix64;
use tandem_model::{zoo, Graph};
use tandem_npu::{Npu, NpuConfig};
use tandem_tune::{search_space, Candidate, SearchSpace};
use tandem_verify::{Verifier, VerifyConfig, VerifyMode};

/// Candidates per model on top of the baseline: half drawn uniformly
/// over the whole space, half one-site mutations of the baseline (the
/// tuner's common case, where most block keys are already memoized).
const DRAWS: usize = 24;

fn models() -> Vec<Graph> {
    vec![zoo::bert_base(128), zoo::gpt2(128), zoo::resnet50()]
}

fn candidates(space: &SearchSpace, seed: u64) -> Vec<Candidate> {
    let mut rng = SplitMix64::new(seed);
    let mut out = vec![Candidate::baseline()];
    for i in 0..DRAWS {
        out.push(if i % 2 == 0 {
            space.random(&mut rng)
        } else {
            space.mutate(&Candidate::baseline(), &mut rng)
        });
    }
    out
}

fn widened(cfg: &NpuConfig, cand: &Candidate) -> NpuConfig {
    let mut cfg = cfg.clone();
    cfg.verify = false;
    cfg.schedule = cand.schedule();
    cfg
}

#[test]
fn memoized_gate_matches_whole_graph_verification() {
    for (seed, graph) in models().iter().enumerate() {
        let hub = Npu::new(NpuConfig::paper());
        let space = search_space(&hub, graph);
        let tandem = &hub.config().tandem;
        let lowering = OpLowering::new(tandem.lanes, tandem.interim_rows);
        let before = hub.stats();
        for (i, cand) in candidates(&space, seed as u64).iter().enumerate() {
            let oracle = schedule_graph_opts(
                &lowering,
                graph,
                &CompileOptions {
                    verify: true,
                    verify_mode: VerifyMode::Widened,
                    schedule: cand.schedule(),
                },
            )
            .is_ok();
            let cfg = widened(hub.config(), cand);
            let gate = hub.sibling(cfg.clone()).verify_schedule(graph);
            assert_eq!(gate, oracle, "{} candidate {i}: memoized gate", graph.name);
            // The uncached reference path bypasses the memo entirely.
            if i < 2 {
                let uncached = Npu::uncached(cfg.clone());
                assert_eq!(uncached.verify_schedule(graph), oracle, "{}", graph.name);
                assert_eq!(
                    uncached.stats().lookups(),
                    0,
                    "uncached gate touched a cache"
                );
            }
        }
        let gated = hub.stats().delta(&before);
        let blocks = Partitioner::new().partition(graph).len() as u64;
        // Every block of every candidate was answered exactly once (all
        // verdicts are clean, so no call stopped early) …
        assert_eq!(
            gated.gate_hits + gated.gate_misses,
            blocks * (DRAWS as u64 + 1),
            "{}",
            graph.name
        );
        // … and repeated blocks were verified once, not per instance.
        assert!(
            gated.gate_misses * 4 < gated.gate_hits,
            "{}: {} misses vs {} hits",
            graph.name,
            gated.gate_misses,
            gated.gate_hits
        );
    }
}

#[test]
fn block_verdicts_do_not_depend_on_the_sync_group() {
    for (seed, graph) in models().iter().enumerate() {
        let hub = Npu::new(NpuConfig::paper());
        let space = search_space(&hub, graph);
        let tandem = &hub.config().tandem;
        let verifier = Verifier::new(
            VerifyConfig::for_lowering(tandem.lanes, tandem.interim_rows)
                .with_mode(VerifyMode::Widened),
        );
        let blocks = Partitioner::new().partition(graph);
        let mut seen = HashSet::new();
        for cand in candidates(&space, seed as u64) {
            let lowering =
                OpLowering::new(tandem.lanes, tandem.interim_rows).with_schedule(cand.schedule());
            for (i, block) in blocks.iter().enumerate() {
                // The gate's memo key (the mode is fixed here).
                let sites = block.non_gemm.iter().map(|&id| {
                    let site =
                        NodeSignature::for_lowering(&lowering, graph, graph.node(id)).site_key();
                    (site, lowering.schedule().get(site))
                });
                let key = (block.gemm.is_some(), sites.collect::<Vec<_>>());
                if !seen.insert(key) {
                    continue;
                }
                let verdict = |group: u8| {
                    schedule_block(graph, block, group, |n| lowering.lower_node(graph, n))
                        .map(|sb| verifier.verify(&sb.program).is_clean())
                };
                assert_eq!(
                    verdict((i % 32) as u8),
                    verdict(0),
                    "{} block {i}: verdict depends on the sync group",
                    graph.name
                );
            }
        }
        assert!(seen.len() > 1, "{}: no block keys checked", graph.name);
    }
}
