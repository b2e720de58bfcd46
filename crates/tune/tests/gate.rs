//! The tuner's verify gate against its whole-graph oracle, and the
//! space it gates.
//!
//! [`Npu::verify_schedule`] memoizes one verdict per execution block,
//! keyed on whether the block has a GEMM region and the signatures of
//! its non-GEMM nodes, and leaves the block's sync group out of the key;
//! a call probes the memo once per class of identical blocks.
//! The first two tests pin both halves of that contract on seeded
//! candidates over BERT, GPT-2 and ResNet-50:
//!
//! * the memoized verdict (and the uncached one) equals
//!   `schedule_graph_opts(…, widened, schedule).is_ok()`;
//! * every distinct block key verifies the same under its real group
//!   and under group 0.
//!
//! The search gates only its winner, once. That is sound because the
//! space is legal by construction: every choice [`Npu::tune_sites`]
//! offers, alone and in random combinations, verifies clean on the zoo.
//! The last three tests pin the single gate and sweep the space.

use std::collections::HashSet;
use std::time::Instant;
use tandem_compiler::{
    schedule_block, schedule_graph_opts, CompileOptions, ExecutionBlock, NodeSignature, OpLowering,
    Partitioner, Schedule, TileChoice,
};
use tandem_fleet::SplitMix64;
use tandem_model::{zoo, Graph};
use tandem_npu::{Npu, NpuConfig};
use tandem_tune::{search_space, tune_in_space, SearchSpace, TuneOptions};
use tandem_verify::{Verifier, VerifyConfig, VerifyMode};

/// Candidates per model on top of the baseline: half drawn uniformly
/// over the whole space, half one-site mutations of the baseline (the
/// tuner's common case, where most block keys are already memoized).
const DRAWS: usize = 24;

fn models() -> Vec<Graph> {
    vec![zoo::bert_base(128), zoo::gpt2(128), zoo::resnet50()]
}

fn candidates(space: &SearchSpace, seed: u64) -> Vec<Schedule> {
    let mut rng = SplitMix64::new(seed);
    let mut out = vec![Schedule::empty()];
    for i in 0..DRAWS {
        out.push(if i % 2 == 0 {
            space.random(&mut rng)
        } else {
            space.mutate(&Schedule::empty(), &mut rng)
        });
    }
    out
}

/// The gate's memo key of `block` under `lowering`'s schedule: whether
/// it has a GEMM region, and each non-GEMM node's site and choice.
fn gate_key(
    lowering: &OpLowering,
    graph: &Graph,
    block: &ExecutionBlock,
) -> (bool, Vec<(u64, Option<TileChoice>)>) {
    let sites = block.non_gemm.iter().map(|&id| {
        let site = NodeSignature::for_lowering(lowering, graph, graph.node(id)).site_key();
        (site, lowering.schedule().get(site))
    });
    (block.gemm.is_some(), sites.collect())
}

fn scheduled(cfg: &NpuConfig, cand: &Schedule) -> NpuConfig {
    let mut cfg = cfg.clone();
    cfg.schedule = cand.clone();
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
        let mut probes = None;
        for (i, cand) in candidates(&space, seed as u64).iter().enumerate() {
            let oracle = schedule_graph_opts(
                &lowering,
                graph,
                &CompileOptions {
                    verify: true,
                    verify_mode: VerifyMode::Widened,
                    schedule: cand.clone(),
                },
            )
            .is_ok();
            let cfg = scheduled(hub.config(), cand);
            let call = hub.stats();
            let gate = hub.sibling(cfg.clone()).verify_schedule(graph);
            assert_eq!(gate, oracle, "{} candidate {i}: memoized gate", graph.name);
            // Every call answers each block class once (all verdicts are
            // clean, so no call stops early), whatever the schedule.
            let d = hub.stats().delta(&call);
            let here = d.gate_hits + d.gate_misses;
            assert_eq!(
                *probes.get_or_insert(here),
                here,
                "{} candidate {i}",
                graph.name
            );
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
        // Repeated blocks share a class, so a call probes fewer keys
        // than there are blocks …
        let probes = probes.expect("at least one candidate");
        assert!(probes < blocks, "{}: {probes} probes", graph.name);
        assert_eq!(
            gated.gate_hits + gated.gate_misses,
            probes * (DRAWS as u64 + 1),
            "{}",
            graph.name
        );
        // … and each distinct block key was verified once, not per
        // instance or candidate.
        let keys: HashSet<_> = candidates(&space, seed as u64)
            .iter()
            .flat_map(|cand| {
                let lowering =
                    OpLowering::new(tandem.lanes, tandem.interim_rows).with_schedule(cand.clone());
                let blocks = Partitioner::new().partition(graph);
                blocks
                    .iter()
                    .map(|b| gate_key(&lowering, graph, b))
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(gated.gate_misses, keys.len() as u64, "{}", graph.name);
        assert!(gated.gate_misses < gated.gate_hits, "{}", graph.name);
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
            let lowering = OpLowering::new(tandem.lanes, tandem.interim_rows).with_schedule(cand);
            for (i, block) in blocks.iter().enumerate() {
                if !seen.insert(gate_key(&lowering, graph, block)) {
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

#[test]
fn a_search_gates_only_its_winner() {
    let graph = zoo::bert_base(32);
    let hub = Npu::new(NpuConfig::paper());
    let space = search_space(&hub, &graph);
    let opts = TuneOptions {
        generations: 2,
        population: 8,
        beam: 2,
        max_singles: 16,
        ..TuneOptions::default()
    };
    let before = hub.stats();
    let out = tune_in_space(&hub, &graph, &space, &opts);
    let s = hub.stats().delta(&before);
    assert!(out.evaluated > 1 && out.best_cycles < out.baseline_cycles);
    assert_eq!(out.rejected, 0);
    // One walk over the block classes of one schedule, as many as a
    // fresh hub's gate of the baseline probes (classes do not depend on
    // the schedule), and fewer than the blocks: repeated layers share
    // a class.
    let fresh = Npu::new(NpuConfig::paper());
    let walk = {
        let before = fresh.stats();
        assert!(fresh.verify_schedule(&graph));
        let d = fresh.stats().delta(&before);
        d.gate_hits + d.gate_misses
    };
    let blocks = Partitioner::new().partition(&graph).len() as u64;
    assert_eq!(s.gate_hits + s.gate_misses, walk, "{s:?}");
    assert!(walk < blocks, "{walk} probes for {blocks} blocks");
}

/// The paper NPU with its Tandem Processor cut to `lanes × interim_rows`.
fn machine(lanes: usize, interim_rows: usize) -> NpuConfig {
    let mut cfg = NpuConfig::paper();
    cfg.tandem.lanes = lanes;
    cfg.tandem.interim_rows = interim_rows;
    cfg
}

/// Verifies every single-site schedule of `graph`'s space on `cfg` (when
/// `singles` is set) and `random` seeded multi-site draws, through one
/// hub, so each distinct block verifies once. Returns the schedules
/// checked.
fn assert_space_legal(graph: &Graph, cfg: NpuConfig, singles: bool, random: usize) -> usize {
    let (lanes, rows) = (cfg.tandem.lanes, cfg.tandem.interim_rows);
    let t0 = Instant::now();
    let hub = Npu::new(cfg);
    let space = SearchSpace::new(hub.tune_sites(graph), Vec::new());
    let mut cands = Vec::new();
    if singles {
        for (i, site) in space.sites().iter().enumerate() {
            for &c in &site.candidates {
                if c != site.baseline {
                    cands.push(space.single(i, c));
                }
            }
        }
    }
    let mut rng = SplitMix64::new(0x7a4d_e001 ^ ((lanes as u64) << 32) ^ rows as u64);
    cands.extend((0..random).map(|_| space.random(&mut rng)));
    for cand in &cands {
        assert!(
            hub.sibling(scheduled(hub.config(), cand))
                .verify_schedule(graph),
            "{} on {lanes}×{rows}: illegal schedule {:?}",
            graph.name,
            cand.render(space.sites())
        );
    }
    eprintln!(
        "{} on {lanes}×{rows}: {} schedules verified clean in {:.2} s",
        graph.name,
        cands.len(),
        t0.elapsed().as_secs_f64()
    );
    cands.len()
}

#[test]
fn every_single_site_choice_on_the_zoo_verifies_clean() {
    for bench in zoo::Benchmark::ALL {
        let graph = bench.graph();
        let n = assert_space_legal(&graph, NpuConfig::paper(), true, 0);
        assert!(n > 0, "{}: empty space", graph.name);
    }
}

#[test]
fn the_space_is_legal_on_the_small_machine_and_in_combination() {
    for graph in [zoo::mobilenetv2(), zoo::bert_base(32)] {
        assert_space_legal(&graph, machine(8, 64), true, 24);
        assert_space_legal(&graph, NpuConfig::paper(), false, 24);
    }
}
