//! Site keys are committed data: tuning trajectories and golden
//! schedules name sites by them. They are pinned here to an independent
//! reference — FNV-1a over the derived `Hash` of the signature's fields
//! in their original nested layout (kind, inputs, outputs, attrs, lanes,
//! interim rows, q) — so a change to how signatures are stored can never
//! move a key.

use std::hash::{Hash, Hasher};
use tandem_compiler::{prefetch_key, Fixed, OpLowering, StableHasher, TileChoice, TuneSite};
use tandem_model::{zoo, Graph, Node, Padding};
use tandem_npu::{Npu, NpuConfig, Schedule};

/// The attribute fields of a signature, in their original order.
#[derive(Hash)]
struct AttrsRef {
    kernel: usize,
    stride: usize,
    padding: Padding,
    groups: usize,
    axis: isize,
    perm: Vec<usize>,
    alpha_bits: u64,
    clip_min_bits: u64,
    clip_max_bits: u64,
}

/// The reference site key of `node` on a `lanes` × `interim_rows`
/// machine with `q` fractional bits.
fn reference_key(graph: &Graph, node: &Node, lanes: usize, interim_rows: usize, q: u32) -> u64 {
    let inputs: Vec<(Vec<usize>, bool)> = node
        .inputs
        .iter()
        .map(|&id| {
            let t = graph.tensor(id);
            (t.shape.dims().to_vec(), t.is_weight)
        })
        .collect();
    let outputs: Vec<Vec<usize>> = node
        .outputs
        .iter()
        .map(|&id| graph.tensor(id).shape.dims().to_vec())
        .collect();
    let a = &node.attrs;
    let attrs = AttrsRef {
        kernel: a.kernel,
        stride: a.stride,
        padding: a.padding,
        groups: a.groups,
        axis: a.axis,
        perm: a.perm.clone(),
        alpha_bits: a.alpha.to_bits(),
        clip_min_bits: a.clip_min.to_bits(),
        clip_max_bits: a.clip_max.to_bits(),
    };
    let mut h = StableHasher::new();
    node.kind.hash(&mut h);
    inputs.hash(&mut h);
    outputs.hash(&mut h);
    attrs.hash(&mut h);
    h.write_usize(lanes);
    h.write_usize(interim_rows);
    h.write_u32(q);
    h.finish()
}

fn zoo_models() -> Vec<Graph> {
    let mut models = zoo::all_models();
    models.extend([zoo::llama_tiny(32), zoo::gpt2_decode_step(64)]);
    models
}

/// Asserts every site key of `sites` equals the reference.
fn assert_reference_keys(graph: &Graph, sites: &[TuneSite], cfg: &NpuConfig) {
    let (lanes, rows, q) = (cfg.tandem.lanes, cfg.tandem.interim_rows, Fixed::DEFAULT.q);
    assert!(!sites.is_empty(), "{}: no tuning sites", graph.name);
    for site in sites {
        let node = graph.node(site.node);
        let key = reference_key(graph, node, lanes, rows, q);
        let expected = match site.baseline {
            TileChoice::Prefetch { .. } => prefetch_key(key),
            _ => key,
        };
        assert_eq!(site.key, expected, "{}: site {}", graph.name, site.name);
    }
}

#[test]
fn tune_site_keys_equal_the_reference() {
    let cfg = NpuConfig::paper();
    let npu = Npu::new(cfg.clone());
    for graph in zoo_models() {
        assert_reference_keys(&graph, &npu.tune_sites(&graph), &cfg);
    }
}

#[test]
fn tune_sites_read_through_a_filled_plan_equal_fresh_ones() {
    // A scheduled run fills the graph's plan, site keys included; the
    // hub's `tune_sites` then reads every key from that plan.
    let cfg = NpuConfig::paper();
    for graph in zoo::all_models() {
        let fresh = Npu::new(cfg.clone()).tune_sites(&graph);
        let hub = Npu::new(cfg.clone());
        let pinned = fresh.iter().step_by(2).filter_map(|s| {
            let c = s.candidates.iter().find(|&&c| c != s.baseline)?;
            Some((s.key, *c))
        });
        let mut scheduled = cfg.clone();
        scheduled.schedule = Schedule::new(pinned.collect());
        assert!(!scheduled.schedule.is_empty(), "{}", graph.name);
        hub.sibling(scheduled).run(&graph);
        let through_plan = hub.tune_sites(&graph);
        assert_eq!(
            format!("{through_plan:?}"),
            format!("{fresh:?}"),
            "{}",
            graph.name
        );
        assert_reference_keys(&graph, &through_plan, &cfg);
    }
}

#[test]
fn every_node_site_key_equals_the_reference() {
    // Other machine shapes too: lanes, rows and q enter every key.
    for (lanes, rows) in [(32, 512), (16, 256), (64, 1024)] {
        let lowering = OpLowering::new(lanes, rows);
        let q = lowering.fixed.q;
        for graph in zoo_models() {
            for node in graph.nodes() {
                assert_eq!(
                    lowering.site_key(&graph, node),
                    reference_key(&graph, node, lanes, rows, q),
                    "{}: node {} on {lanes}x{rows}",
                    graph.name,
                    node.name
                );
            }
        }
    }
}
