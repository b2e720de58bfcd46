//! The per-graph execution plan: everything about one graph that no
//! schedule can change.
//!
//! A run, a [`crate::Npu::verify_schedule`] gate and
//! [`crate::Npu::tune_sites`] all need the graph's execution blocks, each
//! block's Tandem DRAM traffic and GEMM workload, and the signature and
//! tuning-site key of its nodes. None of these depends on the schedule,
//! the knobs or the verifier settings, so an NPU's cache set builds one
//! [`GraphPlan`] per graph and every sibling reads it: a tuner candidate
//! then pays one schedule lookup and one memo probe per *distinct* node,
//! with no partitioning and no FNV hashing. An [`crate::Npu::uncached`]
//! runner builds a fresh plan, without signatures or block classes, on
//! every call.
//!
//! The signatures are interned ([`NodeSignature::intern_graph`]): the
//! plan holds each distinct non-GEMM signature once and gives every
//! non-GEMM node its dense id. Transformers repeat their layers, so
//! BERT-128 has 536 non-GEMM nodes but 30 distinct signatures. Whatever
//! is derived from a signature — its site key, its simulated report
//! within a run — is derived once per id and read by every node that
//! has it.
//!
//! The plan also sorts the blocks into classes. Two blocks are in one
//! class when they have the same Tandem DRAM bytes, the same non-GEMM
//! signature ids in order and structurally equal GEMM nodes: then every
//! site key in them is equal, so under any schedule, knobs and
//! granularity they cost the same, except for the cross-block prefetch
//! window, and a run computes their cost once.

use gemm_sim::GemmWorkload;
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;
use tandem_compiler::{ExecutionBlock, NodeSignature, OpLowering, Partitioner};
use tandem_model::hash::{WordHasher, WordMap};
use tandem_model::{Graph, Node, NodeId, TensorId};

/// The schedule-independent facts of one graph on one machine shape.
#[derive(Debug)]
pub(crate) struct GraphPlan {
    /// The execution blocks, in execution order.
    pub(crate) blocks: Vec<PlannedBlock>,
    /// The number of block classes with more than one member.
    pub(crate) classes: usize,
    /// The signature id of every node, by node index: an index into
    /// `distinct`, `None` for a GEMM node (the Tandem compiler never
    /// lowers one). Empty in an uncached runner's plan: nothing there
    /// keys a cache.
    pub(crate) ids: Vec<Option<u32>>,
    /// The graph's distinct choice-free non-GEMM signatures, by id.
    pub(crate) distinct: Vec<NodeSignature>,
    /// The tuning-site key of every node, by node index, computed the
    /// first time a non-empty schedule, the gate or `tune_sites` asks
    /// for one — so empty-schedule runs hash no site keys. A cached
    /// plan hashes one key per distinct signature.
    pub(crate) site_keys: OnceLock<Vec<u64>>,
}

/// One execution block with the per-block facts a run charges.
#[derive(Debug)]
pub(crate) struct PlannedBlock {
    pub(crate) block: ExecutionBlock,
    /// DRAM traffic of the block's Tandem side (see
    /// [`tandem_dram_bytes`]).
    pub(crate) tandem_dram_bytes: u64,
    /// The GEMM workload of `block.gemm`, if there is one.
    pub(crate) gemm: Option<GemmWorkload>,
    /// The block's class, numbered `0..classes` in the order their
    /// second members appear, if another block shares it. `None` for a
    /// block alone in its class and in an uncached runner's plan.
    pub(crate) class: Option<usize>,
}

impl GraphPlan {
    /// Partitions `graph` and charges every block; with `signatures`,
    /// also interns every non-GEMM node's signature on `lowering`'s
    /// machine shape and sorts the blocks into classes.
    pub(crate) fn build(graph: &Graph, lowering: &OpLowering, signatures: bool) -> Self {
        let blocks = Partitioner::new().partition(graph);
        let bytes = tandem_dram_bytes(graph, &blocks);
        let mut blocks: Vec<PlannedBlock> = blocks
            .into_iter()
            .zip(bytes)
            .map(|(block, tandem_dram_bytes)| PlannedBlock {
                tandem_dram_bytes,
                gemm: block
                    .gemm
                    .map(|id| GemmWorkload::of_node(graph, graph.node(id))),
                block,
                class: None,
            })
            .collect();
        let (ids, distinct, classes) = if signatures {
            let (ids, distinct) =
                NodeSignature::intern_graph(lowering, graph, |n| n.kind.class().is_non_gemm());
            let classes = assign_classes(graph, &ids, &mut blocks);
            (ids, distinct, classes)
        } else {
            (Vec::new(), Vec::new(), 0)
        };
        GraphPlan {
            blocks,
            classes,
            ids,
            distinct,
            site_keys: OnceLock::new(),
        }
    }

    /// Every node's tuning-site key ([`NodeSignature::site_key`]), by
    /// node index: hashed once per distinct signature, or once per node
    /// in an uncached runner's plan. The GEMM nodes are interned here,
    /// the first time a key is asked for, so an empty-schedule run pays
    /// nothing for them.
    pub(crate) fn site_keys(&self, graph: &Graph, lowering: &OpLowering) -> &[u64] {
        self.site_keys.get_or_init(|| {
            if self.ids.is_empty() {
                let nodes = graph.nodes().iter();
                return nodes.map(|n| lowering.site_key(graph, n)).collect();
            }
            let (gemm_ids, gemm) =
                NodeSignature::intern_graph(lowering, graph, |n| !n.kind.class().is_non_gemm());
            let keys_of = |sigs: &[NodeSignature]| -> Vec<u64> {
                sigs.iter().map(NodeSignature::site_key).collect()
            };
            let (keys, gemm_keys) = (keys_of(&self.distinct), keys_of(&gemm));
            let key = |(id, gemm_id): (&Option<u32>, Option<u32>)| match id {
                Some(id) => keys[*id as usize],
                None => gemm_keys[gemm_id.expect("a GEMM node has a GEMM id") as usize],
            };
            self.ids.iter().zip(gemm_ids).map(key).collect()
        })
    }

    /// The signature the node-level caches key node `id` on under
    /// `lowering`'s schedule: the node's shared words re-keyed with the
    /// choice pinned at its site. `None` for a GEMM node and in an
    /// uncached runner's plan.
    pub(crate) fn signature(
        &self,
        graph: &Graph,
        lowering: &OpLowering,
        id: NodeId,
    ) -> Option<NodeSignature> {
        let sig = self.base(id)?;
        let schedule = lowering.schedule();
        if schedule.is_empty() {
            return Some(sig.clone());
        }
        Some(sig.with_choice(schedule.get(self.site_keys(graph, lowering)[id.index()])))
    }

    /// The choice-free signature of node `id`, if the plan holds one.
    fn base(&self, id: NodeId) -> Option<&NodeSignature> {
        let id = (*self.ids.get(id.index())?)?;
        Some(&self.distinct[id as usize])
    }
}

/// Sets the class of every block that shares its class with another
/// one and returns the number of such classes, given every node's
/// signature id. Each block is looked up by a hash of its DRAM bytes,
/// its non-GEMM nodes' ids and its GEMM workload; a candidate counts
/// only if [`same_class`] confirms it, and a hash taken by another class
/// moves on to the next value.
fn assign_classes(graph: &Graph, ids: &[Option<u32>], blocks: &mut [PlannedBlock]) -> usize {
    // The first block of each class, by hash.
    let mut first: WordMap<u64, usize> = WordMap::default();
    first.reserve(blocks.len());
    let mut classes = 0;
    for b in 0..blocks.len() {
        let planned = &blocks[b];
        let mut h = WordHasher::default();
        h.write_u64(planned.tandem_dram_bytes);
        for &id in &planned.block.non_gemm {
            ids[id.index()].hash(&mut h);
        }
        planned.gemm.hash(&mut h);
        let mut key = h.finish();
        let leader = loop {
            match first.entry(key) {
                Entry::Vacant(e) => {
                    e.insert(b);
                    break None;
                }
                Entry::Occupied(e) if same_class(graph, ids, &blocks[*e.get()], planned) => {
                    break Some(*e.get())
                }
                Entry::Occupied(_) => key = key.wrapping_add(1),
            }
        };
        if let Some(l) = leader {
            let class = *blocks[l].class.get_or_insert_with(|| {
                classes += 1;
                classes - 1
            });
            blocks[b].class = Some(class);
        }
    }
    classes
}

/// Whether blocks `a` and `b` cost the same in any run: equal Tandem
/// DRAM bytes, equal non-GEMM signature ids in order, and structurally
/// equal GEMM nodes (or none).
fn same_class(graph: &Graph, ids: &[Option<u32>], a: &PlannedBlock, b: &PlannedBlock) -> bool {
    let (x, y) = (&a.block, &b.block);
    a.tandem_dram_bytes == b.tandem_dram_bytes
        && x.non_gemm.len() == y.non_gemm.len()
        && x.non_gemm
            .iter()
            .zip(&y.non_gemm)
            .all(|(m, n)| ids[m.index()] == ids[n.index()])
        && match (x.gemm, y.gemm) {
            (None, None) => true,
            (Some(m), Some(n)) => same_gemm(graph, graph.node(m), graph.node(n)),
            _ => false,
        }
}

/// Whether GEMM nodes `a` and `b` have the same kind, attributes
/// (floats by their bits), tensor shapes and weight flags: everything
/// their workload and their site key read.
fn same_gemm(graph: &Graph, a: &Node, b: &Node) -> bool {
    let same_tensors = |s: &[TensorId], t: &[TensorId]| {
        s.len() == t.len()
            && s.iter().zip(t).all(|(&s, &t)| {
                let (s, t) = (graph.tensor(s), graph.tensor(t));
                s.shape == t.shape && s.is_weight == t.is_weight
            })
    };
    let (p, q) = (&a.attrs, &b.attrs);
    a.kind == b.kind
        && (p.kernel, p.stride, p.padding, p.groups, p.axis)
            == (q.kernel, q.stride, q.padding, q.groups, q.axis)
        && [p.alpha, p.clip_min, p.clip_max].map(f64::to_bits)
            == [q.alpha, q.clip_min, q.clip_max].map(f64::to_bits)
        // Element by element: a slice `==` on two empty permutations,
        // which every GEMM node has, measured 150 ns (2-vCPU Linux host),
        // most of the class pass on the CNNs.
        && p.perm.len() == q.perm.len()
        && p.perm.iter().zip(&q.perm).all(|(x, y)| x == y)
        && same_tensors(&a.inputs, &b.inputs)
        && same_tensors(&a.outputs, &b.outputs)
}

/// DRAM traffic of the Tandem side of each block: activations entering
/// from outside the block (except the GEMM output, which arrives via
/// the Output BUF) and activations leaving it (INT32 words).
fn tandem_dram_bytes(graph: &Graph, blocks: &[ExecutionBlock]) -> Vec<u64> {
    const NONE: usize = usize::MAX;
    // The block that writes each tensor (GEMM output included), and the
    // block each node belongs to as a non-GEMM member.
    let mut written_in = vec![NONE; graph.tensors().len()];
    let mut non_gemm_of = vec![NONE; graph.nodes().len()];
    for (b, block) in blocks.iter().enumerate() {
        for &id in block.non_gemm.iter().chain(&block.gemm) {
            for &t in &graph.node(id).outputs {
                written_in[t.index()] = b;
            }
        }
        for &id in &block.non_gemm {
            non_gemm_of[id.index()] = b;
        }
    }
    // A tensor leaves its block when a graph output or an input of any
    // node outside the writing block's non-GEMM bundle.
    let mut leaves = vec![false; graph.tensors().len()];
    for node in graph.nodes() {
        for &t in &node.inputs {
            if non_gemm_of[node.id.index()] != written_in[t.index()] {
                leaves[t.index()] = true;
            }
        }
    }
    for &t in graph.outputs() {
        leaves[t.index()] = true;
    }
    // Activations live in DRAM as INT8 (the cast stream converts at
    // the boundary), so cross-block traffic is one byte per element.
    let elements = |t: TensorId| graph.tensor(t).shape.elements() as u64;
    blocks
        .iter()
        .enumerate()
        .map(|(b, block)| {
            let mut bytes = 0u64;
            for &id in &block.non_gemm {
                let node = graph.node(id);
                for &t in &node.inputs {
                    if !graph.tensor(t).is_weight && written_in[t.index()] != b {
                        bytes += elements(t);
                    }
                }
                for &t in &node.outputs {
                    if leaves[t.index()] {
                        bytes += elements(t);
                    }
                }
            }
            bytes
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::{zoo, GraphBuilder, Padding};

    /// The per-block DRAM charge as the executor computed it before
    /// plans: a linear scan of the block for producers and of the graph
    /// for each output's consumers.
    fn reference_bytes(graph: &Graph, block: &ExecutionBlock) -> u64 {
        let produced_here = |t: &TensorId| {
            block
                .non_gemm
                .iter()
                .chain(&block.gemm)
                .any(|&id| graph.node(id).outputs.contains(t))
        };
        let mut bytes = 0u64;
        for &id in &block.non_gemm {
            let node = graph.node(id);
            for &input in &node.inputs {
                let t = graph.tensor(input);
                if !t.is_weight && !produced_here(&input) {
                    bytes += t.shape.elements() as u64;
                }
            }
            for &output in &node.outputs {
                let consumed_outside = graph
                    .consumers(output)
                    .iter()
                    .any(|n| !block.non_gemm.contains(&n.id))
                    || graph.outputs().contains(&output);
                if consumed_outside {
                    bytes += graph.tensor(output).shape.elements() as u64;
                }
            }
        }
        bytes
    }

    /// Whether blocks `a` and `b` of `plan` are in one class.
    fn together(plan: &GraphPlan, a: usize, b: usize) -> bool {
        let class = |i: usize| plan.blocks[i].class;
        class(a).is_some() && class(a) == class(b)
    }

    /// The choice-free signatures of block `b`'s non-GEMM nodes.
    fn sigs_of(plan: &GraphPlan, b: usize) -> Vec<&NodeSignature> {
        let block = &plan.blocks[b].block;
        block
            .non_gemm
            .iter()
            .filter_map(|&id| plan.base(id))
            .collect()
    }

    #[test]
    fn equal_chains_with_other_dram_traffic_are_other_classes() {
        // Three conv -> relu -> relu blocks. The first block's inner
        // relu output also feeds a later conv, so it leaves the block
        // and costs DRAM traffic; the other two blocks keep theirs on
        // chip.
        let g = {
            let mut b = GraphBuilder::new("dram-classes", 2024);
            let x = b.input("x", [1, 16, 8, 8]);
            let mut y = x;
            let mut first_inner = None;
            for _ in 0..3 {
                let c = b.conv(y, 16, 3, 1, Padding::Same);
                let inner = b.relu(c);
                first_inner.get_or_insert(inner);
                y = b.relu(inner);
            }
            let side = b.conv(first_inner.unwrap(), 16, 1, 1, Padding::Same);
            b.output(y);
            b.output(side);
            b.finish()
        };
        let plan = GraphPlan::build(&g, &OpLowering::new(32, 512), true);
        assert_eq!(plan.blocks.len(), 4);
        assert_eq!(sigs_of(&plan, 0), sigs_of(&plan, 1));
        assert_ne!(
            plan.blocks[0].tandem_dram_bytes,
            plan.blocks[1].tandem_dram_bytes
        );
        assert!(!together(&plan, 0, 1));
        assert!(together(&plan, 1, 2));
        assert_eq!(plan.classes, 1);
        assert_eq!(plan.blocks[3].class, None);
    }

    #[test]
    fn equal_workloads_of_other_gemm_nodes_are_other_classes() {
        let g = {
            let mut b = GraphBuilder::new("gemm-classes", 2024);
            // Three 1x1 convs with one workload; the first pads.
            let x = b.input("x", [1, 16, 8, 8]);
            let mut y = x;
            for padding in [Padding::Same, Padding::Valid, Padding::Valid] {
                let c = b.conv(y, 16, 1, 1, padding);
                y = b.relu(c);
            }
            b.output(y);
            // A fully connected layer (`Gemm`) and two projections
            // (`MatMul`) with one workload.
            let t = b.input("t", [8, 64]);
            let f = b.fc(t, 64);
            let mut y = b.relu(f);
            for _ in 0..2 {
                let m = b.linear(y, 64);
                y = b.relu(m);
            }
            b.output(y);
            b.finish()
        };
        let plan = GraphPlan::build(&g, &OpLowering::new(32, 512), true);
        assert_eq!(plan.blocks.len(), 6);
        for (first, second) in [(0, 1), (3, 4)] {
            assert_eq!(plan.blocks[first].gemm, plan.blocks[second].gemm);
            assert_eq!(sigs_of(&plan, first), sigs_of(&plan, second));
            assert_eq!(
                plan.blocks[first].tandem_dram_bytes,
                plan.blocks[second].tandem_dram_bytes
            );
            assert!(!together(&plan, first, second), "blocks {first}, {second}");
            assert!(together(&plan, second, second + 1));
        }
        assert_eq!(plan.classes, 2);
    }

    #[test]
    fn classes_do_not_depend_on_the_machine_shape() {
        let mut models = zoo::all_models();
        models.extend([zoo::llama_tiny(32), zoo::gpt2_decode_step(64)]);
        let classes = |graph: &Graph, lanes, rows| {
            let plan = GraphPlan::build(graph, &OpLowering::new(lanes, rows), true);
            let of: Vec<_> = plan.blocks.iter().map(|b| b.class).collect();
            (plan.classes, of)
        };
        let mut repeated = 0;
        for graph in &models {
            let paper = classes(graph, 32, 512);
            assert_eq!(paper, classes(graph, 8, 64), "{}", graph.name);
            repeated += paper.0;
        }
        assert!(repeated > 0, "the zoo repeats blocks");
    }

    #[test]
    fn interned_ids_and_site_keys_equal_the_per_node_reference() {
        use std::collections::HashMap;
        let mut models = zoo::all_models();
        models.extend([zoo::llama_tiny(32), zoo::gpt2_decode_step(64)]);
        for (lanes, rows) in [(32, 512), (8, 64)] {
            let lowering = OpLowering::new(lanes, rows);
            for graph in &models {
                let plan = GraphPlan::build(graph, &lowering, true);
                let at = |what: &dyn std::fmt::Display| {
                    format!("{} on {lanes}x{rows}: {what}", graph.name)
                };
                assert_eq!(plan.ids.len(), graph.nodes().len(), "{}", at(&"ids"));
                // Dense: every id names a distinct signature, and every
                // distinct signature has a node.
                let mut used = vec![false; plan.distinct.len()];
                for &id in plan.ids.iter().flatten() {
                    used[id as usize] = true;
                }
                assert!(used.iter().all(|&u| u), "{}", at(&"unused id"));
                // Two non-GEMM nodes share an id iff their signatures
                // are equal.
                let mut id_of: HashMap<NodeSignature, u32> = HashMap::new();
                let mut sig_of: HashMap<u32, NodeSignature> = HashMap::new();
                for node in graph.nodes() {
                    let Some(id) = plan.ids[node.id.index()] else {
                        assert!(!node.kind.class().is_non_gemm(), "{}", at(&node.name));
                        continue;
                    };
                    let sig = NodeSignature::for_lowering(&lowering, graph, node);
                    let name = &node.name;
                    assert_eq!(*id_of.entry(sig.clone()).or_insert(id), id, "{}", at(name));
                    assert_eq!(
                        *sig_of.entry(id).or_insert(sig.clone()),
                        sig,
                        "{}",
                        at(name)
                    );
                    assert_eq!(plan.base(node.id), Some(&sig), "{}", at(name));
                }
                // Committed schedules name sites by these keys.
                let keys = plan.site_keys(graph, &lowering);
                for node in graph.nodes() {
                    assert_eq!(
                        keys[node.id.index()],
                        lowering.site_key(graph, node),
                        "{}",
                        at(&node.name)
                    );
                }
            }
        }
    }

    #[test]
    fn block_dram_bytes_equal_the_scanning_reference() {
        let lowering = OpLowering::new(32, 512);
        let mut models = zoo::all_models();
        models.extend([zoo::llama_tiny(32), zoo::gpt2_decode_step(64)]);
        for graph in &models {
            let plan = GraphPlan::build(graph, &lowering, false);
            for (i, planned) in plan.blocks.iter().enumerate() {
                assert_eq!(
                    planned.tandem_dram_bytes,
                    reference_bytes(graph, &planned.block),
                    "{} block {i}",
                    graph.name
                );
            }
        }
    }
}
