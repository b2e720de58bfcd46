//! The per-graph execution plan: everything about one graph that no
//! schedule can change.
//!
//! A run, a [`crate::Npu::verify_schedule`] gate and
//! [`crate::Npu::tune_sites`] all need the graph's execution blocks, each
//! block's Tandem DRAM traffic and GEMM workload, and the signature and
//! tuning-site key of its nodes. None of these depends on the schedule,
//! the knobs or the verifier settings, so an NPU's cache set builds one
//! [`GraphPlan`] per graph and every sibling reads it: a tuner candidate
//! then pays one schedule lookup and one memo probe per node, with no
//! partitioning and no FNV hashing. An [`crate::Npu::uncached`] runner
//! builds a fresh plan, without signatures, on every call.

use gemm_sim::GemmWorkload;
use std::sync::OnceLock;
use tandem_compiler::{ExecutionBlock, NodeSignature, OpLowering, Partitioner};
use tandem_model::{Graph, NodeId, TensorId};

/// The schedule-independent facts of one graph on one machine shape.
#[derive(Debug)]
pub(crate) struct GraphPlan {
    /// The execution blocks, in execution order.
    pub(crate) blocks: Vec<PlannedBlock>,
    /// The choice-free signature of every non-GEMM node, by node index.
    /// Empty in an uncached runner's plan: nothing there keys a cache.
    sigs: Vec<Option<NodeSignature>>,
    /// The tuning-site key of every node, by node index, computed the
    /// first time a non-empty schedule, the gate or `tune_sites` asks
    /// for one — so empty-schedule runs hash no site keys.
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
}

impl GraphPlan {
    /// Partitions `graph` and charges every block; with `signatures`,
    /// also builds every non-GEMM node's signature on `lowering`'s
    /// machine shape.
    pub(crate) fn build(graph: &Graph, lowering: &OpLowering, signatures: bool) -> Self {
        let blocks = Partitioner::new().partition(graph);
        let bytes = tandem_dram_bytes(graph, &blocks);
        let blocks = blocks
            .into_iter()
            .zip(bytes)
            .map(|(block, tandem_dram_bytes)| PlannedBlock {
                tandem_dram_bytes,
                gemm: block
                    .gemm
                    .map(|id| GemmWorkload::of_node(graph, graph.node(id))),
                block,
            })
            .collect();
        let sigs = if signatures {
            NodeSignature::of_graph(
                graph,
                lowering.lanes(),
                lowering.interim_rows(),
                lowering.fixed.q,
            )
        } else {
            Vec::new()
        };
        GraphPlan {
            blocks,
            sigs,
            site_keys: OnceLock::new(),
        }
    }

    /// Every node's tuning-site key ([`NodeSignature::site_key`]), by
    /// node index.
    pub(crate) fn site_keys(&self, graph: &Graph, lowering: &OpLowering) -> &[u64] {
        self.site_keys.get_or_init(|| {
            let nodes = graph.nodes().iter();
            nodes
                .map(|n| match self.base(n.id) {
                    Some(sig) => sig.site_key(),
                    None => lowering.site_key(graph, n),
                })
                .collect()
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
        self.sigs.get(id.index())?.as_ref()
    }
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
    use tandem_model::zoo;

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
