//! Block signatures: the key of the compilation cache.
//!
//! The paper's own characterization (Figure 4) shows the benchmark zoo is
//! dominated by *repeated* subgraphs — ResNet-50's 16 bottlenecks,
//! BERT/GPT-2's 12 identical encoder layers. Lowering is a pure function
//! of the operator and the machine shape, so identical nodes compile to
//! identical tile programs. [`NodeSignature`] captures exactly the inputs
//! of that function — operator kind, input/output shapes, the relevant
//! attributes, and the lanes/interim-rows/fixed-point configuration — and
//! the NPU memoizes [`OpLowering::lower_node`] on it, so each distinct
//! block shape compiles once per process instead of once per node per
//! run.

use crate::lower::OpLowering;
use crate::tune_space::{StableHasher, TileChoice};
use std::hash::{Hash, Hasher};
use tandem_model::hash::WordHasher;
use tandem_model::{Graph, Node};

/// Everything [`OpLowering::lower_node`] can observe about a node: the
/// memoization key of the compilation (and downstream simulation) caches.
///
/// Two nodes with equal signatures lower to identical `(program,
/// repetitions)` pairs, so their performance-mode simulation reports are
/// identical too.
///
/// The key is one flat, length-prefixed word buffer:
///
/// ```text
/// kind, #inputs, (rank, dims.., is_weight)*, #outputs, (rank, dims..)*,
/// kernel, stride, padding, groups, axis, #perm, perm..,
/// alpha bits, clip_min bits, clip_max bits, lanes, interim_rows, q
/// ```
///
/// Every variable-length run carries its length, so the buffer parses
/// back one way only and equal buffers mean equal fields. Float
/// attributes enter by their IEEE bits, which is exact: `0.0` and `-0.0`
/// stay apart because the compiler materializes constants from these
/// exact values. The map hash over the words and the schedule choice is
/// computed once, at construction: a cache probe hashes one word and
/// compares the buffers only when the hashes agree.
#[derive(Debug, Clone)]
pub struct NodeSignature {
    /// The flattened key (layout above).
    words: Vec<u64>,
    /// The tuner's pinned decision at this node's site, if the lowering
    /// carries a [`crate::Schedule`] that overrides it. Part of the key —
    /// two schedules produce different programs for the same node, so
    /// every downstream cache (compile, sim, verify) must distinguish
    /// them — but excluded from [`NodeSignature::site_key`], which names
    /// the site the choice applies to.
    choice: Option<TileChoice>,
    /// [`WordHasher`] digest of `words` and `choice`.
    hash: u64,
}

impl PartialEq for NodeSignature {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.choice == other.choice && self.words == other.words
    }
}

impl Eq for NodeSignature {}

impl Hash for NodeSignature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl NodeSignature {
    /// Computes the signature of `node` for a machine with `lanes` lanes,
    /// `interim_rows` scratchpad rows, and `q` fractional bits.
    pub fn of(graph: &Graph, node: &Node, lanes: usize, interim_rows: usize, q: u32) -> Self {
        Self::sealed(key_words(graph, node, lanes, interim_rows, q), None)
    }

    /// The signature of `node` under `lowering`'s machine shape,
    /// including the schedule choice pinned at the node's site (if any).
    /// The site key is computed only under a non-empty schedule.
    pub fn for_lowering(lowering: &OpLowering, graph: &Graph, node: &Node) -> Self {
        let words = key_words(
            graph,
            node,
            lowering.lanes(),
            lowering.interim_rows(),
            lowering.fixed.q,
        );
        let schedule = lowering.schedule();
        let choice = if schedule.is_empty() {
            None
        } else {
            schedule.get(site_key_of(&words))
        };
        Self::sealed(words, choice)
    }

    fn sealed(words: Vec<u64>, choice: Option<TileChoice>) -> Self {
        let mut h = WordHasher::default();
        for &w in &words {
            h.write_u64(w);
        }
        choice.hash(&mut h);
        NodeSignature {
            hash: h.finish(),
            words,
            choice,
        }
    }

    /// The schedule choice this signature was built under.
    pub fn choice(&self) -> Option<TileChoice> {
        self.choice
    }

    /// The stable key of this node's tuning site: a platform-independent
    /// FNV-1a hash over every field *except* the schedule choice. All
    /// nodes that would share a compilation under the empty schedule
    /// share one site key; a [`crate::Schedule`] maps these keys to
    /// [`TileChoice`]s.
    pub fn site_key(&self) -> u64 {
        site_key_of(&self.words)
    }
}

/// The flat key of [`NodeSignature`], sized exactly in one allocation.
fn key_words(graph: &Graph, node: &Node, lanes: usize, interim_rows: usize, q: u32) -> Vec<u64> {
    let dims = |id| graph.tensor(id).shape.dims();
    let a = &node.attrs;
    let len = 15
        + a.perm.len()
        + node
            .inputs
            .iter()
            .map(|&t| dims(t).len() + 2)
            .sum::<usize>()
        + node
            .outputs
            .iter()
            .map(|&t| dims(t).len() + 1)
            .sum::<usize>();
    let mut words = Vec::with_capacity(len);
    words.extend([node.kind as u64, node.inputs.len() as u64]);
    for &id in &node.inputs {
        let t = graph.tensor(id);
        words.push(t.shape.dims().len() as u64);
        words.extend(t.shape.dims().iter().map(|&d| d as u64));
        words.push(u64::from(t.is_weight));
    }
    words.push(node.outputs.len() as u64);
    for &id in &node.outputs {
        words.push(dims(id).len() as u64);
        words.extend(dims(id).iter().map(|&d| d as u64));
    }
    words.extend([
        a.kernel as u64,
        a.stride as u64,
        a.padding as u64,
        a.groups as u64,
        a.axis as u64,
        a.perm.len() as u64,
    ]);
    words.extend(a.perm.iter().map(|&p| p as u64));
    words.extend([
        a.alpha.to_bits(),
        a.clip_min.to_bits(),
        a.clip_max.to_bits(),
        lanes as u64,
        interim_rows as u64,
        u64::from(q),
    ]);
    debug_assert_eq!(words.len(), len);
    words
}

/// FNV-1a over the byte stream a derived `Hash` of the original nested
/// fields (kind, inputs, outputs, attrs, lanes, interim_rows, q) fed to
/// [`StableHasher`]: every word as 8 little-endian bytes except each
/// input's weight flag (a `bool`, one byte) and `q` (a `u32`, four).
/// Committed schedules and tuning trajectories name sites by these
/// values, so they must not change.
fn site_key_of(words: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    let (head, mut rest) = words.split_at(2);
    for &w in head {
        h.write_u64(w);
    }
    for _ in 0..head[1] {
        let rank = rest[0] as usize;
        let (shape, tail) = rest.split_at(rank + 1);
        for &w in shape {
            h.write_u64(w);
        }
        h.write_u8(tail[0] as u8);
        rest = &tail[1..];
    }
    let (&q, rest) = rest.split_last().expect("a signature ends with q");
    for &w in rest {
        h.write_u64(w);
    }
    h.write_u32(q as u32);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::zoo;

    #[test]
    fn identical_nodes_share_one_signature() {
        let g = zoo::bert_base(64);
        let lowering = OpLowering::new(32, 512);
        let mut sigs = std::collections::HashSet::new();
        let mut non_gemm = 0usize;
        for node in g.nodes() {
            if node.kind.class().is_non_gemm() {
                non_gemm += 1;
                sigs.insert(NodeSignature::for_lowering(&lowering, &g, node));
            }
        }
        // 12 identical encoder layers → far fewer signatures than nodes.
        assert!(
            sigs.len() * 4 < non_gemm,
            "{} signatures for {non_gemm} non-GEMM nodes",
            sigs.len()
        );
    }

    #[test]
    fn machine_shape_is_part_of_the_key() {
        let g = zoo::mobilenetv2();
        let node = g
            .nodes()
            .iter()
            .find(|n| n.kind.class().is_non_gemm())
            .unwrap();
        let a = NodeSignature::of(&g, node, 32, 512, 14);
        let b = NodeSignature::of(&g, node, 64, 512, 14);
        let c = NodeSignature::of(&g, node, 32, 256, 14);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
