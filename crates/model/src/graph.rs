//! The DNN graph: tensors (values) and operator nodes.

use crate::op::{OpAttrs, OpKind};
use crate::shape::Shape;
use crate::stats::GraphStats;
use std::error::Error;
use std::fmt::{self, Write};

/// Identifier of a [`Tensor`] within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TensorId(pub(crate) u32);

/// Identifier of a [`Node`] within its [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl TensorId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The name of a [`Tensor`] or [`Node`], rendered only when displayed.
///
/// A name the [`GraphBuilder`](crate::GraphBuilder) generates is stored
/// as its parts — a head (`""` for an operator output, `"n_"` for a node,
/// `"w"` for a weight), the node's `&'static` ONNX kind (empty for a
/// weight) and the builder's counter — and [`Display`](fmt::Display)
/// renders it as `{head}{kind lowercased}_{n}` (`relu_3`, `n_relu_4`,
/// `w_5`). Building, cloning or dropping such a name touches no heap, and
/// it is no larger than a `String`. A caller-given name (a graph input)
/// is kept as written and renders verbatim.
///
/// Equality compares the stored parts, not the rendering: a given name
/// `"relu_3"` is not equal to the generated `relu_3`. Callers that need
/// text compare the rendered strings.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Generated {
        head: Head,
        kind: &'static str,
        n: u32,
    },
    Given(Box<str>),
}

/// The head of a generated [`Name`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Head {
    /// `""`: an operator's output tensor.
    Output,
    /// `"n_"`: an operator node.
    Node,
    /// `"w"`: a weight.
    Weight,
}

impl Name {
    /// The generated name `{head}{kind lowercased}_{n}`.
    pub(crate) fn generated(head: Head, kind: &'static str, n: u32) -> Self {
        Name(Repr::Generated { head, kind, n })
    }
}

impl From<&str> for Name {
    fn from(name: &str) -> Self {
        Name(Repr::Given(name.into()))
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Generated { head, kind, n } => {
                f.write_str(match head {
                    Head::Output => "",
                    Head::Node => "n_",
                    Head::Weight => "w",
                })?;
                for c in kind.chars() {
                    f.write_char(c.to_ascii_lowercase())?;
                }
                write!(f, "_{n}")
            }
            Repr::Given(name) => f.write_str(name),
        }
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{self}\"")
    }
}

/// A value flowing along a graph edge: an activation tensor or a weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Identifier within the graph.
    pub id: TensorId,
    /// Human-readable name (unique within the graph).
    pub name: Name,
    /// Shape of the value.
    pub shape: Shape,
    /// `true` for weights/constants known before execution (ONNX
    /// initializers); `false` for activations.
    pub is_weight: bool,
}

impl Tensor {
    /// Size of the tensor in bytes at the given element width.
    pub fn bytes(&self, bytes_per_element: usize) -> usize {
        self.shape.elements() * bytes_per_element
    }
}

/// One operator node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Identifier within the graph.
    pub id: NodeId,
    /// Operator kind.
    pub kind: OpKind,
    /// Human-readable name (unique within the graph).
    pub name: Name,
    /// Input tensors, in operator-defined order (activations first, then
    /// weights/constants).
    pub inputs: Vec<TensorId>,
    /// Output tensors.
    pub outputs: Vec<TensorId>,
    /// Typed attributes.
    pub attrs: OpAttrs,
}

/// Errors produced by [`Graph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node references a tensor id that does not exist.
    DanglingTensor {
        /// The offending node.
        node: String,
        /// The missing id.
        tensor: u32,
    },
    /// A tensor is written by more than one node (graphs are SSA).
    MultipleWriters {
        /// The tensor written twice.
        tensor: String,
    },
    /// A non-weight tensor is consumed before any node produces it and it
    /// is not a graph input.
    UseBeforeDef {
        /// The consuming node.
        node: String,
        /// The undefined tensor.
        tensor: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::DanglingTensor { node, tensor } => {
                write!(f, "node `{node}` references unknown tensor id {tensor}")
            }
            GraphError::MultipleWriters { tensor } => {
                write!(f, "tensor `{tensor}` has multiple writers")
            }
            GraphError::UseBeforeDef { node, tensor } => {
                write!(f, "node `{node}` consumes `{tensor}` before definition")
            }
        }
    }
}

impl Error for GraphError {}

/// A directed acyclic operator graph for one DNN at a fixed batch size.
///
/// Nodes are stored in a valid topological (execution) order — the
/// [`GraphBuilder`](crate::GraphBuilder) appends them as the model is
/// constructed, mirroring how ONNX files serialize their graphs.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// Model name (e.g. `"resnet50"`).
    pub name: String,
    /// Release year of the model, used by the Figure 1 chronology.
    pub year: u32,
    tensors: Vec<Tensor>,
    nodes: Vec<Node>,
    inputs: Vec<TensorId>,
    outputs: Vec<TensorId>,
    /// [`Graph::content_hash`], kept current by [`Graph::seal`].
    digest: u64,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(String::new(), 0)
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>, year: u32) -> Self {
        let mut graph = Graph {
            name: name.into(),
            year,
            tensors: Vec::new(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            digest: 0,
        };
        graph.seal();
        graph
    }

    /// Recomputes the structural digest after the graph was built. The
    /// builder calls this once, in [`crate::GraphBuilder::finish`]; the
    /// graph is immutable structurally from then on.
    pub(crate) fn seal(&mut self) {
        self.digest = self.structural_digest();
    }

    pub(crate) fn add_tensor(&mut self, name: Name, shape: Shape, is_weight: bool) -> TensorId {
        let id = TensorId(self.tensors.len() as u32);
        self.tensors.push(Tensor {
            id,
            name,
            shape,
            is_weight,
        });
        id
    }

    pub(crate) fn add_node(
        &mut self,
        kind: OpKind,
        name: Name,
        inputs: Vec<TensorId>,
        outputs: Vec<TensorId>,
        attrs: OpAttrs,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            name,
            inputs,
            outputs,
            attrs,
        });
        id
    }

    pub(crate) fn mark_input(&mut self, t: TensorId) {
        self.inputs.push(t);
    }

    pub(crate) fn mark_output(&mut self, t: TensorId) {
        self.outputs.push(t);
    }

    /// All tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// All nodes, in execution order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Graph input tensors (the model's activations in).
    pub fn inputs(&self) -> &[TensorId] {
        &self.inputs
    }

    /// Graph output tensors.
    pub fn outputs(&self) -> &[TensorId] {
        &self.outputs
    }

    /// Looks up a tensor.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn tensor(&self, id: TensorId) -> &Tensor {
        &self.tensors[id.index()]
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The node producing `tensor`, if any (weights and graph inputs have
    /// no producer).
    pub fn producer(&self, tensor: TensorId) -> Option<&Node> {
        self.nodes.iter().find(|n| n.outputs.contains(&tensor))
    }

    /// The nodes consuming `tensor` (scans every node).
    pub fn consumers(&self, tensor: TensorId) -> Vec<&Node> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&tensor))
            .collect()
    }

    /// A structural digest of the graph: two graphs with equal hashes
    /// compute the same thing (same tensors, operators, attributes, and
    /// topology), regardless of display names or release year. Stable
    /// within a process run — used as a memoization key by the NPU
    /// executor's graph-level report cache.
    ///
    /// The digest is computed once, when [`crate::GraphBuilder::finish`]
    /// (or [`Graph::new`], for the empty graph) hands the graph out, so
    /// this is a field read: a warm graph-cache hit pays nothing to key.
    pub fn content_hash(&self) -> u64 {
        self.digest
    }

    /// The body of [`Graph::content_hash`], hashed with
    /// [`crate::hash::WordHasher`].
    fn structural_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = crate::hash::WordHasher::default();
        self.tensors.len().hash(&mut h);
        for t in &self.tensors {
            t.shape.hash(&mut h);
            t.is_weight.hash(&mut h);
        }
        self.nodes.len().hash(&mut h);
        for n in &self.nodes {
            n.kind.hash(&mut h);
            n.inputs.hash(&mut h);
            n.outputs.hash(&mut h);
            let a = &n.attrs;
            (a.kernel, a.stride, a.padding, a.groups, a.axis).hash(&mut h);
            a.perm.hash(&mut h);
            a.alpha.to_bits().hash(&mut h);
            a.clip_min.to_bits().hash(&mut h);
            a.clip_max.to_bits().hash(&mut h);
        }
        self.inputs.hash(&mut h);
        self.outputs.hash(&mut h);
        h.finish()
    }

    /// Aggregate statistics used by the Figure 1/2 characterization and the
    /// performance models.
    pub fn stats(&self) -> GraphStats {
        GraphStats::from_graph(self)
    }

    /// Checks structural invariants: ids in range, SSA single-writer, and
    /// definition-before-use in node order.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        // Dense tables indexed by tensor id. Every tensor id a node names
        // is range-checked before it indexes them; a graph input outside
        // the table cannot be named by an in-range id, so it is skipped.
        let mut written = vec![false; self.tensors.len()];
        let mut defined: Vec<bool> = self.tensors.iter().map(|t| t.is_weight).collect();
        for input in &self.inputs {
            if let Some(d) = defined.get_mut(input.index()) {
                *d = true;
            }
        }
        for node in &self.nodes {
            for &input in &node.inputs {
                if input.index() >= self.tensors.len() {
                    return Err(GraphError::DanglingTensor {
                        node: node.name.to_string(),
                        tensor: input.0,
                    });
                }
                if !defined[input.index()] {
                    return Err(GraphError::UseBeforeDef {
                        node: node.name.to_string(),
                        tensor: self.tensor(input).name.to_string(),
                    });
                }
            }
            for &output in &node.outputs {
                if output.index() >= self.tensors.len() {
                    return Err(GraphError::DanglingTensor {
                        node: node.name.to_string(),
                        tensor: output.0,
                    });
                }
                if std::mem::replace(&mut written[output.index()], true) {
                    return Err(GraphError::MultipleWriters {
                        tensor: self.tensor(output).name.to_string(),
                    });
                }
                defined[output.index()] = true;
            }
        }
        Ok(())
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph {} ({} nodes)", self.name, self.nodes.len())?;
        for node in &self.nodes {
            write!(
                f,
                "  {} = {}(",
                self.tensor(node.outputs[0]).name,
                node.kind
            )?;
            for (i, &input) in node.inputs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.tensor(input).name)?;
            }
            writeln!(f, ") :: {}", self.tensor(node.outputs[0]).shape)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A graph with one input `x` and one activation `y`, no nodes yet.
    fn two_tensors() -> (Graph, TensorId, TensorId) {
        let mut g = Graph::new("bad", 2024);
        let x = g.add_tensor("x".into(), Shape::from([4]), false);
        g.mark_input(x);
        let y = g.add_tensor("y".into(), Shape::from([4]), false);
        (g, x, y)
    }

    fn relu(g: &mut Graph, name: &str, inputs: Vec<TensorId>, outputs: Vec<TensorId>) {
        g.add_node(
            OpKind::Relu,
            name.into(),
            inputs,
            outputs,
            OpAttrs::default(),
        );
    }

    #[test]
    fn validate_rejects_a_dangling_input() {
        let (mut g, _, y) = two_tensors();
        relu(&mut g, "r", vec![TensorId(7)], vec![y]);
        assert_eq!(
            g.validate(),
            Err(GraphError::DanglingTensor {
                node: "r".into(),
                tensor: 7
            })
        );
    }

    #[test]
    fn validate_rejects_a_dangling_output() {
        let (mut g, x, _) = two_tensors();
        relu(&mut g, "r", vec![x], vec![TensorId(2)]);
        assert_eq!(
            g.validate(),
            Err(GraphError::DanglingTensor {
                node: "r".into(),
                tensor: 2
            })
        );
    }

    #[test]
    fn validate_rejects_a_second_writer() {
        let (mut g, x, y) = two_tensors();
        relu(&mut g, "r1", vec![x], vec![y]);
        relu(&mut g, "r2", vec![x], vec![y]);
        assert_eq!(
            g.validate(),
            Err(GraphError::MultipleWriters { tensor: "y".into() })
        );
    }

    #[test]
    fn validate_rejects_a_use_before_definition() {
        let (mut g, x, y) = two_tensors();
        let z = g.add_tensor("z".into(), Shape::from([4]), false);
        relu(&mut g, "r1", vec![y], vec![z]);
        relu(&mut g, "r2", vec![x], vec![y]);
        assert_eq!(
            g.validate(),
            Err(GraphError::UseBeforeDef {
                node: "r1".into(),
                tensor: "y".into()
            })
        );
    }

    #[test]
    fn validate_skips_an_out_of_range_graph_input_without_panicking() {
        let (mut g, x, y) = two_tensors();
        g.mark_input(TensorId(9));
        relu(&mut g, "r", vec![x], vec![y]);
        assert_eq!(g.validate(), Ok(()));
        relu(&mut g, "s", vec![TensorId(9)], vec![]);
        assert_eq!(
            g.validate(),
            Err(GraphError::DanglingTensor {
                node: "s".into(),
                tensor: 9
            })
        );
    }

    #[test]
    fn generated_names_render_as_the_builder_spelled_them() {
        let cases = [
            (
                Name::generated(Head::Output, OpKind::Relu.onnx_name(), 3),
                "relu_3",
            ),
            (
                Name::generated(Head::Node, OpKind::Relu.onnx_name(), 4),
                "n_relu_4",
            ),
            (Name::generated(Head::Weight, "", 5), "w_5"),
            (
                Name::generated(Head::Output, OpKind::ReduceMean.onnx_name(), 7),
                "reducemean_7",
            ),
            (
                Name::generated(Head::Node, OpKind::MatMul.onnx_name(), 1234),
                "n_matmul_1234",
            ),
        ];
        for (name, text) in cases {
            assert_eq!(name.to_string(), text);
            assert_eq!(format!("{name:?}"), format!("{text:?}"));
        }
    }

    #[test]
    fn the_builder_names_outputs_nodes_and_weights_from_one_counter() {
        let mut b = crate::GraphBuilder::new("names", 2024);
        let x = b.input("x", [1, 4]);
        let y = b.mul_const(x, [4]);
        let z = b.reduce_mean(y, -1);
        b.output(z);
        let g = b.finish();
        let tensors: Vec<String> = g.tensors().iter().map(|t| t.name.to_string()).collect();
        let nodes: Vec<String> = g.nodes().iter().map(|n| n.name.to_string()).collect();
        assert_eq!(tensors, ["x", "w_1", "mul_2", "reducemean_4"]);
        assert_eq!(nodes, ["n_mul_3", "n_reducemean_5"]);
    }

    #[test]
    fn a_given_name_renders_verbatim_and_equality_compares_parts() {
        let given = Name::from("Input.0_X");
        assert_eq!(given.to_string(), "Input.0_X");
        assert_eq!(format!("{given:?}"), "\"Input.0_X\"");
        assert_eq!(given, Name::from("Input.0_X"));
        assert_ne!(
            Name::from("relu_3"),
            Name::generated(Head::Output, "Relu", 3)
        );
    }

    #[test]
    fn validate_accepts_weights_and_inputs_as_defined() {
        let (mut g, x, y) = two_tensors();
        let w = g.add_tensor("w".into(), Shape::from([4]), true);
        g.add_node(
            OpKind::Add,
            "a".into(),
            vec![x, w],
            vec![y],
            OpAttrs::default(),
        );
        assert_eq!(g.validate(), Ok(()));
    }
}
