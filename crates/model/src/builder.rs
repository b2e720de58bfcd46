//! [`GraphBuilder`] — ergonomic construction of operator graphs with
//! inline shape inference.

use crate::graph::{Graph, Head, Name, NodeId, TensorId};
use crate::op::{OpAttrs, OpClass, OpKind, Padding};
use crate::shape::Shape;

/// Builds a [`Graph`] node by node, inferring output shapes as it goes.
///
/// The builder mirrors how inference-time ONNX exports look: convolutions
/// carry folded batch-norm and bias, composite operators (LayerNorm, GELU,
/// Swish) are emitted as their primitive decompositions via the dedicated
/// helper methods.
///
/// ```
/// use tandem_model::{GraphBuilder, Padding};
///
/// let mut b = GraphBuilder::new("tiny", 2024);
/// let x = b.input("x", [1, 3, 32, 32]);
/// let c = b.conv(x, 8, 3, 1, Padding::Same);
/// let r = b.relu(c);
/// let p = b.max_pool(r, 2, 2);
/// b.output(p);
/// let g = b.finish();
/// assert_eq!(g.nodes().len(), 3);
/// ```
#[derive(Debug)]
pub struct GraphBuilder {
    graph: Graph,
    counter: u32,
}

impl GraphBuilder {
    /// Starts a new graph with the given model name and release year.
    pub fn new(name: impl Into<String>, year: u32) -> Self {
        GraphBuilder {
            graph: Graph::new(name, year),
            counter: 0,
        }
    }

    /// The generated name `{head}{kind lowercased}_{n}` for the next
    /// counter value `n`, kept as its parts (see [`Name`]).
    fn fresh_name(&mut self, head: Head, kind: &'static str) -> Name {
        self.counter += 1;
        Name::generated(head, kind, self.counter)
    }

    /// Shape of `t`, borrowed (the builder's own shape inference reads
    /// through this; only the output shape it derives is allocated).
    fn shape_ref(&self, t: TensorId) -> &Shape {
        &self.graph.tensor(t).shape
    }

    /// Declares a graph input activation.
    pub fn input(&mut self, name: &str, shape: impl Into<Shape>) -> TensorId {
        let id = self.graph.add_tensor(name.into(), shape.into(), false);
        self.graph.mark_input(id);
        id
    }

    /// Declares a weight/constant tensor (ONNX initializer).
    pub fn weight(&mut self, shape: impl Into<Shape>) -> TensorId {
        let name = self.fresh_name(Head::Weight, "");
        self.graph.add_tensor(name, shape.into(), true)
    }

    /// Marks a tensor as a graph output.
    pub fn output(&mut self, t: TensorId) {
        self.graph.mark_output(t);
    }

    /// Finalizes and returns the graph.
    ///
    /// # Panics
    ///
    /// Panics if the constructed graph violates SSA/def-before-use
    /// invariants (a builder bug).
    pub fn finish(mut self) -> Graph {
        self.graph
            .validate()
            .expect("builder produced an invalid graph");
        self.graph.seal();
        self.graph
    }

    /// Shape of `t`.
    pub fn shape(&self, t: TensorId) -> Shape {
        self.shape_ref(t).clone()
    }

    fn emit(
        &mut self,
        kind: OpKind,
        inputs: Vec<TensorId>,
        out_shape: Shape,
        attrs: OpAttrs,
    ) -> TensorId {
        let out_name = self.fresh_name(Head::Output, kind.onnx_name());
        let out = self.graph.add_tensor(out_name, out_shape, false);
        let node_name = self.fresh_name(Head::Node, kind.onnx_name());
        self.graph
            .add_node(kind, node_name, inputs, vec![out], attrs);
        out
    }

    fn emit_multi(
        &mut self,
        kind: OpKind,
        inputs: Vec<TensorId>,
        out_shapes: impl Iterator<Item = Shape>,
        attrs: OpAttrs,
    ) -> (NodeId, Vec<TensorId>) {
        let outs: Vec<TensorId> = out_shapes
            .map(|s| {
                let name = self.fresh_name(Head::Output, kind.onnx_name());
                self.graph.add_tensor(name, s, false)
            })
            .collect();
        let node_name = self.fresh_name(Head::Node, kind.onnx_name());
        let id = self
            .graph
            .add_node(kind, node_name, inputs, outs.clone(), attrs);
        (id, outs)
    }

    fn spatial_out(input: usize, kernel: usize, stride: usize, padding: Padding) -> usize {
        match padding {
            Padding::Same => input.div_ceil(stride),
            Padding::Valid => (input - kernel) / stride + 1,
        }
    }

    // ----- GEMM class -----

    /// 2-D convolution (NCHW) with folded batch-norm and bias.
    pub fn conv(
        &mut self,
        x: TensorId,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: Padding,
    ) -> TensorId {
        let in_shape = self.shape_ref(x);
        assert_eq!(in_shape.rank(), 4, "conv expects NCHW input");
        let (n, c, h, w) = (
            in_shape.dim(0),
            in_shape.dim(1),
            in_shape.dim(2),
            in_shape.dim(3),
        );
        let wt = self.weight([out_channels, c, kernel, kernel]);
        let bias = self.weight([out_channels]);
        let oh = Self::spatial_out(h, kernel, stride, padding);
        let ow = Self::spatial_out(w, kernel, stride, padding);
        self.emit(
            OpKind::Conv,
            vec![x, wt, bias],
            Shape::from([n, out_channels, oh, ow]),
            OpAttrs::conv(kernel, stride, padding),
        )
    }

    /// Depth-wise 2-D convolution (`groups == channels`) — a *reduction*
    /// class operator executed on the Tandem Processor, not the GEMM unit.
    pub fn depthwise_conv(
        &mut self,
        x: TensorId,
        kernel: usize,
        stride: usize,
        padding: Padding,
    ) -> TensorId {
        let in_shape = self.shape_ref(x);
        let (n, c, h, w) = (
            in_shape.dim(0),
            in_shape.dim(1),
            in_shape.dim(2),
            in_shape.dim(3),
        );
        let wt = self.weight([c, 1, kernel, kernel]);
        let bias = self.weight([c]);
        let oh = Self::spatial_out(h, kernel, stride, padding);
        let ow = Self::spatial_out(w, kernel, stride, padding);
        let mut attrs = OpAttrs::conv(kernel, stride, padding);
        attrs.groups = c;
        self.emit(
            OpKind::DepthwiseConv,
            vec![x, wt, bias],
            Shape::from([n, c, oh, ow]),
            attrs,
        )
    }

    /// Fully connected layer (`Gemm`): input `[n, in]` → `[n, out]`.
    pub fn fc(&mut self, x: TensorId, out_features: usize) -> TensorId {
        let in_shape = self.shape_ref(x);
        assert_eq!(in_shape.rank(), 2, "fc expects a 2-D input");
        let (n, in_features) = (in_shape.dim(0), in_shape.dim(1));
        let wt = self.weight([out_features, in_features]);
        let bias = self.weight([out_features]);
        self.emit(
            OpKind::Gemm,
            vec![x, wt, bias],
            Shape::from([n, out_features]),
            OpAttrs::default(),
        )
    }

    /// Batched matrix multiplication with broadcast over leading dims.
    pub fn matmul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        let (sa, sb) = (self.shape_ref(a), self.shape_ref(b));
        assert!(sa.rank() >= 2 && sb.rank() >= 2, "matmul needs rank >= 2");
        assert_eq!(
            sa.dim(-1),
            sb.dim(-2),
            "matmul inner dimensions must agree ({sa} x {sb})"
        );
        let mut dims: Vec<usize> = if sa.rank() >= sb.rank() {
            sa.dims().to_vec()
        } else {
            sb.dims().to_vec()
        };
        let rank = dims.len();
        dims[rank - 2] = sa.dim(-2);
        dims[rank - 1] = sb.dim(-1);
        self.emit(
            OpKind::MatMul,
            vec![a, b],
            Shape::from(dims),
            OpAttrs::default(),
        )
    }

    /// Projection by a weight matrix: `x · W` with `W: [in, out]`
    /// (transformer linear layer without bias).
    pub fn linear(&mut self, x: TensorId, out_features: usize) -> TensorId {
        let in_features = self.shape_ref(x).dim(-1);
        let w = self.weight([in_features, out_features]);
        self.matmul(x, w)
    }

    // ----- element-wise math -----

    fn binary(&mut self, kind: OpKind, a: TensorId, b: TensorId) -> TensorId {
        let shape = self.shape_ref(a).broadcast(self.shape_ref(b));
        self.emit(kind, vec![a, b], shape, OpAttrs::default())
    }

    /// `a + b` (broadcasting).
    pub fn add(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(OpKind::Add, a, b)
    }

    /// `a - b` (broadcasting).
    pub fn sub(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(OpKind::Sub, a, b)
    }

    /// `a * b` (broadcasting).
    pub fn mul(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(OpKind::Mul, a, b)
    }

    /// `a / b` (broadcasting).
    pub fn div(&mut self, a: TensorId, b: TensorId) -> TensorId {
        self.binary(OpKind::Div, a, b)
    }

    /// Adds a broadcast scalar/vector constant.
    pub fn add_const(&mut self, a: TensorId, const_shape: impl Into<Shape>) -> TensorId {
        let c = self.weight(const_shape);
        self.add(a, c)
    }

    /// Multiplies by a broadcast scalar/vector constant.
    pub fn mul_const(&mut self, a: TensorId, const_shape: impl Into<Shape>) -> TensorId {
        let c = self.weight(const_shape);
        self.mul(a, c)
    }

    /// Divides by a broadcast scalar constant (e.g. attention `1/√d`).
    pub fn div_const(&mut self, a: TensorId) -> TensorId {
        let c = self.weight(Shape::scalar());
        self.div(a, c)
    }

    fn unary(&mut self, kind: OpKind, x: TensorId) -> TensorId {
        let shape = self.shape_ref(x).clone();
        self.emit(kind, vec![x], shape, OpAttrs::default())
    }

    /// `exp(x)`.
    pub fn exp(&mut self, x: TensorId) -> TensorId {
        self.unary(OpKind::Exp, x)
    }

    /// `sqrt(x)`.
    pub fn sqrt(&mut self, x: TensorId) -> TensorId {
        self.unary(OpKind::Sqrt, x)
    }

    /// `erf(x)`.
    pub fn erf(&mut self, x: TensorId) -> TensorId {
        self.unary(OpKind::Erf, x)
    }

    /// `1/x`.
    pub fn reciprocal(&mut self, x: TensorId) -> TensorId {
        self.unary(OpKind::Reciprocal, x)
    }

    /// `x ^ alpha` (constant exponent).
    pub fn pow_const(&mut self, x: TensorId, alpha: f64) -> TensorId {
        let shape = self.shape_ref(x).clone();
        let e = self.weight(Shape::scalar());
        self.emit(
            OpKind::Pow,
            vec![x, e],
            shape,
            OpAttrs {
                alpha,
                ..Default::default()
            },
        )
    }

    /// `where(cond, a, b)` — element selection.
    pub fn where_op(&mut self, cond: TensorId, a: TensorId, b: TensorId) -> TensorId {
        let shape = self.shape_ref(a).broadcast(self.shape_ref(b));
        self.emit(OpKind::Where, vec![cond, a, b], shape, OpAttrs::default())
    }

    // ----- activations -----

    /// `relu(x)`.
    pub fn relu(&mut self, x: TensorId) -> TensorId {
        self.unary(OpKind::Relu, x)
    }

    /// `leaky_relu(x)` with the given negative slope.
    pub fn leaky_relu(&mut self, x: TensorId, alpha: f64) -> TensorId {
        let shape = self.shape_ref(x).clone();
        self.emit(
            OpKind::LeakyRelu,
            vec![x],
            shape,
            OpAttrs {
                alpha,
                ..Default::default()
            },
        )
    }

    /// `clip(x, min, max)` (ReLU6 when `0..=6`).
    pub fn clip(&mut self, x: TensorId, min: f64, max: f64) -> TensorId {
        let shape = self.shape_ref(x).clone();
        self.emit(
            OpKind::Clip,
            vec![x],
            shape,
            OpAttrs {
                clip_min: min,
                clip_max: max,
                ..Default::default()
            },
        )
    }

    /// `sigmoid(x)`.
    pub fn sigmoid(&mut self, x: TensorId) -> TensorId {
        self.unary(OpKind::Sigmoid, x)
    }

    /// `tanh(x)`.
    pub fn tanh(&mut self, x: TensorId) -> TensorId {
        self.unary(OpKind::Tanh, x)
    }

    /// Swish / SiLU as exported by ONNX: `x * sigmoid(x)` (two nodes).
    pub fn swish(&mut self, x: TensorId) -> TensorId {
        let s = self.sigmoid(x);
        self.mul(x, s)
    }

    /// GELU as BERT ONNX exports emit it (erf form, 5 nodes):
    /// `0.5 * x * (1 + erf(x / √2))`.
    pub fn gelu_erf(&mut self, x: TensorId) -> TensorId {
        let scaled = self.div_const(x);
        let e = self.erf(scaled);
        let one = self.add_const(e, Shape::scalar());
        let hx = self.mul_const(x, Shape::scalar());
        self.mul(hx, one)
    }

    /// GELU as GPT-2 ONNX exports emit it (tanh approximation, 7 nodes):
    /// `0.5 * x * (1 + tanh(√(2/π) * (x + 0.044715·x³)))`.
    pub fn gelu_tanh(&mut self, x: TensorId) -> TensorId {
        let x3 = self.pow_const(x, 3.0);
        let cx3 = self.mul_const(x3, Shape::scalar());
        let inner = self.add(x, cx3);
        let scaled = self.mul_const(inner, Shape::scalar());
        let t = self.tanh(scaled);
        let one = self.add_const(t, Shape::scalar());
        let hx = self.mul_const(x, Shape::scalar());
        self.mul(hx, one)
    }

    // ----- reductions -----

    /// Max pooling.
    pub fn max_pool(&mut self, x: TensorId, kernel: usize, stride: usize) -> TensorId {
        let s = self.shape_ref(x);
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let oh = Self::spatial_out(h, kernel, stride, Padding::Same);
        let ow = Self::spatial_out(w, kernel, stride, Padding::Same);
        self.emit(
            OpKind::MaxPool,
            vec![x],
            Shape::from([n, c, oh, ow]),
            OpAttrs::pool(kernel, stride, Padding::Same),
        )
    }

    /// Average pooling.
    pub fn avg_pool(&mut self, x: TensorId, kernel: usize, stride: usize) -> TensorId {
        let s = self.shape_ref(x);
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        let oh = Self::spatial_out(h, kernel, stride, Padding::Same);
        let ow = Self::spatial_out(w, kernel, stride, Padding::Same);
        self.emit(
            OpKind::AveragePool,
            vec![x],
            Shape::from([n, c, oh, ow]),
            OpAttrs::pool(kernel, stride, Padding::Same),
        )
    }

    /// Global average pooling: `[n,c,h,w] → [n,c,1,1]`.
    pub fn global_avg_pool(&mut self, x: TensorId) -> TensorId {
        let s = self.shape_ref(x);
        let (n, c) = (s.dim(0), s.dim(1));
        self.emit(
            OpKind::GlobalAveragePool,
            vec![x],
            Shape::from([n, c, 1, 1]),
            OpAttrs::default(),
        )
    }

    /// Mean over `axis`, keeping the dimension (as LayerNorm decompositions
    /// do).
    pub fn reduce_mean(&mut self, x: TensorId, axis: isize) -> TensorId {
        let s = self.shape_ref(x);
        let rank = s.rank() as isize;
        let ax = if axis < 0 { rank + axis } else { axis } as usize;
        let mut dims = s.dims().to_vec();
        dims[ax] = 1;
        self.emit(
            OpKind::ReduceMean,
            vec![x],
            Shape::from(dims),
            OpAttrs::axis(axis),
        )
    }

    /// Softmax over `axis`.
    pub fn softmax(&mut self, x: TensorId, axis: isize) -> TensorId {
        let shape = self.shape_ref(x).clone();
        self.emit(OpKind::Softmax, vec![x], shape, OpAttrs::axis(axis))
    }

    // ----- layout transformations -----

    /// Transpose by `perm`.
    pub fn transpose(&mut self, x: TensorId, perm: &[usize]) -> TensorId {
        let shape = self.shape_ref(x).permute(perm);
        self.emit(
            OpKind::Transpose,
            vec![x],
            shape,
            OpAttrs {
                perm: perm.to_vec(),
                ..Default::default()
            },
        )
    }

    /// Reshape to an explicit shape with the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&mut self, x: TensorId, shape: impl Into<Shape>) -> TensorId {
        let new_shape = shape.into();
        assert_eq!(
            self.shape_ref(x).elements(),
            new_shape.elements(),
            "reshape must preserve element count"
        );
        self.emit(OpKind::Reshape, vec![x], new_shape, OpAttrs::default())
    }

    /// Flatten to 2-D `[n, rest]`.
    pub fn flatten(&mut self, x: TensorId) -> TensorId {
        let s = self.shape_ref(x);
        let n = s.dim(0);
        let rest = s.elements() / n;
        self.emit(
            OpKind::Flatten,
            vec![x],
            Shape::from([n, rest]),
            OpAttrs::default(),
        )
    }

    /// Concatenation along `axis`.
    pub fn concat(&mut self, xs: &[TensorId], axis: isize) -> TensorId {
        assert!(!xs.is_empty());
        let first = self.shape_ref(xs[0]);
        let rank = first.rank() as isize;
        let ax = if axis < 0 { rank + axis } else { axis } as usize;
        let mut dims = first.dims().to_vec();
        dims[ax] = xs.iter().map(|&t| self.shape_ref(t).dims()[ax]).sum();
        self.emit(
            OpKind::Concat,
            xs.to_vec(),
            Shape::from(dims),
            OpAttrs::axis(axis),
        )
    }

    /// Splits into `parts` equal pieces along `axis`.
    pub fn split(&mut self, x: TensorId, parts: usize, axis: isize) -> Vec<TensorId> {
        let s = self.shape_ref(x);
        let rank = s.rank() as isize;
        let ax = if axis < 0 { rank + axis } else { axis } as usize;
        assert_eq!(s.dims()[ax] % parts, 0, "split must be even");
        let mut dims = s.dims().to_vec();
        dims[ax] /= parts;
        let shapes = std::iter::repeat_n(Shape::from(dims), parts);
        self.emit_multi(OpKind::Split, vec![x], shapes, OpAttrs::axis(axis))
            .1
    }

    /// Embedding lookup: `Gather(table[vocab, hidden], ids[...]) →
    /// [..., hidden]`.
    pub fn gather(&mut self, table: TensorId, indices: TensorId) -> TensorId {
        let idx = self.shape_ref(indices).dims();
        let mut dims = Vec::with_capacity(idx.len() + 1);
        dims.extend_from_slice(idx);
        dims.push(self.shape_ref(table).dim(-1));
        self.emit(
            OpKind::Gather,
            vec![table, indices],
            Shape::from(dims),
            OpAttrs::axis(0),
        )
    }

    /// Nearest-neighbour spatial upsampling by an integer factor.
    pub fn resize(&mut self, x: TensorId, factor: usize) -> TensorId {
        let s = self.shape_ref(x);
        let (n, c, h, w) = (s.dim(0), s.dim(1), s.dim(2), s.dim(3));
        self.emit(
            OpKind::Resize,
            vec![x],
            Shape::from([n, c, h * factor, w * factor]),
            OpAttrs {
                alpha: factor as f64,
                ..Default::default()
            },
        )
    }

    /// Slice keeping `len` entries from `start` along `axis`.
    pub fn slice(&mut self, x: TensorId, axis: isize, start: usize, len: usize) -> TensorId {
        let s = self.shape_ref(x);
        let rank = s.rank() as isize;
        let ax = if axis < 0 { rank + axis } else { axis } as usize;
        assert!(start + len <= s.dims()[ax]);
        let mut dims = s.dims().to_vec();
        dims[ax] = len;
        self.emit(
            OpKind::Slice,
            vec![x],
            Shape::from(dims),
            OpAttrs::axis(axis),
        )
    }

    // ----- type conversion -----

    /// Datatype cast (shape preserving).
    pub fn cast(&mut self, x: TensorId) -> TensorId {
        self.unary(OpKind::Cast, x)
    }

    /// Bit shift by a constant (requantization step).
    pub fn bit_shift(&mut self, x: TensorId) -> TensorId {
        let shape = self.shape_ref(x).clone();
        let amount = self.weight(Shape::scalar());
        self.emit(OpKind::BitShift, vec![x, amount], shape, OpAttrs::default())
    }

    // ----- composite helpers -----

    /// LayerNorm over the last axis, decomposed exactly as ONNX exporters
    /// emit it (9 nodes):
    /// `mean = ReduceMean(x); d = x - mean; var = ReduceMean(d²);`
    /// `y = d / sqrt(var + eps) * gamma + beta`.
    pub fn layer_norm(&mut self, x: TensorId) -> TensorId {
        let hidden = self.shape_ref(x).dim(-1);
        let mean = self.reduce_mean(x, -1);
        let d = self.sub(x, mean);
        let sq = self.pow_const(d, 2.0);
        let var = self.reduce_mean(sq, -1);
        let var_eps = self.add_const(var, Shape::scalar());
        let std = self.sqrt(var_eps);
        let norm = self.div(d, std);
        let scaled = self.mul_const(norm, [hidden]);
        self.add_const(scaled, [hidden])
    }

    /// Number of nodes emitted so far with the given class.
    pub fn class_count(&self, class: OpClass) -> usize {
        self.graph
            .nodes()
            .iter()
            .filter(|n| n.kind.class() == class)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_shape_inference() {
        let mut b = GraphBuilder::new("t", 2024);
        let x = b.input("x", [1, 3, 224, 224]);
        let c = b.conv(x, 64, 3, 1, Padding::Same);
        assert_eq!(b.shape(c), Shape::from([1, 64, 224, 224]));
        let s = b.conv(c, 128, 3, 2, Padding::Same);
        assert_eq!(b.shape(s), Shape::from([1, 128, 112, 112]));
        let v = b.conv(s, 32, 7, 2, Padding::Valid);
        assert_eq!(b.shape(v), Shape::from([1, 32, 53, 53]));
    }

    #[test]
    fn layer_norm_emits_nine_nodes() {
        let mut b = GraphBuilder::new("t", 2024);
        let x = b.input("x", [1, 128, 768]);
        let y = b.layer_norm(x);
        assert_eq!(b.shape(y), Shape::from([1, 128, 768]));
        let g = {
            let mut b = b;
            b.output(y);
            b.finish()
        };
        assert_eq!(g.nodes().len(), 9);
    }

    #[test]
    fn gelu_decompositions() {
        let mut b = GraphBuilder::new("t", 2024);
        let x = b.input("x", [1, 128, 3072]);
        let before = 0;
        let y = b.gelu_erf(x);
        assert_eq!(b.shape(y), b.shape(x));
        let mut b2 = GraphBuilder::new("t", 2024);
        let x2 = b2.input("x", [1, 128, 3072]);
        let y2 = b2.gelu_tanh(x2);
        assert_eq!(b2.shape(y2), b2.shape(x2));
        let _ = before;
    }

    #[test]
    fn split_and_concat_are_inverses_in_shape() {
        let mut b = GraphBuilder::new("t", 2024);
        let x = b.input("x", [1, 128, 2304]);
        let parts = b.split(x, 3, -1);
        assert_eq!(parts.len(), 3);
        assert_eq!(b.shape(parts[0]), Shape::from([1, 128, 768]));
        let back = b.concat(&parts, -1);
        assert_eq!(b.shape(back), Shape::from([1, 128, 2304]));
    }

    #[test]
    fn finished_graph_validates() {
        let mut b = GraphBuilder::new("t", 2024);
        let x = b.input("x", [1, 16]);
        let y = b.fc(x, 8);
        let z = b.softmax(y, -1);
        b.output(z);
        let g = b.finish();
        assert!(g.validate().is_ok());
        assert_eq!(g.outputs().len(), 1);
        assert!(g.producer(g.outputs()[0]).is_some());
    }

    #[test]
    fn finish_digests_structure_not_names() {
        let build = |name: &str, alpha: f64| {
            let mut b = GraphBuilder::new(name, 2024);
            let x = b.input("x", [1, 16]);
            let y = b.leaky_relu(x, alpha);
            b.output(y);
            b.finish()
        };
        assert_eq!(
            build("a", 0.1).content_hash(),
            build("b", 0.1).content_hash()
        );
        assert_ne!(
            build("a", 0.1).content_hash(),
            build("a", 0.2).content_hash()
        );
        // The empty graph digests the same however it was made.
        let empty = GraphBuilder::new("e", 2024).finish();
        assert_eq!(empty.content_hash(), Graph::new("f", 1).content_hash());
        assert_eq!(empty.content_hash(), Graph::default().content_hash());
    }
}
