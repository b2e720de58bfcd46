//! Randomized tests over constructed graphs: the builder's shape
//! inference, validation, statistics and names must be self-consistent
//! for any MLP/CNN the seeded generator produces.

use std::collections::HashSet;
use tandem_model::{GraphBuilder, OpClass, OpKind, Padding, Shape};

/// xorshift64* — deterministic, dependency-free randomness for tests.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

#[derive(Debug, Clone)]
enum Layer {
    Conv {
        channels: usize,
        kernel: usize,
        stride: usize,
    },
    Relu,
    Clip,
    Sigmoid,
    Add,     // residual to the previous layer input when shapes allow
    MaxPool, // 2×2/2
    Dw,      // depthwise 3×3/1
}

fn arb_layer(rng: &mut Rng) -> Layer {
    match rng.below(7) {
        0 => Layer::Conv {
            channels: rng.range(1, 17) as usize * 4,
            kernel: [1usize, 3][rng.below(2) as usize],
            stride: rng.range(1, 3) as usize,
        },
        1 => Layer::Relu,
        2 => Layer::Clip,
        3 => Layer::Sigmoid,
        4 => Layer::Add,
        5 => Layer::MaxPool,
        _ => Layer::Dw,
    }
}

#[test]
fn random_cnns_validate_and_count_consistently() {
    let mut rng = Rng::new(0xC0FFEE);
    for case in 0..64 {
        let n_layers = rng.range(1, 12) as usize;
        let layers: Vec<Layer> = (0..n_layers).map(|_| arb_layer(&mut rng)).collect();

        let mut b = GraphBuilder::new("prop-cnn", 2026);
        let mut h = b.input("x", [1, 8, 32, 32]);
        #[allow(unused_assignments)]
        let mut prev = h;
        for layer in &layers {
            // spatial size can shrink below pool/conv windows; guard
            let spatial = b.shape(h).dim(2);
            prev = h;
            h = match layer {
                Layer::Conv {
                    channels,
                    kernel,
                    stride,
                } if spatial >= *kernel => b.conv(h, *channels, *kernel, *stride, Padding::Same),
                Layer::Relu => b.relu(h),
                Layer::Clip => b.clip(h, 0.0, 6.0),
                Layer::Sigmoid => b.sigmoid(h),
                Layer::Add => {
                    if b.shape(h) == b.shape(prev) && h != prev {
                        b.add(h, prev)
                    } else {
                        h
                    }
                }
                Layer::MaxPool if spatial >= 2 => b.max_pool(h, 2, 2),
                Layer::Dw if spatial >= 3 => b.depthwise_conv(h, 3, 1, Padding::Same),
                _ => h,
            };
        }
        b.output(h);
        let g = b.finish();

        // (finish() already validates; check the invariants hold anyway)
        assert!(g.validate().is_ok(), "case {case}");
        let stats = g.stats();
        assert_eq!(stats.total_nodes(), g.nodes().len());
        assert_eq!(
            stats.gemm_nodes() + stats.non_gemm_nodes(),
            stats.total_nodes()
        );
        // every activation tensor's element count is positive
        for t in g.tensors() {
            assert!(t.shape.elements() > 0, "empty tensor {}", t.name);
        }
        // graph output is produced by some node or is the input
        let out = g.outputs()[0];
        assert!(g.producer(out).is_some() || g.inputs().contains(&out));
        // rendered names are unique within the graph: tensors among
        // tensors, nodes among nodes
        let tensor_names: HashSet<String> =
            g.tensors().iter().map(|t| t.name.to_string()).collect();
        assert_eq!(
            tensor_names.len(),
            g.tensors().len(),
            "case {case}: tensor names repeat"
        );
        let node_names: HashSet<String> = g.nodes().iter().map(|n| n.name.to_string()).collect();
        assert_eq!(
            node_names.len(),
            g.nodes().len(),
            "case {case}: node names repeat"
        );
    }
}

#[test]
fn broadcast_shapes_agree_with_numpy_rules() {
    let mut rng = Rng::new(0xB0A5);
    for _ in 0..64 {
        let rank = rng.range(1, 4) as usize;
        let dims: Vec<usize> = (0..rank).map(|_| rng.range(1, 5) as usize).collect();
        let a = Shape::new(dims.clone());
        let ones = Shape::new(vec![1usize; dims.len()]);
        assert!(a.broadcastable_with(&ones));
        assert_eq!(a.broadcast(&ones), a.clone());
        assert_eq!(ones.broadcast(&a), a.clone());
        let scalar = Shape::scalar();
        assert_eq!(a.broadcast(&scalar), a);
    }
}

#[test]
fn node_costs_are_monotone_in_scale() {
    for scale in 1usize..4 {
        let elems = 1024 * scale;
        let mut b = GraphBuilder::new("t", 2026);
        let x = b.input("x", [1, elems]);
        let y = b.sigmoid(x);
        b.output(y);
        let g = b.finish();
        let node = g
            .nodes()
            .iter()
            .find(|n| n.kind == OpKind::Sigmoid)
            .unwrap();
        let cost = tandem_model::NodeCost::of(&g, node);
        assert_eq!(cost.out_elems, elems as u64);
        assert_eq!(cost.in_elems, elems as u64);
        assert_eq!(node.kind.class(), OpClass::Activation);
    }
}
