//! Randomized injectivity check of [`NodeSignature`]: over seeded random
//! graphs, machine shapes and schedules, two signatures are equal exactly
//! when the fields lowering can observe are equal — operator kind, input
//! dims and weight flags, output dims, attribute bits, machine shape and
//! schedule choice. The flat key must neither merge distinct nodes (a
//! wrong cached program) nor split equal ones (a lost cache hit).

use std::collections::{BTreeMap, HashSet};
use tandem_compiler::{NodeSignature, OpLowering, Schedule, TileChoice};
use tandem_model::{Graph, GraphBuilder, Node, OpKind, Padding, TensorId};

/// SplitMix64 — deterministic, dependency-free randomness for tests.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// The observable fields, compared structurally.
#[derive(Debug, Clone, PartialEq)]
struct Fields {
    kind: OpKind,
    inputs: Vec<(Vec<usize>, bool)>,
    outputs: Vec<Vec<usize>>,
    attrs: (usize, usize, Padding, usize, isize, Vec<usize>, [u64; 3]),
    machine: (usize, usize, u32),
    choice: Option<TileChoice>,
}

fn fields(lowering: &OpLowering, graph: &Graph, node: &Node) -> Fields {
    let dims = |id: TensorId| graph.tensor(id).shape.dims().to_vec();
    let a = &node.attrs;
    let choice = if lowering.schedule().is_empty() {
        None
    } else {
        lowering.schedule().get(lowering.site_key(graph, node))
    };
    Fields {
        kind: node.kind,
        inputs: node
            .inputs
            .iter()
            .map(|&id| (dims(id), graph.tensor(id).is_weight))
            .collect(),
        outputs: node.outputs.iter().map(|&id| dims(id)).collect(),
        attrs: (
            a.kernel,
            a.stride,
            a.padding,
            a.groups,
            a.axis,
            a.perm.clone(),
            [
                a.alpha.to_bits(),
                a.clip_min.to_bits(),
                a.clip_max.to_bits(),
            ],
        ),
        machine: (lowering.lanes(), lowering.interim_rows(), lowering.fixed.q),
        choice,
    }
}

/// A small random CNN-ish graph. Sizes come from short menus so that
/// equal nodes recur across graphs (the equal side of the property).
fn random_graph(rng: &mut SplitMix64) -> Graph {
    let mut b = GraphBuilder::new("prop-sig", 2026);
    let c = rng.pick(&[8usize, 16]);
    let hw = rng.pick(&[8usize, 16]);
    let mut h = b.input("x", [1, c, hw, hw]);
    for _ in 0..1 + rng.below(8) {
        let spatial = b.shape(h).dim(2);
        h = match rng.below(11) {
            0 => b.relu(h),
            1 => b.leaky_relu(h, rng.pick(&[0.0, -0.0, 0.1])),
            2 => b.clip(h, rng.pick(&[0.0, -0.0]), rng.pick(&[6.0, 4.0])),
            3 => b.sigmoid(h),
            4 => b.add(h, h),
            5 if spatial >= 2 => b.max_pool(h, 2, 2),
            6 if spatial >= 3 => b.depthwise_conv(h, 3, 1, Padding::Same),
            7 => b.softmax(h, -1),
            8 => b.transpose(h, &[0, 1, 3, 2]),
            9 => b.conv(h, rng.pick(&[8usize, 16]), 1, 1, Padding::Same),
            _ => b.reduce_mean(h, -1),
        };
    }
    b.output(h);
    b.finish()
}

/// A schedule pinning a random choice at a random half of `graph`'s
/// sites under `lowering`'s machine shape.
fn random_schedule(rng: &mut SplitMix64, lowering: &OpLowering, graph: &Graph) -> Schedule {
    let menu = [
        TileChoice::Permute { rows: 4 },
        TileChoice::Elementwise {
            rows: 8,
            split: 2,
            y_in_interim2: false,
        },
        TileChoice::Elementwise {
            rows: 8,
            split: 2,
            y_in_interim2: true,
        },
    ];
    let mut choices = BTreeMap::new();
    for node in graph.nodes() {
        if rng.below(2) == 0 {
            choices.insert(lowering.site_key(graph, node), rng.pick(&menu));
        }
    }
    Schedule::new(choices)
}

#[test]
fn signatures_are_equal_exactly_when_their_fields_are() {
    let mut rng = SplitMix64(0x05EE_D516);
    let mut seen: Vec<(Fields, NodeSignature)> = Vec::new();
    for _ in 0..40 {
        let graph = random_graph(&mut rng);
        // Mostly the paper's machine, so equal nodes meet often; each
        // machine field varies alone in the rest.
        let (lanes, rows, q) = rng.pick(&[
            (32, 512, 14),
            (32, 512, 14),
            (32, 512, 14),
            (16, 512, 14),
            (32, 256, 14),
            (32, 512, 12),
        ]);
        let mut lowering = OpLowering::new(lanes, rows);
        lowering.fixed.q = q;
        if rng.below(3) == 0 {
            let schedule = random_schedule(&mut rng, &lowering, &graph);
            lowering = lowering.with_schedule(schedule);
        }
        for node in graph.nodes() {
            let sig = NodeSignature::for_lowering(&lowering, &graph, node);
            assert_eq!(sig.choice(), fields(&lowering, &graph, node).choice);
            seen.push((fields(&lowering, &graph, node), sig));
        }
    }
    let (mut equal, mut distinct) = (0usize, 0usize);
    for (i, (fa, sa)) in seen.iter().enumerate() {
        for (fb, sb) in &seen[i + 1..] {
            assert_eq!(fa == fb, sa == sb, "{fa:?} vs {fb:?}");
            if fa == fb {
                equal += 1;
                assert_eq!(sa.site_key(), sb.site_key());
            } else {
                distinct += 1;
            }
        }
    }
    assert!(
        equal > 50 && distinct > 50,
        "{equal} equal, {distinct} distinct"
    );
    // Equal keys hash equally: a set of signatures is as large as the
    // set of distinct field tuples.
    let mut unique: Vec<&Fields> = Vec::new();
    for (f, _) in &seen {
        if !unique.contains(&f) {
            unique.push(f);
        }
    }
    let sigs: HashSet<&NodeSignature> = seen.iter().map(|(_, s)| s).collect();
    assert_eq!(sigs.len(), unique.len());
}

#[test]
fn a_rank_split_does_not_alias() {
    // Inputs [2,3],[4] and [2],[3,4] flatten to the same dims 2,3,4; the
    // per-input rank prefix keeps them apart.
    let mut b = GraphBuilder::new("rank-split", 2026);
    let a = b.input("a", [2, 3]);
    let c = b.input("c", [4]);
    let d = b.input("d", [2]);
    let e = b.input("e", [3, 4]);
    let y = b.relu(a);
    b.output(y);
    let g = b.finish();
    let lowering = OpLowering::new(32, 512);
    let mut left = g.nodes()[0].clone();
    left.inputs = vec![a, c];
    let mut right = left.clone();
    right.inputs = vec![d, e];
    let sl = NodeSignature::for_lowering(&lowering, &g, &left);
    let sr = NodeSignature::for_lowering(&lowering, &g, &right);
    assert_ne!(sl, sr);
    assert_ne!(sl.site_key(), sr.site_key());
}

#[test]
fn negative_zero_alpha_is_its_own_key() {
    let mut b = GraphBuilder::new("signed-zero", 2026);
    let x = b.input("x", [1, 8, 4, 4]);
    let p = b.leaky_relu(x, 0.0);
    let n = b.leaky_relu(x, -0.0);
    b.output(p);
    b.output(n);
    let g = b.finish();
    let lowering = OpLowering::new(32, 512);
    let sp = NodeSignature::for_lowering(&lowering, &g, &g.nodes()[0]);
    let sn = NodeSignature::for_lowering(&lowering, &g, &g.nodes()[1]);
    assert_ne!(sp, sn);
    assert_ne!(sp.site_key(), sn.site_key());
}
