//! Regression tests for tiling decisions.
//!
//! The first half pins the window-operator OOB shapes: the tiler used to
//! clamp the output strip's *view* (`rows: … .min(ir - in_rows)`) while
//! the emitted loop nest still walked the full `oh_t × ow_t` rows past
//! the input halo — an out-of-bounds scratchpad walk the `tandem-verify`
//! dataflow pass flagged on the model zoo.
//!
//! The second half generalizes those two shapes into a seeded sweep over
//! the autotuner's search space: every candidate [`TileChoice`] the tiler
//! enumerates — and random multi-site combinations of them, exactly what
//! the `tandem-tune` search explores — must satisfy the same fit
//! predicates, i.e. compile and verify clean at widened mode.

use std::collections::BTreeMap;
use tandem_compiler::{
    enumerate_sites, schedule_graph_opts, CompileError, CompileOptions, NodeSignature, OpLowering,
    Schedule,
};
use tandem_model::zoo::Benchmark;
use tandem_model::{Graph, GraphBuilder, Padding};
use tandem_verify::{Verifier, VerifyConfig, VerifyMode};

fn verify_opts(schedule: Schedule) -> CompileOptions {
    CompileOptions {
        verify: true,
        verify_mode: VerifyMode::Widened,
        schedule,
    }
}

fn assert_clean_scheduled(graph: &Graph, lanes: usize, interim_rows: usize, schedule: Schedule) {
    let lowering = OpLowering::new(lanes, interim_rows);
    let blocks = schedule_graph_opts(&lowering, graph, &verify_opts(schedule.clone()))
        .unwrap_or_else(|e| panic!("{} on {lanes}×{interim_rows}: {e}", graph.name));
    // Belt and braces: re-verify explicitly so the assertion stands even
    // if the default pass wiring changes.
    let verifier = Verifier::new(VerifyConfig::for_lowering(lanes, interim_rows));
    for (bi, sb) in blocks.iter().enumerate() {
        let report = verifier.verify(&sb.program);
        assert!(
            report.is_clean(),
            "{} block {bi} on {lanes}×{interim_rows} (schedule {:016x}):\n{report}",
            graph.name,
            schedule.digest(),
        );
    }
}

fn assert_clean(graph: &Graph, lanes: usize, interim_rows: usize) {
    assert_clean_scheduled(graph, lanes, interim_rows, Schedule::empty());
}

/// VGG-16's first pool: 2×2/2 over 224×224×64. With 512 Interim rows the
/// halo for one output row is 448 input rows, and the old tiler placed a
/// 112-row output strip at base 448 — rows [448, 559] of a 512-row BUF.
#[test]
fn vgg16_first_maxpool_stays_in_bounds() {
    let mut b = GraphBuilder::new("vgg16-pool1", 2014);
    let x = b.input("x", [1, 64, 224, 224]);
    let y = b.max_pool(x, 2, 2);
    b.output(y);
    assert_clean(&b.finish(), 32, 512);
}

/// MobileNetV2's stem depthwise conv, 3×3/1 Same over 112×112×32. On the
/// 64-row unit-test machine the halo read used to touch row 64 — exactly
/// the Interim capacity.
#[test]
fn mobilenet_depthwise_conv_stays_in_bounds_on_tiny_machine() {
    let mut b = GraphBuilder::new("mnv2-dw", 2018);
    let x = b.input("x", [1, 32, 112, 112]);
    let y = b.depthwise_conv(x, 3, 1, Padding::Same);
    b.output(y);
    assert_clean(&b.finish(), 8, 64);
    // and on the paper machine
    let mut b = GraphBuilder::new("mnv2-dw", 2018);
    let x = b.input("x", [1, 32, 112, 112]);
    let y = b.depthwise_conv(x, 3, 1, Padding::Same);
    b.output(y);
    assert_clean(&b.finish(), 32, 512);
}

/// Strided average pool (3×3/2), the third window template.
#[test]
fn strided_average_pool_stays_in_bounds() {
    for (lanes, rows) in [(32usize, 512usize), (8, 64)] {
        let mut b = GraphBuilder::new("avgpool", 2024);
        let x = b.input("x", [1, 64, 56, 56]);
        let y = b.avg_pool(x, 3, 2);
        b.output(y);
        assert_clean(&b.finish(), lanes, rows);
    }
}

/// Scratchpads past the 16-bit row address. The builder used to keep
/// `interim_rows as u16` (0 at 65,536 rows) while the tiler planned with
/// the full count, so a node whose tile needed the rows failed to lower
/// there, and the NPU charged it nothing. Both now use the rows a
/// program can address, so every node lowers (or is a GEMM-side
/// `Unsupported`) on each side of the boundary.
#[test]
fn every_zoo_node_lowers_past_the_16_bit_row_address() {
    for rows in [65_535, 65_536, 66_048] {
        let lowering = OpLowering::new(32, rows);
        for bench in Benchmark::ALL {
            let graph = bench.graph();
            for node in graph.nodes() {
                match lowering.lower_node(&graph, node) {
                    Ok(_) | Err(CompileError::Unsupported { .. }) => {}
                    Err(e) => panic!("{} {} on 32×{rows}: {e}", bench.name(), node.name),
                }
            }
        }
    }
}

// --------------------------------------------------------------------
// Seeded search-space sweep
// --------------------------------------------------------------------

/// `splitmix64` — the same seeded generator the tune driver uses, inlined
/// so the sweep stays dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// A graph touching every tunable operator family: window (pool +
/// depthwise), element-wise unary/binary (with compound integer
/// templates), softmax / reduce-mean / global-average-pool reductions,
/// and permute-engine movement.
fn mixed_graph() -> Graph {
    let mut b = GraphBuilder::new("sweep-mix", 2024);
    let x = b.input("x", [1, 32, 28, 28]);
    let c = b.conv(x, 32, 3, 1, Padding::Same);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    let d = b.depthwise_conv(p, 3, 1, Padding::Same);
    let s = b.sigmoid(d);
    let a = b.add(s, d);
    let t = b.transpose(a, &[0, 1, 3, 2]);
    let sm = b.softmax(t, -1);
    let g = b.gelu_erf(sm);
    let m = b.reduce_mean(g, -1);
    b.output(m);
    let gap = b.global_avg_pool(a);
    b.output(gap);
    b.finish()
}

/// Every candidate the tiler enumerates, pinned one site at a time, must
/// compile and verify clean — the generalized `fits()` assertion over the
/// whole per-site search space, on both the paper machine and the tiny
/// 8×64 configuration where capacity corners actually bite.
#[test]
fn every_site_candidate_verifies_clean() {
    let g = mixed_graph();
    for (lanes, rows) in [(32usize, 512usize), (8, 64)] {
        let lowering = OpLowering::new(lanes, rows);
        let sites = enumerate_sites(&lowering, &g, |n| lowering.site_key(&g, n));
        assert!(
            sites.len() >= 4,
            "expected several tuning sites on {lanes}×{rows}, got {}",
            sites.len()
        );
        for site in &sites {
            assert!(
                site.candidates.contains(&site.baseline),
                "{}: baseline not in candidates",
                site.name
            );
            for &c in &site.candidates {
                let schedule = Schedule::new(BTreeMap::from([(site.key, c)]));
                assert_clean_scheduled(&g, lanes, rows, schedule);
            }
        }
    }
}

/// Random multi-site schedules — the combinations the evolutionary search
/// actually visits — stay verify-clean too. Seeded, so failures replay.
#[test]
fn random_schedules_verify_clean() {
    let g = mixed_graph();
    for (lanes, rows) in [(32usize, 512usize), (8, 64)] {
        let lowering = OpLowering::new(lanes, rows);
        let sites = enumerate_sites(&lowering, &g, |n| lowering.site_key(&g, n));
        let mut rng = SplitMix64(xtrial_seed(lanes as u64, rows as u64));
        for _ in 0..24 {
            let mut choices = BTreeMap::new();
            for site in &sites {
                // Each site independently keeps its baseline or picks a
                // random candidate.
                if rng.next_u64().is_multiple_of(2) {
                    choices.insert(site.key, site.candidates[rng.below(site.candidates.len())]);
                }
            }
            assert_clean_scheduled(&g, lanes, rows, Schedule::new(choices));
        }
    }
}

fn xtrial_seed(lanes: u64, rows: u64) -> u64 {
    0x7a4d_e001 ^ (lanes << 32) ^ rows
}

/// The tiler refuses every machine it cannot fit. On lanes {8, 32} and
/// Interim BUFs of 1 to 32 rows (and 64), every distinct non-GEMM zoo
/// node either lowers to a program the verifier passes, or lowering
/// returns a [`CompileError`]: it never emits a program that reads or
/// writes past the scratchpads. Depthwise weights and bias in Interim
/// BUF 2, and element-wise or reduction tiles with no row to spare, are
/// the two misfits this catches.
#[test]
fn every_zoo_node_fits_or_is_refused_on_small_scratchpads() {
    let q = OpLowering::new(32, 512).fixed.q;
    let graphs: Vec<Graph> = Benchmark::ALL.iter().map(|b| b.graph()).collect();
    // One representative per distinct non-GEMM node (the signature of a
    // fixed machine shape tells nodes apart on every shape).
    let mut seen = std::collections::HashSet::new();
    let mut nodes = Vec::new();
    for graph in &graphs {
        for node in graph.nodes() {
            if node.kind.class().is_non_gemm()
                && seen.insert(NodeSignature::of(graph, node, 32, 512, q))
            {
                nodes.push((graph, node));
            }
        }
    }
    for lanes in [8usize, 32] {
        for rows in (1..=32).chain([64]) {
            let lowering = OpLowering::new(lanes, rows);
            let verifier = Verifier::new(VerifyConfig::for_lowering(lanes, rows));
            for &(graph, node) in &nodes {
                let Ok(op) = lowering.lower_node(graph, node) else {
                    continue;
                };
                if let Some((prog, _)) = &op.tiles {
                    assert!(
                        verifier.is_clean(prog),
                        "{} {} ({}) on {lanes}×{rows} lowers to a program that does not fit:\n{}",
                        graph.name,
                        node.name,
                        node.kind,
                        verifier.verify(prog)
                    );
                }
            }
        }
    }
}
