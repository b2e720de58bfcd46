//! Whole-repository regression net: the headline results of the paper's
//! evaluation must hold in *shape* — who wins, and by roughly what factor.
//! Exact constants differ (our substrates are calibrated models, not the
//! authors' testbed). The bands on single numbers live in the experiment
//! registry (`tandem_bench::experiments`, checked by
//! `tests/figures_render.rs` and printed in EXPERIMENTS.md); this file
//! asserts the relations between numbers that a band cannot express.

use tandem_bench::experiments;
use tandem_bench::Suite;
use tandem_model::zoo::Benchmark;
use tandem_model::OpKind;

fn suite() -> &'static Suite {
    use std::sync::OnceLock;
    static SUITE: OnceLock<Suite> = OnceLock::new();
    SUITE.get_or_init(Suite::load)
}

/// Experiment `id` rendered once; the returned reader gives the number
/// printed at a row and column.
fn figure(id: &'static str) -> impl Fn(&str, &str) -> f64 {
    let tables = (experiments::find(id).expect("registered").render)(suite());
    move |row, column| {
        experiments::number(&tables, row, column)
            .unwrap_or_else(|| panic!("{id}: no number at {row} / {column}"))
    }
}

#[test]
fn fig08_tile_granularity_raises_utilization() {
    let f = figure("fig08");
    // paper: +20% GEMM-unit and +13% Tandem utilization at tile granularity
    for unit in ["GEMM", "Tandem"] {
        let tile = f("mean", &format!("{unit} util (tile)"));
        let layer = f("mean", &format!("{unit} util (layer)"));
        assert!(tile > layer, "{unit}: tile {tile} vs layer {layer}");
    }
}

#[test]
fn fig14_tandem_beats_both_baselines() {
    let f = figure("fig14");
    let g1 = f("geomean", "vs baseline(1)");
    let g2 = f("geomean", "vs baseline(2)");
    assert!(g1 > g2, "dedicated units must narrow the gap");
    // MobileNetV2 shows the largest baseline-1 speedup among CNNs (paper:
    // 5.9x) — depthwise conv is the differentiator.
    let mbv2 = f("MobileNetV2", "vs baseline(1)");
    assert!(mbv2 > g1, "MobileNetV2 {mbv2} should beat the mean {g1}");
}

#[test]
fn fig15_energy_reduction_is_an_order_of_magnitude() {
    // paper: 39.2x and 20.6x — the off-chip CPU's watts dominate
    let f = figure("fig15");
    assert!(f("geomean", "vs baseline(1)") > f("geomean", "vs baseline(2)"));
}

#[test]
fn fig16_gemmini_comparison_shape() {
    let f = figure("fig16");
    // paper: 47.8x over 1 core, 5.9x over 32 cores — more cores narrow
    // Gemmini's gap…
    assert!(f("geomean", "vs 32-core") < f("geomean", "vs 1-core"));
    // …by rescuing the core-bound transformers, not the depthwise-conv
    // (im2col) path.
    let bert = f("BERT", "32-core self-gain");
    let mbv2 = f("MobileNetV2", "32-core self-gain");
    assert!(
        bert > mbv2,
        "BERT multicore gain {bert} vs MobileNetV2 {mbv2}"
    );
}

#[test]
fn fig18_vpu_comparison_shape() {
    // MobileNetV2/EfficientNet benefit most (5-deep depthwise loops);
    // VGG-16 least (paper's ordering).
    let f = figure("fig18");
    let mbv2 = f("MobileNetV2", "+special fns (final)");
    let vgg = f("VGG-16", "+special fns (final)");
    assert!(mbv2 > vgg, "MobileNetV2 {mbv2} vs VGG {vgg}");
}

#[test]
fn fig21_iso_tops_a100_shape() {
    // Paper: A100 wins VGG-16/YOLOv3 (GEMM-heavy), the NPU wins the
    // transformer/depthwise models against TensorRT-relative ordering.
    let f = figure("fig21");
    let bert = f("BERT", "NPU vs TensorRT");
    let vgg = f("VGG-16", "NPU vs TensorRT");
    assert!(bert > vgg, "BERT {bert} should fare better than VGG {vgg}");
}

#[test]
fn fig24_breakdown_identifies_the_expected_bottlenecks() {
    let f = figure("fig24");
    // MobileNetV2: depthwise convolution is the dominant non-GEMM family.
    let dw = f("MobileNetV2", "dwconv");
    let non_gemm = 100.0 - f("MobileNetV2", "GEMM");
    assert!(
        dw * 2.0 > non_gemm,
        "depthwise {dw}% of {non_gemm}% non-GEMM"
    );
    // BERT: softmax, GELU (erf) and the transposes are all visible. The
    // printed families lump these with other kinds, so read the operators.
    let s = suite();
    let bert = s
        .models
        .iter()
        .position(|(b, _)| *b == Benchmark::Bert)
        .map(|i| &s.tandem[i])
        .expect("BERT in the suite");
    for kind in [OpKind::Softmax, OpKind::Erf, OpKind::Transpose] {
        assert!(
            bert.per_kind_cycles.get(&kind).copied().unwrap_or(0) > 0,
            "BERT missing {kind} cycles"
        );
    }
}

#[test]
fn fig25_energy_breakdown_bands() {
    // Averaged over the suite, the Figure 25 shape: loop+addr logic is the
    // largest Tandem consumer.
    let f = figure("fig25");
    let loop_addr = f("mean", "loop+addr");
    for other in ["off-chip DRAM", "on-chip SRAM", "ALU", "other"] {
        let v = f("mean", other);
        assert!(loop_addr > v, "loop+addr {loop_addr} vs {other} {v}");
    }
}

#[test]
fn suite_runtime_is_interactive() {
    // The whole evaluation (7 models × 9+ platforms) must stay re-runnable
    // in seconds — that is what makes the figure harness usable.
    let t0 = std::time::Instant::now();
    let _ = Suite::load();
    assert!(
        t0.elapsed().as_secs_f64() < 60.0,
        "suite load took {:?}",
        t0.elapsed()
    );
}
