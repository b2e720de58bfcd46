//! Table 1–3 and Figures 1–5: the non-GEMM characterization of §2.

use crate::suite::Suite;
use crate::table::{pct, Table};
use std::collections::BTreeMap;
use tandem_model::zoo::Benchmark;
use tandem_model::{operator_roofline, OpClass, OpKind};

/// Table 1: the non-GEMM operator classes with the operators each model
/// actually uses.
pub fn table1_operator_classes(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Table 1 — non-GEMM operator classes across the suite",
        &["class", "operators found", "models using the class"],
    );
    for class in OpClass::ALL.iter().filter(|c| c.is_non_gemm()) {
        let mut ops: Vec<&str> = Vec::new();
        let mut models: Vec<&str> = Vec::new();
        for (bench, graph) in &suite.models {
            let stats = graph.stats();
            let mut used = false;
            for (kind, count) in stats.kind_counts() {
                if kind.class() == *class && count > 0 {
                    used = true;
                    if !ops.contains(&kind.onnx_name()) {
                        ops.push(kind.onnx_name());
                    }
                }
            }
            if used {
                models.push(bench.name());
            }
        }
        t.row(vec![
            class.name().to_string(),
            ops.join(", "),
            models.join(", "),
        ]);
    }
    t
}

/// Figure 1: distinct operator types (GEMM vs non-GEMM) per model, in
/// chronological order.
pub fn fig01_operator_types(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 1 — operator-type variety per model (chronological)",
        &["model", "year", "GEMM types", "non-GEMM types"],
    );
    let mut ordered: Vec<_> = suite.models.iter().collect();
    ordered.sort_by_key(|(_, g)| g.year);
    for (bench, graph) in ordered {
        let stats = graph.stats();
        let gemm_types = stats
            .kind_counts()
            .filter(|(k, c)| k.class() == OpClass::Gemm && *c > 0)
            .count();
        t.row(vec![
            bench.name().to_string(),
            graph.year.to_string(),
            gemm_types.to_string(),
            stats.non_gemm_kind_variety().to_string(),
        ]);
    }
    t.note("paper: VGG-16 has ~3 non-GEMM types; language models around ten");
    t
}

/// Figure 2: cumulative GEMM / non-GEMM node counts across the suite.
pub fn fig02_cumulative_ops(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 2 — cumulative operator counts",
        &[
            "through model",
            "GEMM nodes",
            "non-GEMM nodes",
            "GEMM share",
        ],
    );
    let mut gemm = 0usize;
    let mut non_gemm = 0usize;
    for (bench, graph) in &suite.models {
        let stats = graph.stats();
        gemm += stats.gemm_nodes();
        non_gemm += stats.non_gemm_nodes();
        t.row(vec![
            bench.name().to_string(),
            gemm.to_string(),
            non_gemm.to_string(),
            pct(gemm as f64 / (gemm + non_gemm) as f64),
        ]);
    }
    t.note("paper: across the whole suite merely ~15% of operator nodes are GEMMs");
    t
}

/// Figure 3: runtime breakdown (GEMM / non-GEMM / PCIe) on Baseline (1),
/// Baseline (2), and the A100 GPU.
pub fn fig03_runtime_breakdown(suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 3 — runtime breakdown across platforms",
        &[
            "model", "B1 GEMM", "B1 nonG", "B1 PCIe", "B2 GEMM", "B2 nonG", "B2 PCIe", "GPU GEMM",
            "GPU nonG",
        ],
    );
    for (i, name) in suite.names().iter().enumerate() {
        let (g1, n1, c1) = suite.baseline1[i].fractions();
        let (g2, n2, c2) = suite.baseline2[i].fractions();
        let (gg, gn, _) = suite.a100_trt[i].fractions();
        t.labelled_row(name, [g1, n1, c1, g2, n2, c2, gg, gn].map(pct));
    }
    t.note("paper: non-GEMM reaches 81% of EfficientNet runtime on baseline(2) and 73% on the GPU");
    t
}

/// Figure 5: roofline placement of prevalent non-GEMM operators on the
/// Table 3 machine (32 Gops/s, 16 GB/s).
pub fn fig05_roofline(_suite: &Suite) -> Table {
    let mut t = Table::new(
        "Figure 5 — non-GEMM operator roofline (32 Gops/s, 16 GB/s)",
        &[
            "operator",
            "ops/elem",
            "bytes/elem",
            "intensity",
            "attainable Gops",
            "bound",
        ],
    );
    for kind in [
        OpKind::Add,
        OpKind::Mul,
        OpKind::Relu,
        OpKind::Clip,
        OpKind::LeakyRelu,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Exp,
        OpKind::Sqrt,
        OpKind::MaxPool,
        OpKind::GlobalAveragePool,
        OpKind::ReduceMean,
        OpKind::Transpose,
        OpKind::DepthwiseConv,
        OpKind::Softmax,
        OpKind::Gelu,
    ] {
        let p = operator_roofline(kind, 32.0, 16.0);
        t.row(vec![
            kind.onnx_name().to_string(),
            format!("{:.1}", p.ops_per_element),
            format!("{:.1}", p.bytes_per_element),
            format!("{:.2}", p.intensity),
            format!("{:.1}", p.attainable_gops),
            if p.memory_bound { "memory" } else { "compute" }.to_string(),
        ]);
    }
    t.note("paper: all analyzed operators except Softmax and GeLU are memory-bound");
    t
}

/// Figure 4: the repeated GEMM/non-GEMM subgraphs of ResNet-50,
/// MobileNetV2 and BERT, one table per model. The partitioner's
/// fused-block signatures *are* those subgraphs; each table ranks the most
/// frequent ones.
pub fn fig04_subgraphs(suite: &Suite) -> Vec<Table> {
    let models = suite.models.iter().filter(|(b, _)| {
        matches!(
            b,
            Benchmark::Resnet50 | Benchmark::Mobilenetv2 | Benchmark::Bert
        )
    });
    models.map(|(bench, graph)| {
        let blocks = tandem_compiler::Partitioner::new().partition(graph);
        let mut signatures: BTreeMap<String, usize> = BTreeMap::new();
        for block in &blocks {
            let mut parts: Vec<String> = Vec::new();
            if let Some(g) = block.gemm {
                parts.push(format!("[{}]", graph.node(g).kind));
            }
            for &id in &block.non_gemm {
                let node = graph.node(id);
                if node.kind.class() == OpClass::LayoutTransform
                    && graph.tensor(node.outputs[0]).shape == graph.tensor(node.inputs[0]).shape
                {
                    continue; // pure-metadata reshapes clutter the signature
                }
                parts.push(format!("({})", node.kind));
            }
            if parts.is_empty() {
                continue;
            }
            *signatures.entry(parts.join("→")).or_default() += 1;
        }
        let mut ranked: Vec<(String, usize)> = signatures.into_iter().collect();
        ranked.sort_by_key(|(_, n)| std::cmp::Reverse(*n));

        let mut t = Table::new(
            format!(
                "Figure 4 — repeated subgraphs of {} ([GEMM] and (non-GEMM) nodes)",
                bench.name()
            ),
            &["count", "block signature"],
        );
        for (sig, n) in ranked.into_iter().take(6) {
            let sig = if sig.len() > 90 {
                let cut = (0..=90).rev().find(|&i| sig.is_char_boundary(i)).unwrap_or(0);
                format!("{}…", &sig[..cut])
            } else {
                sig
            };
            t.row(vec![n.to_string(), sig]);
        }
        t.note("paper Fig. 4: Conv→Relu chains with residual Adds (ResNet), Conv→Clip→DWConv→Clip→Conv→Add (MobileNetV2), MatMul/Transpose/Softmax attention blocks (BERT)");
        t
    }).collect()
}

/// Table 2: the qualitative design-class matrix.
pub fn table2_design_classes(_suite: &Suite) -> Table {
    let mut t = Table::new(
        "Table 2 — design classes for non-GEMM support",
        &[
            "class",
            "in tandem",
            "specialized",
            "programmable",
            "exec control",
        ],
    );
    for row in tandem_baselines::design_class_matrix() {
        t.row(vec![
            row.class.to_string(),
            row.in_tandem.symbol().to_string(),
            row.specialization.symbol().to_string(),
            row.programmability.symbol().to_string(),
            row.execution_control.symbol().to_string(),
        ]);
    }
    t
}

/// Table 3: the NPU-Tandem microarchitectural configuration.
pub fn table3_config(_suite: &Suite) -> Table {
    let tandem = tandem_core::TandemConfig::paper();
    let gemm = gemm_sim::GemmConfig::paper();
    let mut t = Table::new(
        "Table 3 — NPU-Tandem configuration",
        &["parameter", "systolic array", "Tandem Processor"],
    );
    t.row(vec![
        "dimensions".into(),
        format!("{}x{}", gemm.rows, gemm.cols),
        format!("{} lanes", tandem.lanes),
    ]);
    t.row(vec![
        "scratchpads".into(),
        format!("{} KB", gemm.scratchpad_bytes / 1024),
        format!("{} KB (Interim BUF 1&2)", 2 * tandem.interim_bytes() / 1024),
    ]);
    t.row(vec![
        "accumulators".into(),
        format!("{} KB", gemm.accumulator_bytes / 1024),
        "N/A".into(),
    ]);
    t.row(vec![
        "datatypes".into(),
        "INT8 (mult), INT32 (acc)".into(),
        "INT32".into(),
    ]);
    t.row(vec![
        "frequency".into(),
        format!("{} GHz", gemm.freq_ghz),
        format!("{} GHz", tandem.freq_ghz),
    ]);
    t
}
