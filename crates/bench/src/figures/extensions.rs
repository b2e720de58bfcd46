//! Extensions, not paper figures: the GeneSys design-space sweep (§10),
//! the sequence-length trend that motivates the paper (§1–2), and a
//! LLaMA-style decoder one model generation past the paper's suite.

use crate::table::{pct, Table};
use tandem_model::zoo;
use tandem_model::Graph;
use tandem_npu::{pareto_frontier, sweep, DesignPoint, Npu, NpuConfig};

/// The GeneSys-style generator grid the DSE table sweeps: five lane
/// counts, each with four (Interim BUF rows, GEMM side) pairs.
pub const DSE_GRID: [DesignPoint; 20] = {
    const LANES: [usize; 5] = [8, 16, 32, 64, 128];
    const MEMORY: [(usize, usize); 4] = [(128, 16), (256, 32), (512, 32), (1024, 64)];
    let mut grid = [DesignPoint {
        lanes: 0,
        interim_rows: 0,
        gemm_side: 0,
    }; 20];
    let mut i = 0;
    while i < grid.len() {
        let (interim_rows, gemm_side) = MEMORY[i % 4];
        grid[i] = DesignPoint {
            lanes: LANES[i / 4],
            interim_rows,
            gemm_side,
        };
        i += 1;
    }
    grid
};

/// GeneSys design-space sweep: the latency × Tandem area × energy
/// Pareto frontier of [`DSE_GRID`] on BERT, fastest first.
pub fn dse_frontier() -> Table {
    let results = sweep(&DSE_GRID, &zoo::bert_base(128));
    let mut frontier = pareto_frontier(&results);
    frontier.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
    let mut t = Table::new(
        format!(
            "DSE Pareto frontier — BERT ({} of {} points)",
            frontier.len(),
            results.len()
        ),
        &["lanes×rows×side", "latency ms", "area mm^2", "energy mJ"],
    );
    for r in &frontier {
        t.row(vec![
            format!(
                "{}×{}×{}",
                r.point.lanes, r.point.interim_rows, r.point.gemm_side
            ),
            format!("{:.3}", r.latency_ms),
            format!("{:.3}", r.tandem_area_mm2),
            format!("{:.3}", r.energy_mj),
        ]);
    }
    t.note("area covers the Tandem Processor only (65 nm model)");
    t
}

/// Sequence-length scaling of BERT and GPT-2: latency, non-GEMM share
/// and both units' utilization as the context grows.
pub fn seq_scaling() -> Vec<Table> {
    const SEQS: [usize; 5] = [32, 64, 128, 256, 512];
    let npu = Npu::new(NpuConfig::paper());
    [
        ("BERT-base", zoo::bert_base as fn(usize) -> Graph),
        ("GPT-2", zoo::gpt2),
    ]
    .into_iter()
    .map(|(name, build)| {
        let graphs: Vec<Graph> = SEQS.iter().map(|&seq| build(seq)).collect();
        let reports = npu.run_many(&graphs.iter().collect::<Vec<_>>());
        let mut t = Table::new(
            format!("{name}: sequence-length scaling on the NPU-Tandem"),
            &[
                "seq",
                "latency ms",
                "non-GEMM share",
                "GEMM util",
                "Tandem util",
            ],
        );
        for (seq, r) in SEQS.iter().zip(&reports) {
            t.row(vec![
                seq.to_string(),
                format!("{:.3}", r.seconds() * 1e3),
                pct(r.non_gemm_fraction()),
                pct(r.gemm_utilization()),
                pct(r.tandem_utilization()),
            ]);
        }
        t.note("attention's O(seq²) softmax/transpose work grows the non-GEMM share");
        t
    })
    .collect()
}

/// The LLaMA-style decoder (RMSNorm, RoPE, SwiGLU) against BERT and
/// GPT-2 at sequence length 128 on the unmodified NPU-Tandem.
pub fn llm_preview() -> Table {
    let npu = Npu::new(NpuConfig::paper());
    let mut t = Table::new(
        "LLM preview — transformer generations on the unmodified NPU-Tandem",
        &[
            "model",
            "nodes",
            "non-GEMM nodes",
            "latency ms",
            "non-GEMM share",
        ],
    );
    for (name, graph) in [
        ("BERT-base (2018)", zoo::bert_base(128)),
        ("GPT-2 (2019)", zoo::gpt2(128)),
        ("LLaMA-style (2023)", zoo::llama_tiny(128)),
    ] {
        let stats = graph.stats();
        let r = npu.run(&graph);
        t.row(vec![
            name.to_string(),
            stats.total_nodes().to_string(),
            stats.non_gemm_nodes().to_string(),
            format!("{:.3}", r.seconds() * 1e3),
            pct(r.non_gemm_fraction()),
        ]);
    }
    t.note("RMSNorm, rotary embeddings and SwiGLU lower onto the existing primitive set — no new hardware blocks");
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_model::zoo::Benchmark;

    #[test]
    fn every_zoo_model_verifies_at_every_dse_point() {
        let graphs: Vec<Graph> = Benchmark::ALL.iter().map(|b| b.graph()).collect();
        for point in DSE_GRID {
            let npu = Npu::new(point.npu_config());
            for graph in &graphs {
                assert!(npu.verify_schedule(graph), "{} at {point:?}", graph.name);
            }
        }
    }

    #[test]
    fn on_bert_a_smaller_interim_buf_dominates_the_paper_point() {
        let results = sweep(&DSE_GRID, &zoo::bert_base(128));
        let at = |p: DesignPoint| results.iter().find(|r| r.point == p).unwrap();
        let paper = at(DesignPoint::paper());
        let smaller = at(DesignPoint {
            interim_rows: 256,
            ..DesignPoint::paper()
        });
        assert!(paper.dominated_by(smaller), "{paper:?} vs {smaller:?}");
        assert_eq!(pareto_frontier(&results).len(), 15);
    }
}
