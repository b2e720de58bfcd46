//! `Npu::estimate_demand` contract: the serving layers size batches and
//! bandwidth shares off this oracle, so it must bit-agree with a full
//! run and must answer repeat queries from the caches without
//! re-simulating.

use tandem_model::zoo::Benchmark;
use tandem_npu::{Npu, NpuConfig};

#[test]
fn demand_bit_agrees_with_a_full_cached_run_across_the_zoo() {
    let npu = Npu::new(NpuConfig::paper());
    for bench in Benchmark::ALL {
        let graph = bench.graph();
        let demand = npu.estimate_demand(&graph);
        let report = npu.run(&graph);
        assert_eq!(
            demand.total_cycles,
            report.total_cycles,
            "{}: demand cycles must equal the full run's",
            bench.name()
        );
        assert_eq!(
            demand.dram_bytes,
            report.tandem_dram_bytes + report.gemm_dram_bytes,
            "{}: demand bytes must equal both sides' DRAM traffic",
            bench.name()
        );
        assert_eq!(
            demand.total_cycles,
            npu.estimate(&graph),
            "{}",
            bench.name()
        );
        assert!(
            demand.total_cycles > 0 && demand.dram_bytes > 0,
            "{}",
            bench.name()
        );
    }
}

#[test]
fn repeat_demand_queries_replay_the_graph_cache_without_resimulating() {
    let npu = Npu::new(NpuConfig::paper());
    for bench in Benchmark::ALL {
        let graph = bench.graph();
        let first = npu.estimate_demand(&graph);
        let warm = npu.stats();
        for _ in 0..8 {
            assert_eq!(npu.estimate_demand(&graph), first, "{}", bench.name());
        }
        let delta = npu.stats().delta(&warm);
        // Warm queries are pure graph-cache hits: no compilation or node
        // simulation runs again — the allocation-heavy paths stay cold no
        // matter how often the scheduler asks.
        assert_eq!(delta.graph_hits, 8, "{}", bench.name());
        assert_eq!(delta.graph_misses, 0, "{}", bench.name());
        assert_eq!(delta.compile_misses, 0, "{}", bench.name());
        assert_eq!(delta.sim_misses, 0, "{}", bench.name());
        assert_eq!(delta.compile_hits + delta.sim_hits, 0, "{}", bench.name());
    }
}
