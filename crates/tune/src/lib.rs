//! # tandem-tune
//!
//! A search-based schedule/tiling autotuner with the cached NPU
//! simulator as its oracle.
//!
//! The hand-rolled compiler ([`tandem_compiler::Tiler`] and the GEMM
//! executor's tile policy) picks one point per operator family. This
//! crate turns those decisions into an explicit search space — per-site
//! [`tandem_compiler::TileChoice`] candidates enumerated by
//! [`tandem_npu::Npu::tune_sites`] — and searches it:
//!
//! 1. **Materialize** — a candidate is a [`tandem_compiler::Schedule`], a
//!    partial site → choice map that
//!    [`tandem_compiler::CompileOptions::schedule`] and
//!    [`tandem_npu::NpuConfig::schedule`] take as is; its digest, computed
//!    once per schedule, keys the score memo and every cache.
//! 2. **Score** — every candidate runs on one [`tandem_npu::Npu::sibling`]
//!    of a cache hub, so repeated `(site, choice)` decisions compile and
//!    simulate once across the whole search.
//! 3. **Search** — a single-site seeding sweep, a greedy
//!    coordinate-descent composite, then beam-elite evolution (weighted
//!    point mutation + uniform crossover), with the dead-traffic lint's
//!    wasted-word estimates as the mutation prior ([`site_weights`]).
//! 4. **Gate** — the winner alone goes through
//!    [`tandem_npu::Npu::verify_schedule`], which assembles and verifies
//!    each distinct execution block under widened `tandem-verify`; a
//!    winner with an error finding is replaced by the baseline. The space
//!    is legal by construction (the tiler offers only choices that pass
//!    its fit predicates), so candidates are not gated one by one.
//!
//! Fixing the seed fixes the entire trajectory: the driver draws all
//! randomness on one thread and workers fill order-indexed slots, so
//! results are byte-identical across runs, hosts and `--jobs` values.
//! `cargo run --release --bin tandem_tune` writes the committed
//! `BENCH_TUNE.json`; see `docs/TUNING.md` for a worked walkthrough.

#![warn(missing_docs)]

mod prior;
mod report;
mod search;
mod space;

pub use prior::site_weights;
pub use report::{outcome_json, trajectory_json};
pub use search::{
    search_space, tune_graph, tune_in_space, GenerationStat, TuneOptions, TuneOutcome,
};
pub use space::SearchSpace;

/// The former name of a search candidate, which is a
/// [`tandem_compiler::Schedule`].
#[deprecated(note = "a tuner candidate is a `tandem_compiler::Schedule`")]
pub type Candidate = tandem_compiler::Schedule;

use tandem_model::{Graph, GraphBuilder, Padding};

/// A small mixed-family graph for tests and the committed golden
/// trajectory: one fused conv block, element-wise unary/binary work, a
/// window operator, permute-engine movement and two reductions — every
/// tunable operator family, at a size that tunes in well under a second.
pub fn demo_graph() -> Graph {
    let mut b = GraphBuilder::new("tune-demo", 2025);
    let x = b.input("x", [1, 16, 14, 14]);
    let c = b.conv(x, 16, 3, 1, Padding::Same);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    let s = b.sigmoid(p);
    let a = b.add(s, p);
    let t = b.transpose(a, &[0, 1, 3, 2]);
    let sm = b.softmax(t, -1);
    let m = b.reduce_mean(sm, -1);
    b.output(m);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tandem_npu::{Npu, NpuConfig};

    #[test]
    fn demo_graph_tunes_and_improves() {
        let npu = Npu::new(NpuConfig::paper());
        let opts = TuneOptions {
            generations: 3,
            population: 8,
            beam: 3,
            ..TuneOptions::default()
        };
        let out = tune_graph(&npu, &demo_graph(), &opts);
        assert!(out.sites >= 4, "demo graph exposes {} sites", out.sites);
        assert!(out.best_cycles <= out.baseline_cycles);
        assert!(
            out.best_cycles < out.baseline_cycles,
            "search found no improvement over the baseline ({} cycles)",
            out.baseline_cycles
        );
        // Trajectory invariant: running best never regresses.
        for w in out.generations.windows(2) {
            assert!(w[1].best_cycles <= w[0].best_cycles);
        }
    }
}
