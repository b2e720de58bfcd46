//! The mutation prior: ranking tuning sites by how much the hand-rolled
//! baseline wastes at them.
//!
//! `tandem-verify`'s dead-traffic lints attach a structured
//! wasted-word estimate to every dead scratchpad store and redundant
//! IMM write. [`tandem_verify::Verifier::wasted_words`] runs that pass
//! alone and sums the estimates; the prior reads nothing else of the
//! verifier. A site
//! whose baseline lowering moves words for nothing is where a different
//! tile shape is most likely to pay off, so the search mutates it more
//! often. Sites that govern many graph nodes get a proportional boost
//! too — a win there multiplies across every instance.

use tandem_compiler::{CompiledOp, OpLowering, TuneSite};
use tandem_model::Graph;
use tandem_verify::{Verifier, VerifyConfig};

/// One mutation weight per site (parallel to `sites`, each ≥ 1):
/// `1 + instances + wasted_words(baseline lowering) × instances`,
/// with GEMM-side sites (whose programs the Tandem verifier does not
/// see) weighted by instance count alone.
pub fn site_weights(
    lanes: usize,
    interim_rows: usize,
    graph: &Graph,
    sites: &[TuneSite],
) -> Vec<u64> {
    let lowering = OpLowering::new(lanes, interim_rows);
    let verifier = Verifier::new(VerifyConfig::for_lowering(lanes, interim_rows));
    sites
        .iter()
        .map(|site| {
            let node = graph.node(site.node);
            // GEMM nodes lower to `Unsupported` and metadata to no program.
            let wasted = match lowering.lower_node(graph, node) {
                Ok(CompiledOp {
                    tiles: Some((prog, reps)),
                    ..
                }) => verifier.wasted_words(&prog) * reps,
                _ => 0,
            };
            1 + site.instances + wasted * site.instances
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_positive_and_scale_with_instances() {
        let g = tandem_model::zoo::mobilenetv2();
        let lowering = OpLowering::new(32, 512);
        let sites = tandem_compiler::enumerate_sites(&lowering, &g, |n| lowering.site_key(&g, n));
        assert!(!sites.is_empty());
        let w = site_weights(32, 512, &g, &sites);
        assert_eq!(w.len(), sites.len());
        assert!(w.iter().all(|&x| x >= 1));
        // A repeated site never weighs less than a structurally identical
        // single-instance one would.
        for (site, &weight) in sites.iter().zip(&w) {
            assert!(weight > site.instances, "{}: {weight}", site.name);
        }
    }
}
