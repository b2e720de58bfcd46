//! Every distinct graph the product builds has its own
//! `Graph::content_hash`.
//!
//! The NPU's graph-report cache keys a run on the digest plus the node
//! and tensor counts and keeps no copy of the graph to compare, so two
//! distinct graphs with one digest and equal counts would share a report
//! and one of them would get the other's. This test builds every graph
//! the binaries, figures and serving tables build — the zoo, BERT, GPT-2
//! and the LLaMA-style model at every sequence length from 32 to 512, and
//! GPT-2 prefill and decode steps at every context knot of the serving
//! tables — and checks that no two recipes share a digest. A replacement
//! for the digest's hasher must keep it passing.

use std::collections::HashMap;
use tandem_fleet::llm::LlmModelSpec;
use tandem_model::zoo::{self, Benchmark};
use tandem_model::Graph;

/// A graph builder and its argument (0 for the fixed-shape CNNs).
type Recipe = (&'static str, usize);

/// Records the digest of the graph `build` makes under `recipe`; each
/// recipe is built once.
fn record(digests: &mut HashMap<Recipe, u64>, recipe: Recipe, build: impl FnOnce() -> Graph) {
    digests
        .entry(recipe)
        .or_insert_with(|| build().content_hash());
}

#[test]
fn every_product_graph_has_its_own_digest() {
    let mut digests: HashMap<Recipe, u64> = HashMap::new();
    record(&mut digests, ("vgg16", 0), zoo::vgg16);
    record(&mut digests, ("resnet50", 0), zoo::resnet50);
    record(&mut digests, ("yolov3", 0), zoo::yolov3);
    record(&mut digests, ("mobilenetv2", 0), zoo::mobilenetv2);
    record(&mut digests, ("efficientnet_b0", 0), zoo::efficientnet_b0);
    for seq in 32..=512 {
        record(&mut digests, ("bert_base", seq), || zoo::bert_base(seq));
        record(&mut digests, ("gpt2", seq), || zoo::gpt2(seq));
        record(&mut digests, ("llama_tiny", seq), || zoo::llama_tiny(seq));
    }
    // The serving tables: the smoke sweep's `gpt2(16, 64)` and the full
    // sweep's `gpt2(16, 128)`, whose knots include the smoke ones.
    let spec = LlmModelSpec::gpt2(16, 128);
    for knot in (1..=spec.max_context / spec.block_tokens).map(|b| b * spec.block_tokens) {
        // Prefill is GPT-2 at the prompt length: one recipe, one digest,
        // so a prefill estimate shares the whole-graph run's cache entry.
        let prefill = (spec.prefill)(knot).content_hash();
        assert_eq!(prefill, zoo::gpt2(knot).content_hash(), "prefill({knot})");
        record(&mut digests, ("gpt2", knot), || (spec.prefill)(knot));
        record(&mut digests, ("gpt2_decode_step", knot), || {
            (spec.decode_step)(knot)
        });
    }

    let mut owner: HashMap<u64, Recipe> = HashMap::new();
    for (&recipe, &digest) in &digests {
        if let Some(other) = owner.insert(digest, recipe) {
            panic!("{recipe:?} and {other:?} share the digest {digest:#018x}");
        }
    }
    // The list above covers the zoo as the benchmarks build it.
    for bench in Benchmark::ALL {
        let digest = bench.graph().content_hash();
        assert!(
            owner.contains_key(&digest),
            "{} is not covered",
            bench.name()
        );
    }
}
