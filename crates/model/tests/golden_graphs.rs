//! Byte-stable structure of every graph the stack builds: the zoo plus
//! the LLM serving shapes (`gpt2_decode_step`, `gpt2_prefill`,
//! `llama_tiny`). For each graph the fixture records the node and tensor
//! counts, an FNV-1a of the `Display` text, and an FNV-1a of the node
//! names joined by newlines. Node names are not in `Display`, but they
//! become block names in NPU reports and traces, so a builder change
//! that renames a node fails here. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p tandem-model --test golden_graphs`.

use tandem_model::{zoo, Graph};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn line(label: &str, g: &Graph) -> String {
    let names: Vec<String> = g.nodes().iter().map(|n| n.name.to_string()).collect();
    format!(
        "{label}: nodes={} tensors={} display={:016x} names={:016x}\n",
        g.nodes().len(),
        g.tensors().len(),
        fnv1a(format!("{g}").as_bytes()),
        fnv1a(names.join("\n").as_bytes()),
    )
}

#[test]
fn graph_structure_matches_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/graphs.txt");
    let mut out = String::new();
    for (bench, g) in zoo::Benchmark::ALL.iter().zip(zoo::all_models()) {
        out += &line(bench.name(), &g);
    }
    out += &line("gpt2_decode_step(16)", &zoo::gpt2_decode_step(16));
    out += &line("gpt2_decode_step(64)", &zoo::gpt2_decode_step(64));
    out += &line("gpt2_prefill(64)", &zoo::gpt2_prefill(64));
    out += &line("llama_tiny(32)", &zoo::llama_tiny(32));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &out).expect("write golden graph fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden graphs missing — regenerate with UPDATE_GOLDEN=1 cargo test -p tandem-model --test golden_graphs",
    );
    assert_eq!(
        out, golden,
        "graph structure or names changed; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
