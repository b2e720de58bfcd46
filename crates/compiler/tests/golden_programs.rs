//! Byte-stable lowered programs. For each zoo model on two machine shapes
//! (32 lanes × 512 rows, the paper point, and 8 × 64) the fixture records
//! FNV-1a digests of:
//! - every non-GEMM node's `CompiledOp` (each tile's encoded words and
//!   its repetitions, or the error text), folded per operator kind in
//!   node order;
//! - the same under every choice `enumerate_sites` offers at the node's
//!   site, lowered with `lower_node_as`;
//! - every block program `schedule_graph_opts` assembles (verify off).
//!
//! `zoo_diagnostics.txt` pins verifier reports and `figures_all.txt`
//! pins cycles; this pins the instruction streams themselves, so a
//! lowering refactor that claims byte-identical output is checked here.
//! Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p tandem-compiler --test golden_programs`.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use tandem_compiler::{
    enumerate_sites, schedule_graph_opts, CompileError, CompileOptions, CompiledOp, OpLowering,
};
use tandem_model::zoo::Benchmark;
use tandem_model::{Graph, OpClass};

const SHAPES: [(usize, usize); 2] = [(32, 512), (8, 64)];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// Folds one lowering outcome into `h`.
fn fold(h: &mut Fnv, lowered: &Result<CompiledOp, CompileError>) {
    match lowered {
        Ok(op) => {
            h.u64(usize::from(op.tiles.is_some()) as u64);
            if let Some((prog, reps)) = &op.tiles {
                h.u64(prog.len() as u64);
                for w in prog.encode() {
                    h.bytes(&w.to_le_bytes());
                }
                h.u64(*reps);
            }
        }
        Err(e) => h.bytes(format!("error: {e}").as_bytes()),
    }
}

/// The fixture lines of one model on one machine shape.
fn lines(label: &str, graph: &Graph, lanes: usize, rows: usize, out: &mut String) {
    let lowering = OpLowering::new(lanes, rows);
    let sites = enumerate_sites(&lowering, graph, |n| lowering.site_key(graph, n));
    let candidates: HashMap<u64, _> = sites.iter().map(|s| (s.key, &s.candidates)).collect();
    // Per operator kind: (nodes, node digest, choice lowerings, choice digest).
    let mut kinds: BTreeMap<String, (usize, Fnv, usize, Fnv)> = BTreeMap::new();
    for node in graph.nodes() {
        if node.kind.class() == OpClass::Gemm {
            continue;
        }
        let e = kinds
            .entry(node.kind.to_string())
            .or_insert_with(|| (0, Fnv::new(), 0, Fnv::new()));
        e.0 += 1;
        fold(&mut e.1, &lowering.lower_node(graph, node));
        if let Some(cands) = candidates.get(&lowering.site_key(graph, node)) {
            for &c in cands.iter() {
                e.2 += 1;
                fold(&mut e.3, &lowering.lower_node_as(graph, node, Some(c)));
            }
        }
    }
    let shape = format!("{label} {lanes}x{rows}");
    for (kind, (n, h, c, hc)) in &kinds {
        writeln!(
            out,
            "{shape} {kind}: nodes={n} ops={:016x} choices={c} tuned={:016x}",
            h.0, hc.0
        )
        .unwrap();
    }
    let opts = CompileOptions {
        verify: false,
        ..CompileOptions::default()
    };
    match schedule_graph_opts(&lowering, graph, &opts) {
        Ok(blocks) => {
            let mut h = Fnv::new();
            for sb in &blocks {
                h.u64(sb.program.len() as u64);
                for w in sb.program.encode() {
                    h.bytes(&w.to_le_bytes());
                }
                h.u64(sb.tiles);
            }
            writeln!(
                out,
                "{shape} blocks: n={} programs={:016x}",
                blocks.len(),
                h.0
            )
            .unwrap();
        }
        Err(e) => writeln!(out, "{shape} blocks: error: {e}").unwrap(),
    }
}

#[test]
fn lowered_programs_match_golden() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/programs.txt");
    let mut out = String::new();
    for bench in Benchmark::ALL {
        let graph = bench.graph();
        for (lanes, rows) in SHAPES {
            lines(bench.name(), &graph, lanes, rows, &mut out);
        }
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &out).expect("write golden program fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden programs missing — regenerate with UPDATE_GOLDEN=1 cargo test -p tandem-compiler --test golden_programs",
    );
    assert_eq!(
        out, golden,
        "lowered programs changed; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
