//! Every program the compiler emits for the 7-model zoo must verify
//! clean — the end-to-end guarantee `tandem-lint` enforces in CI — and
//! every block's full report (warnings included) is pinned byte for byte
//! in `tests/golden/zoo_diagnostics.txt`. The dead-traffic warnings and
//! their wasted-word counts feed the autotuner's mutation prior, so a
//! verifier change that drops or re-counts one must show up here even
//! though it leaves every block clean. Regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test -p tandem-verify --test zoo_clean`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use tandem_compiler::{schedule_graph, OpLowering};
use tandem_model::Graph;
use tandem_verify::{Verifier, VerifyConfig, VerifyReport};

/// One verified block: model name, machine, block index and report.
struct Block {
    model: String,
    machine: (usize, usize),
    index: usize,
    report: VerifyReport,
}

fn verify_zoo(lanes: usize, rows: usize, graphs: Vec<Graph>) -> Vec<Block> {
    let lowering = OpLowering::new(lanes, rows);
    let verifier = Verifier::new(VerifyConfig::for_lowering(lanes, rows));
    let mut out = Vec::new();
    for graph in graphs {
        let blocks = schedule_graph(&lowering, &graph).unwrap_or_else(|e| {
            panic!("{}: scheduling failed: {e:?}", graph.name);
        });
        for (index, block) in blocks.iter().enumerate() {
            let p = &block.program;
            let report = verifier.verify(p);
            // The gate and prior entry points agree with the full report.
            assert_eq!(
                (verifier.is_clean(p), verifier.wasted_words(p)),
                (report.is_clean(), report.wasted_words()),
                "{} block {index}: entry points disagree with verify",
                graph.name
            );
            out.push(Block {
                model: graph.name.clone(),
                machine: (lanes, rows),
                index,
                report,
            });
        }
    }
    out
}

/// The paper machine (32 lanes × 512 rows) over the whole zoo, then the
/// unit-test machine (8 × 64), which forces much harder tiling, over
/// MobileNetV2 and BERT-32. Computed once and shared by every test here.
fn zoo_reports() -> &'static [Block] {
    static REPORTS: OnceLock<Vec<Block>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let zoo = tandem_model::zoo::Benchmark::ALL
            .iter()
            .map(|b| b.graph())
            .collect();
        let mut all = verify_zoo(32, 512, zoo);
        all.extend(verify_zoo(
            8,
            64,
            vec![
                tandem_model::zoo::mobilenetv2(),
                tandem_model::zoo::bert_base(32),
            ],
        ));
        all
    })
}

fn assert_clean_on(machine: (usize, usize)) {
    for b in zoo_reports().iter().filter(|b| b.machine == machine) {
        assert!(
            b.report.is_clean(),
            "{} block {} ({} instructions):\n{}",
            b.model,
            b.index,
            b.report.instructions,
            b.report
        );
    }
}

#[test]
fn all_zoo_programs_verify_clean() {
    assert_clean_on((32, 512));
}

#[test]
fn tiny_machine_zoo_also_verifies() {
    // The emitted programs must stay in bounds under the tiny machine's
    // harder tiling too.
    assert_clean_on((8, 64));
}

/// Every block's report text, one diagnostic per line, each followed by
/// its structured wasted-word estimate when it carries one. Tile
/// programs repeat across a model, so a block whose report is
/// byte-identical to an earlier block's names that block instead of
/// repeating the text (577 blocks, 66 distinct reports).
fn render(blocks: &[Block]) -> String {
    let mut first_seen: HashMap<String, String> = HashMap::new();
    let mut out = String::new();
    for b in blocks {
        let (lanes, rows) = b.machine;
        let label = format!("{} {lanes}x{rows} block {}", b.model, b.index);
        let mut body = format!(
            "{} instructions, {} diagnostics\n",
            b.report.instructions,
            b.report.diagnostics.len()
        );
        for d in &b.report.diagnostics {
            let _ = match d.wasted_words {
                Some(w) => writeln!(body, "  {d} (wasted_words {w})"),
                None => writeln!(body, "  {d}"),
            };
        }
        match first_seen.get(&body) {
            Some(first) => {
                let _ = writeln!(out, "{label}: same as {first}");
            }
            None => {
                let _ = write!(out, "{label}: {body}");
                first_seen.insert(body, label);
            }
        }
    }
    out
}

#[test]
fn zoo_diagnostics_match_the_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/zoo_diagnostics.txt"
    );
    let text = render(zoo_reports());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden zoo diagnostics");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden zoo diagnostics missing — regenerate with \
         UPDATE_GOLDEN=1 cargo test -p tandem-verify --test zoo_clean",
    );
    if text != golden {
        let first = text
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(text.lines().count().min(golden.lines().count()));
        panic!(
            "zoo diagnostics changed at line {}:\n  now:    {:?}\n  golden: {:?}\n\
             if intentional, regenerate with UPDATE_GOLDEN=1",
            first + 1,
            text.lines().nth(first),
            golden.lines().nth(first)
        );
    }
}
