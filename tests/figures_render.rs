//! Every registered experiment renders with all seven benchmarks present
//! and non-degenerate values, keeps its headline numbers inside their
//! bands, and prints exactly the committed `tandem figure all` golden;
//! the EXPERIMENTS.md table is generated from the registry. After an
//! intended change, regenerate the golden with
//! `UPDATE_GOLDEN=1 cargo test -p tandem-bench --test figures_render` and
//! paste the fresh table the doc check prints.

use std::fmt::Write as _;
use std::sync::OnceLock;
use tandem_bench::experiments::{self, Experiment, EXPERIMENTS};
use tandem_bench::table::Table;
use tandem_bench::Suite;
use tandem_model::zoo::Benchmark;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/figures_all.txt"
);
const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
const BEGIN: &str =
    "<!-- BEGIN EXPERIMENT TABLE (generated from tandem_bench::experiments; see tests/figures_render.rs) -->";
const END: &str = "<!-- END EXPERIMENT TABLE -->";

/// Every experiment's tables, rendered once from one suite.
fn rendered() -> &'static [(&'static Experiment, Vec<Table>)] {
    static RENDERED: OnceLock<Vec<(&Experiment, Vec<Table>)>> = OnceLock::new();
    RENDERED.get_or_init(|| {
        let suite = Suite::load();
        EXPERIMENTS
            .iter()
            .map(|e| (e, (e.render)(&suite)))
            .collect()
    })
}

#[test]
fn every_figure_renders_with_all_models() {
    for (e, tables) in rendered() {
        assert!(!tables.is_empty(), "{} rendered nothing", e.id);
        for table in tables {
            let text = table.render();
            // A table whose rows are labelled by model must have all seven.
            let models = Benchmark::ALL.map(Benchmark::name);
            let labels: Vec<&str> = table.labels().collect();
            if labels.iter().any(|l| models.contains(l)) {
                for model in models {
                    assert!(labels.contains(&model), "{} missing {model}:\n{text}", e.id);
                }
            } else {
                assert!(text.lines().count() > 4, "{} too short:\n{text}", e.id);
            }
            assert!(!text.contains("NaN"), "{} produced NaN:\n{text}", e.id);
            assert!(!text.contains("inf"), "{} produced inf:\n{text}", e.id);
        }
    }
}

#[test]
fn every_headline_is_inside_its_band() {
    for (e, tables) in rendered() {
        for &(row, column, lo, hi) in e.headlines {
            let value = experiments::number(tables, row, column)
                .unwrap_or_else(|| panic!("{}: no number at {row} / {column}", e.id));
            assert!(
                (lo..=hi).contains(&value),
                "{}: {row} / {column} = {value}, outside its band {lo}–{hi}",
                e.id
            );
        }
    }
}

#[test]
fn figure_all_matches_the_golden() {
    let text: String = rendered()
        .iter()
        .map(|(_, tables)| experiments::text(tables))
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &text).expect("write golden figure text");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden figure text");
    assert!(
        text == golden,
        "`tandem figure all` output changed; if intended, regenerate with \
         UPDATE_GOLDEN=1 cargo test -p tandem-bench --test figures_render \
         and review `git diff tests/golden`"
    );
}

fn generated_table() -> String {
    let mut t = String::from(
        "| `tandem figure` | Paper | Measured (asserted band) | Verdict |\n|---|---|---|---|\n",
    );
    for (e, tables) in rendered() {
        let measured: Vec<String> = e
            .headlines
            .iter()
            .map(|&(row, column, lo, hi)| {
                let cell = tables.iter().find_map(|t| t.cell(row, column));
                format!("{row} {column}: {} ({lo}–{hi})", cell.unwrap_or("?"))
            })
            .collect();
        let measured = if measured.is_empty() {
            "—".to_string()
        } else {
            measured.join("<br>")
        };
        let _ = writeln!(
            t,
            "| `{}` | {} | {measured} | {} |",
            e.id, e.claim, e.verdict
        );
    }
    t
}

#[test]
fn experiments_md_table_matches_the_registry() {
    let doc = std::fs::read_to_string(DOC).expect("EXPERIMENTS.md must exist");
    let start = doc.find(BEGIN).expect("EXPERIMENTS.md BEGIN marker") + BEGIN.len();
    let stop = start + doc[start..].find(END).expect("EXPERIMENTS.md END marker");
    let fresh = generated_table();
    assert_eq!(
        doc[start..stop].trim(),
        fresh.trim(),
        "\nEXPERIMENTS.md experiment table is stale — replace the block between the \
         markers with:\n\n{fresh}"
    );
}
