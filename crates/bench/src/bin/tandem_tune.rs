//! Schedule/tiling autotuner benchmark: searches the compiler's
//! schedule space for zoo models with the cached simulator as the
//! oracle, and writes `BENCH_TUNE.json`.
//!
//! Full mode runs the default-budget search per model, on a fresh cache
//! hub — the headline per-model cycle reductions over the hand-rolled
//! scheduler — and *also* runs the CI-sized smoke search, whose
//! best-cycles per model become the committed regression floors. The search is
//! byte-deterministic for a fixed seed (one RNG stream on the driver
//! thread; workers fill order-indexed slots), so the floors are exact
//! values, not noisy measurements: a future smoke run on any host
//! either matches them, beats them (an improvement), or regresses.
//!
//! Either mode **fails** if any model's smoke search ends above the
//! `smoke_floor_cycles_<model>` keys committed in the baseline
//! `BENCH_TUNE.json`. `--smoke` re-runs only the smoke-sized searches
//! and also fails if total search wall-time exceeds `smoke_budget_s` — at most 3x the measured median
//! smoke wall, so a 3x slowdown of the search or its oracle fails; over
//! budget, the run prints each model's wall, largest first. The wall
//! prints to the microsecond, in the JSON and on the console. Floors are
//! read from the committed baseline before this run overwrites it
//! (`--baseline PATH` points elsewhere).
//!
//! Per model, the table and the JSON timing section split the search
//! wall into the verify gate on the winner, the scoring and the
//! driver's bookkeeping, which sum to it.

use std::fmt::Write as _;
use std::time::Instant;
use tandem_bench::read_floor;
use tandem_model::zoo::Benchmark;
use tandem_npu::{Npu, NpuConfig};
use tandem_tune::{outcome_json, search_space, tune_in_space, TuneOptions, TuneOutcome};

/// The models the tuner tracks: conv-heavy (ResNet-50, YOLOv3),
/// transformer (BERT, GPT-2) and the depthwise/elementwise mix that
/// exercises the non-GEMM sites hardest (MobileNetV2). YOLOv3 is the
/// honest near-zero row — its blocks are GEMM-DRAM-bound with almost no
/// idle channel to prefetch into, so the space holds little headroom.
const MODELS: &[Benchmark] = &[
    Benchmark::Resnet50,
    Benchmark::Bert,
    Benchmark::Gpt2,
    Benchmark::Mobilenetv2,
    Benchmark::Yolov3,
];

/// Lower-cased model key for JSON floor fields ("ResNet-50" → "resnet_50").
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_TUNE.json".to_string();
    let mut baseline_path = "BENCH_TUNE.json".to_string();
    let mut jobs = 0usize;
    let mut seed: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs a number");
            }
            "--seed" => {
                seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs a number"),
                );
            }
            other if !other.starts_with('-') => out_path = other.to_string(),
            other => panic!("unknown flag: {other}"),
        }
    }
    // Read the committed floors *before* this run overwrites the file.
    let budget_s = read_floor(&baseline_path, "smoke_budget_s").unwrap_or(DEFAULT_BUDGET_S);

    let mut smoke_opts = TuneOptions::smoke();
    smoke_opts.jobs = jobs;
    if let Some(s) = seed {
        smoke_opts.seed = s;
    }
    let full_opts = TuneOptions {
        jobs,
        seed: seed.unwrap_or(TuneOptions::default().seed),
        ..TuneOptions::default()
    };

    println!(
        "{:<14} {:>6} {:>10} {:>15} {:>15} {:>7} {:>6} {:>9} {:>8} {:>8}",
        "model",
        "sites",
        "space",
        "baseline",
        "best",
        "redu %",
        "eval",
        "verify ms",
        "sim ms",
        "book ms"
    );
    let mut outcomes = Vec::new();
    let mut smoke_best: Vec<(String, u64)> = Vec::new();
    // Each model's share of the budgeted wall: its space, its smoke
    // search and (in full mode) its full search.
    let mut model_wall: Vec<(String, f64)> = Vec::new();
    let t_all = Instant::now();
    for &bench in MODELS {
        let t_model = Instant::now();
        let graph = bench.graph();
        // A fresh hub per model: each model's wall-times measure its own
        // search, and results never depend on sibling models.
        let npu = Npu::new(NpuConfig::paper());
        let space = search_space(&npu, &graph);
        let smoke_out = tune_in_space(&npu, &graph, &space, &smoke_opts);
        smoke_best.push((slug(&graph.name), smoke_out.best_cycles));
        // The full search starts cold, on a hub of its own, so its
        // timings show what a first search pays rather than replaying
        // the caches the smoke search warmed.
        let out = if smoke {
            smoke_out
        } else {
            tune_in_space(&Npu::new(NpuConfig::paper()), &graph, &space, &full_opts)
        };
        println!(
            "{:<14} {:>6} {:>9.1}b {:>15} {:>15} {:>7.2} {:>6} {:>9.3} {:>8.3} {:>8.3}",
            out.model,
            out.sites,
            out.space_log2,
            out.baseline_cycles,
            out.best_cycles,
            out.reduction_pct(),
            out.evaluated,
            out.verify_wall_s * 1e3,
            out.sim_wall_s * 1e3,
            out.bookkeeping_wall_s() * 1e3,
        );
        model_wall.push((out.model.clone(), t_model.elapsed().as_secs_f64()));
        outcomes.push((out, space));
    }
    let wall_s = t_all.elapsed().as_secs_f64();

    // Per-model floors: committed baseline if present, else this run's
    // deterministic smoke best (bootstraps a fresh baseline).
    let floors: Vec<(String, u64)> = smoke_best
        .iter()
        .map(|(slug, best)| {
            let key = format!("smoke_floor_cycles_{slug}");
            let floor = read_floor(&baseline_path, &key)
                .map(|f| f as u64)
                .unwrap_or(*best);
            (slug.clone(), floor)
        })
        .collect();

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",\n  \"smoke_budget_s\": {budget_s},",
        if smoke { "smoke" } else { "full" }
    );
    for (slug, floor) in &floors {
        let _ = writeln!(json, "  \"smoke_floor_cycles_{slug}\": {floor},");
    }
    let _ = writeln!(json, "  \"search_wall_s\": {wall_s:.6},");
    let _ = writeln!(json, "  \"models\": [");
    for (i, (out, space)) in outcomes.iter().enumerate() {
        json.push_str(&outcome_json(out, space, 4, true));
        json.push_str(if i + 1 < outcomes.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_TUNE.json");
    println!("\nwrote {out_path} ({wall_s:.6}s total)");

    report_outcomes(&outcomes, smoke);

    // Both modes run the smoke searches, so both hold them to the floors.
    for ((slug, best), (_, floor)) in smoke_best.iter().zip(&floors) {
        assert!(
            best <= floor,
            "tandem_tune regression: {slug} smoke search reached {best} cycles, above the \
             committed floor of {floor} — the search or a schedule lever got worse"
        );
    }
    if smoke {
        if wall_s > budget_s {
            eprintln!(
                "FAIL: smoke searches took {wall_s:.6}s, over the committed {budget_s}s \
                 budget — the search or its oracle got slower; wall per model:"
            );
            model_wall.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (model, wall) in &model_wall {
                eprintln!("  {model:<14} {wall:>8.3}s");
            }
            std::process::exit(1);
        }
        println!("smoke floors and {budget_s}s budget hold ({wall_s:.6}s)");
    }
}

/// Headline check in full mode: the ISSUE's acceptance bar is a ≥5%
/// cycle reduction on at least three models.
fn report_outcomes(outcomes: &[(TuneOutcome, tandem_tune::SearchSpace)], smoke: bool) {
    let over_5 = outcomes
        .iter()
        .filter(|(o, _)| o.reduction_pct() >= 5.0)
        .count();
    println!(
        "{over_5}/{} models at ≥5% reduction over the hand-rolled scheduler",
        outcomes.len()
    );
    if !smoke {
        assert!(
            over_5 >= 3,
            "full tune fell below the acceptance bar: only {over_5} models reached a 5% reduction"
        );
    }
}

/// The wall budget used when no committed baseline carries one (the
/// committed `smoke_budget_s` is the same value): under 3x the median
/// smoke wall of 0.0226 s over 13 release runs on a 2-vCPU host.
const DEFAULT_BUDGET_S: f64 = 0.06;
