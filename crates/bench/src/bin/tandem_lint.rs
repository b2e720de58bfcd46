//! `tandem-lint`: static verification of every compiled program in the
//! 7-model zoo.
//!
//! Compiles each benchmark with the paper-machine lowering, weaves the
//! sync-delimited block programs, and runs the `tandem-verify` pass
//! pipeline over every block **in both loop-summarization modes**:
//! `Widened` (the O(program-size) production mode) and `Exact` (the
//! per-iteration oracle). The two must agree diagnostic-for-diagnostic;
//! any divergence is itself reported as an error. Per-model and
//! per-pass wall-times land in the JSON report so CI can hold the
//! widened mode to the autotuner-readiness time budget (`--budget-ms`).
//! The widened wall of each model is the best of five full passes over
//! its blocks; over budget, the run prints the wall per pass, largest
//! first.
//!
//! The quantity the mode actually changes — the loop-summarization
//! (bounds-resolve) phase of the scratchpad pass — is timed separately
//! in both runs and reported as `summarize_ns` per model and in total;
//! that ratio is the widening speedup proper, undiluted by the shared
//! symbolic walk and the mode-independent passes.
//!
//! Each model also reports `distinct_blocks`, its block programs that
//! differ other than in sync group, and `gate_ns`, the median wall of
//! five compilations with the compiler's verify gate on (`gate_min_ns`
//! and `gate_max_ns` beside it) — the gate verifies only the distinct
//! programs, so the two numbers go together.
//!
//! Diagnostics that are byte-identical across blocks (signature-cached
//! tile programs repeat across a model) are deduplicated with a `×N`
//! multiplicity; the exit code is non-zero iff any `Severity::Error`
//! remains after dedup or the widened wall-time exceeds the budget.
//!
//! Usage: `tandem_lint [OUT.json] [--budget-ms N]`

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use tandem_compiler::{schedule_graph_opts, CompileOptions, OpLowering};
use tandem_isa::Instruction;
use tandem_model::zoo::Benchmark;
use tandem_verify::{Severity, Verifier, VerifyConfig, VerifyMode, VerifyRun};

/// Timed repetitions per model: full widened passes, of which the
/// fastest is reported, and gated compilations, of which the median is.
const TIMING_REPS: usize = 5;

/// One deduplicated finding: the first block it appeared in, the
/// rendered diagnostic, its multiplicity, and its severity.
struct Finding {
    first_block: usize,
    severity: Severity,
    count: usize,
}

struct ModelOutcome {
    name: String,
    blocks: usize,
    /// Block programs distinct up to their sync group.
    distinct_blocks: usize,
    instructions: usize,
    /// Distinct warning-severity findings after dedup.
    warnings: usize,
    /// Distinct error-severity findings after dedup.
    errors: usize,
    modes_agree: bool,
    widened: Duration,
    exact: Duration,
    /// Walls of `schedule_graph_opts` with verify on, fastest first.
    gate: [Duration; TIMING_REPS],
    /// Wall of the mode-dependent loop-summarization (bounds-resolve)
    /// phase alone, per mode, over all blocks.
    summarize_widened: Duration,
    summarize_exact: Duration,
    /// Pass name → (wall, diagnostics) over all blocks (widened run).
    passes: BTreeMap<&'static str, (Duration, usize)>,
    /// Rule code → raw occurrence count (pre-dedup; the autotuner's
    /// per-rule traffic signal).
    rules: BTreeMap<&'static str, usize>,
    /// Rendered diagnostic → dedup record, in first-seen order via the
    /// BTreeMap key (diagnostics embed the pc, so order is stable).
    findings: BTreeMap<String, Finding>,
}

fn lint_model(lowering: &OpLowering, bench: Benchmark) -> ModelOutcome {
    let graph = bench.graph();
    // Schedule without the built-in verify gate: the linter wants every
    // finding across every block, not the first failing block.
    let no_verify = CompileOptions {
        verify: false,
        ..CompileOptions::default()
    };
    let blocks = schedule_graph_opts(lowering, &graph, &no_verify)
        .unwrap_or_else(|e| panic!("{}: scheduling failed: {e}", graph.name));
    let mut gate = [Duration::ZERO; TIMING_REPS];
    for wall in &mut gate {
        let start = Instant::now();
        let gated = schedule_graph_opts(lowering, &graph, &CompileOptions::default());
        std::hint::black_box(gated).ok();
        *wall = start.elapsed();
    }
    gate.sort();
    let distinct: HashSet<Vec<Instruction>> = blocks
        .iter()
        .map(|sb| sb.program.iter().map(|i| i.ungrouped()).collect())
        .collect();
    let base = VerifyConfig::for_lowering(lowering.lanes(), lowering.interim_rows());
    let widened = Verifier::new(base.with_mode(VerifyMode::Widened));
    let exact = Verifier::new(base.with_mode(VerifyMode::Exact));

    let mut outcome = ModelOutcome {
        name: graph.name.clone(),
        blocks: blocks.len(),
        distinct_blocks: distinct.len(),
        instructions: 0,
        warnings: 0,
        errors: 0,
        modes_agree: true,
        widened: Duration::ZERO,
        exact: Duration::ZERO,
        gate,
        summarize_widened: Duration::ZERO,
        summarize_exact: Duration::ZERO,
        passes: BTreeMap::new(),
        rules: BTreeMap::new(),
        findings: BTreeMap::new(),
    };
    // The widened timing is the best of TIMING_REPS full passes over the
    // model's blocks, so one slow stretch of a shared host does not trip
    // the budget; the findings are deterministic across passes.
    let mut widened_runs = Vec::new();
    for _ in 0..TIMING_REPS {
        let start = Instant::now();
        let runs: Vec<VerifyRun> = blocks
            .iter()
            .map(|sb| widened.verify_timed(&sb.program))
            .collect();
        let wall = start.elapsed();
        if widened_runs.is_empty() || wall < outcome.widened {
            outcome.widened = wall;
            widened_runs = runs;
        }
    }
    for wrun in &widened_runs {
        for p in &wrun.passes {
            let e = outcome.passes.entry(p.name).or_insert((Duration::ZERO, 0));
            e.0 += p.wall;
            e.1 += p.diagnostics;
            if p.name == "loop-summaries" {
                outcome.summarize_widened += p.wall;
            }
        }
    }

    for (bi, (sb, wrun)) in blocks.iter().zip(&widened_runs).enumerate() {
        outcome.instructions += sb.program.len();

        let estart = Instant::now();
        let erun = exact.verify_timed(&sb.program);
        outcome.exact += estart.elapsed();
        let erep = erun.report;
        for p in &erun.passes {
            if p.name == "loop-summaries" {
                outcome.summarize_exact += p.wall;
            }
        }

        // The soundness contract: on the affine streams the compiler
        // emits, the interval summaries are exact, so the two modes must
        // agree bit-for-bit.
        if erep.diagnostics != wrun.report.diagnostics {
            outcome.modes_agree = false;
            outcome
                .findings
                .entry(format!(
                    "mode divergence: widened reports {} finding(s), exact {}",
                    wrun.report.diagnostics.len(),
                    erep.diagnostics.len()
                ))
                .and_modify(|f| f.count += 1)
                .or_insert(Finding {
                    first_block: bi,
                    severity: Severity::Error,
                    count: 1,
                });
        }

        for d in &wrun.report.diagnostics {
            *outcome.rules.entry(d.rule.code()).or_insert(0) += 1;
            outcome
                .findings
                .entry(d.to_string())
                .and_modify(|f| f.count += 1)
                .or_insert(Finding {
                    first_block: bi,
                    severity: d.severity(),
                    count: 1,
                });
        }
    }
    for f in outcome.findings.values() {
        match f.severity {
            Severity::Warning => outcome.warnings += 1,
            Severity::Error => outcome.errors += 1,
        }
    }
    outcome
}

fn speedup(exact: Duration, widened: Duration) -> f64 {
    if widened.is_zero() {
        0.0
    } else {
        exact.as_secs_f64() / widened.as_secs_f64()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let mut out_path = "TANDEM_LINT.json".to_string();
    let mut budget_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--budget-ms" {
            let v = args.next().expect("--budget-ms requires a value");
            budget_ms = Some(v.parse().expect("--budget-ms expects milliseconds"));
        } else {
            out_path = arg;
        }
    }

    let (lanes, interim_rows) = (32usize, 512usize);
    let lowering = OpLowering::new(lanes, interim_rows);

    println!(
        "{:<14} {:>7} {:>9} {:>13} {:>9} {:>7} {:>12} {:>12} {:>9} {:>11} {:>10}  status",
        "model",
        "blocks",
        "distinct",
        "instructions",
        "warnings",
        "errors",
        "widened",
        "exact",
        "speedup",
        "summarize-x",
        "gate"
    );
    let outcomes: Vec<ModelOutcome> = Benchmark::ALL
        .iter()
        .map(|&b| lint_model(&lowering, b))
        .collect();
    for o in &outcomes {
        println!(
            "{:<14} {:>7} {:>9} {:>13} {:>9} {:>7} {:>10.2}ms {:>10.2}ms {:>8.1}x {:>10.1}x {:>8.2}ms  {}",
            o.name,
            o.blocks,
            o.distinct_blocks,
            o.instructions,
            o.warnings,
            o.errors,
            o.widened.as_secs_f64() * 1e3,
            o.exact.as_secs_f64() * 1e3,
            speedup(o.exact, o.widened),
            speedup(o.summarize_exact, o.summarize_widened),
            o.gate[TIMING_REPS / 2].as_secs_f64() * 1e3,
            if o.errors == 0 && o.modes_agree {
                "ok"
            } else {
                "FAIL"
            }
        );
        // Errors always print; warnings are capped per model (the full
        // list lands in the JSON report).
        const MAX_WARNINGS_SHOWN: usize = 6;
        let mut shown = 0usize;
        let mut suppressed = 0usize;
        for (text, f) in &o.findings {
            if f.severity == Severity::Warning {
                if shown >= MAX_WARNINGS_SHOWN {
                    suppressed += 1;
                    continue;
                }
                shown += 1;
            }
            if f.count > 1 {
                println!("    block {} {text} (×{})", f.first_block, f.count);
            } else {
                println!("    block {} {text}", f.first_block);
            }
        }
        if suppressed > 0 {
            println!("    … and {suppressed} more warning(s) (see the JSON report)");
        }
    }

    let widened_total: Duration = outcomes.iter().map(|o| o.widened).sum();
    let exact_total: Duration = outcomes.iter().map(|o| o.exact).sum();
    let summ_w_total: Duration = outcomes.iter().map(|o| o.summarize_widened).sum();
    let summ_e_total: Duration = outcomes.iter().map(|o| o.summarize_exact).sum();
    let total_errors: usize = outcomes.iter().map(|o| o.errors).sum();
    let total_warnings: usize = outcomes.iter().map(|o| o.warnings).sum();
    let all_agree = outcomes.iter().all(|o| o.modes_agree);
    let within_budget = budget_ms.is_none_or(|ms| widened_total.as_millis() as u64 <= ms);

    let mut json = format!(
        "{{\n  \"machine\": {{\"lanes\": {lanes}, \"interim_rows\": {interim_rows}}},\n  \
         \"budget_ms\": {},\n  \"models\": [\n",
        budget_ms.map_or("null".to_string(), |ms| ms.to_string()),
    );
    for (i, o) in outcomes.iter().enumerate() {
        let findings: Vec<String> = o
            .findings
            .iter()
            .map(|(text, f)| {
                format!(
                    "{{\"block\": {}, \"count\": {}, \"severity\": {}, \"text\": {}}}",
                    f.first_block,
                    f.count,
                    json_str(&f.severity.to_string()),
                    json_str(text),
                )
            })
            .collect();
        let passes: Vec<String> = o
            .passes
            .iter()
            .map(|(name, (wall, diags))| {
                format!(
                    "{{\"name\": {}, \"wall_ns\": {}, \"diagnostics\": {diags}}}",
                    json_str(name),
                    wall.as_nanos(),
                )
            })
            .collect();
        let rules: Vec<String> = o
            .rules
            .iter()
            .map(|(code, n)| format!("{}: {n}", json_str(code)))
            .collect();
        let _ = writeln!(
            json,
            "    {{\"name\": {}, \"blocks\": {}, \"instructions\": {}, \
             \"distinct_blocks\": {}, \"warnings\": {}, \"errors\": {}, \
             \"modes_agree\": {}, \"gate_ns\": {}, \"gate_min_ns\": {}, \"gate_max_ns\": {}, \
             \"verify_ns\": {{\"widened\": {}, \"exact\": {}, \"speedup\": {:.2}}}, \
             \"summarize_ns\": {{\"widened\": {}, \"exact\": {}, \"speedup\": {:.2}}}, \
             \"passes\": [{}], \"rules\": {{{}}}, \"findings\": [{}]}}{}",
            json_str(&o.name),
            o.blocks,
            o.instructions,
            o.distinct_blocks,
            o.warnings,
            o.errors,
            o.modes_agree,
            o.gate[TIMING_REPS / 2].as_nanos(),
            o.gate[0].as_nanos(),
            o.gate[TIMING_REPS - 1].as_nanos(),
            o.widened.as_nanos(),
            o.exact.as_nanos(),
            speedup(o.exact, o.widened),
            o.summarize_widened.as_nanos(),
            o.summarize_exact.as_nanos(),
            speedup(o.summarize_exact, o.summarize_widened),
            passes.join(", "),
            rules.join(", "),
            findings.join(", "),
            if i + 1 < outcomes.len() { "," } else { "" },
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"total_warnings\": {total_warnings},\n  \"total_errors\": {total_errors},\n  \
         \"modes_agree\": {all_agree},\n  \
         \"verify_ns\": {{\"widened\": {}, \"exact\": {}, \"speedup\": {:.2}}},\n  \
         \"summarize_ns\": {{\"widened\": {}, \"exact\": {}, \"speedup\": {:.2}}},\n  \
         \"within_budget\": {within_budget}\n}}\n",
        widened_total.as_nanos(),
        exact_total.as_nanos(),
        speedup(exact_total, widened_total),
        summ_w_total.as_nanos(),
        summ_e_total.as_nanos(),
        speedup(summ_e_total, summ_w_total),
    );
    std::fs::write(&out_path, json).expect("write lint report");

    println!(
        "\n{} model(s), {} warning(s), {} error(s) — widened {:.2}ms vs exact {:.2}ms \
         end-to-end; loop summarization {:.2}ms vs {:.2}ms ({:.1}x) — report written \
         to {out_path}",
        outcomes.len(),
        total_warnings,
        total_errors,
        widened_total.as_secs_f64() * 1e3,
        exact_total.as_secs_f64() * 1e3,
        summ_w_total.as_secs_f64() * 1e3,
        summ_e_total.as_secs_f64() * 1e3,
        speedup(summ_e_total, summ_w_total),
    );
    if !within_budget {
        eprintln!(
            "FAIL: widened verification took {:.2}ms, over the {}ms budget — \
             too slow to gate the autotuner; wall per pass (loop-summaries is \
             part of scratchpad):",
            widened_total.as_secs_f64() * 1e3,
            budget_ms.unwrap_or_default(),
        );
        let mut passes: BTreeMap<&str, Duration> = BTreeMap::new();
        for (name, (wall, _)) in outcomes.iter().flat_map(|o| &o.passes) {
            *passes.entry(name).or_default() += *wall;
        }
        let mut passes: Vec<_> = passes.into_iter().collect();
        passes.sort_by_key(|&(_, wall)| std::cmp::Reverse(wall));
        for (name, wall) in passes {
            eprintln!("  {name:<16} {:>8.2}ms", wall.as_secs_f64() * 1e3);
        }
        std::process::exit(1);
    }
    if total_errors > 0 || !all_agree {
        std::process::exit(1);
    }
}
