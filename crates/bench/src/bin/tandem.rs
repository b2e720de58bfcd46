//! `tandem` — command-line driver for the NPU-Tandem simulator.
//!
//! ```text
//! tandem models                         list the benchmark zoo
//! tandem run <model> [flags]            compile + verify for the machine,
//!                                       then simulate end to end
//!     --layer-granularity               whole-layer handoff (Figure 8 baseline)
//!     --knobs regfile,loops,addr,fifo,special
//!                                       de-specialize (Figure 6/18 ablations)
//!     --iso-a100                        216x scale-up (Figure 21 setting)
//!     --seq <n>                         sequence length (n >= 1) for BERT/GPT-2
//! tandem profile <model> [out.trace.json]
//!                                       verify, then run traced: write the
//!                                       Chrome trace (default
//!                                       <model>.trace.json), print the
//!                                       report and the critical-path
//!                                       cycle attribution; exit 1 if its
//!                                       buckets do not sum to the latency
//! tandem asm <file.tasm> [--trace]      assemble + verify a Tandem program,
//!                                       print its diagnostics to stderr and,
//!                                       if none is an error, run it
//!                                       functionally and print the report
//!                                       (--trace: and its Chrome trace JSON)
//! tandem figure <id>|all                print one paper table/figure or
//!                                       extension, or all of them in
//!                                       registry order
//! ```
//!
//! `run` and `profile` compile the model for the machine with the verify
//! gate on first; a lowering error or a verifier error is printed to
//! stderr and exits 1 without simulating, as `asm` does.

use std::process::ExitCode;
use tandem_bench::experiments::{self, EXPERIMENTS};
use tandem_bench::Suite;
use tandem_compiler::{schedule_graph_opts, CompileOptions, OpLowering};
use tandem_core::{Dram, TandemConfig, TandemProcessor};
use tandem_model::zoo::{self, Benchmark};
use tandem_model::Graph;
use tandem_npu::{Despecialization, Npu, NpuConfig, TileGranularity};
use tandem_trace::ChromeTraceSink;
use tandem_verify::{Verifier, VerifyConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  tandem models\n  tandem run <model> [--layer-granularity] \
         [--knobs k1,k2,..] [--iso-a100] [--seq <n>]\n  tandem profile <model> \
         [out.trace.json]\n  tandem asm <file.tasm> [--trace]\n  tandem figure <id>|all\n\
         run, profile and asm verify first and exit 1 on an error"
    );
    ExitCode::from(2)
}

/// The zoo model a user names (its `tandem models` name, its graph name
/// or a short alias, in any case; `seq` applies to BERT and GPT-2), or
/// the usage error for an unknown name.
fn model_by_name(name: &str, seq: usize) -> Result<Graph, ExitCode> {
    Ok(match name.to_lowercase().as_str() {
        "vgg16" | "vgg-16" => zoo::vgg16(),
        "resnet50" | "resnet-50" => zoo::resnet50(),
        "yolov3" => zoo::yolov3(),
        "mobilenetv2" | "mobilenet" => zoo::mobilenetv2(),
        "efficientnet" | "efficientnet-b0" | "efficientnet_b0" => zoo::efficientnet_b0(),
        "bert" | "bert-base" | "bert_base" => zoo::bert_base(seq),
        "gpt2" | "gpt-2" => zoo::gpt2(seq),
        _ => {
            eprintln!("unknown model `{name}` — see `tandem models`");
            return Err(usage());
        }
    })
}

/// The NPU for `cfg`, once `graph` compiles for its machine (lanes,
/// Interim rows and schedule) with the verify gate on: the verdict
/// [`Npu::verify_schedule`] gives. On a lowering error or a verifier
/// error it prints the error (with the failing block's report) to stderr
/// and gives exit 1, so nothing unverified is simulated.
fn verified_npu(cfg: NpuConfig, graph: &Graph) -> Result<Npu, ExitCode> {
    let lowering = OpLowering::new(cfg.tandem.lanes, cfg.tandem.interim_rows);
    let opts = CompileOptions {
        schedule: cfg.schedule.clone(),
        ..CompileOptions::default()
    };
    match schedule_graph_opts(&lowering, graph, &opts) {
        Ok(_) => Ok(Npu::new(cfg)),
        Err(e) => {
            eprintln!("{}: {e}\n{}: not simulating", graph.name, graph.name);
            Err(ExitCode::FAILURE)
        }
    }
}

fn parse_knobs(spec: &str) -> Result<Despecialization, String> {
    let mut knobs = Despecialization::none();
    for k in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match k {
            "regfile" => knobs.regfile_ldst = true,
            "loops" => knobs.branch_loops = true,
            "addr" => knobs.sw_addr_calc = true,
            "fifo" => knobs.obuf_fifo = true,
            "special" => knobs.special_fn = true,
            "vpu" => knobs = Despecialization::vpu_like(),
            other => return Err(format!("unknown knob `{other}`")),
        }
    }
    Ok(knobs)
}

fn cmd_run(args: &[String]) -> Result<(), ExitCode> {
    let Some(model_name) = args.first() else {
        return Err(usage());
    };
    let mut cfg = NpuConfig::paper();
    let mut seq = 128usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--layer-granularity" => cfg.granularity = TileGranularity::Layer,
            "--iso-a100" => {
                let knobs = cfg.knobs;
                let granularity = cfg.granularity;
                cfg = NpuConfig::iso_a100();
                cfg.knobs = knobs;
                cfg.granularity = granularity;
            }
            "--knobs" => {
                i += 1;
                let Some(spec) = args.get(i) else {
                    return Err(usage());
                };
                match parse_knobs(spec) {
                    Ok(k) => cfg.knobs = k,
                    Err(e) => {
                        eprintln!("{e}");
                        return Err(ExitCode::from(2));
                    }
                }
            }
            "--seq" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|s| s.parse().ok()).filter(|&n| n > 0) else {
                    eprintln!("--seq takes a positive integer");
                    return Err(usage());
                };
                seq = n;
            }
            other => {
                eprintln!("unknown flag `{other}`");
                return Err(usage());
            }
        }
        i += 1;
    }
    let graph = model_by_name(model_name, seq)?;
    let report = verified_npu(cfg.clone(), &graph)?.run(&graph);
    println!(
        "model          : {} ({} nodes)",
        graph.name,
        graph.nodes().len()
    );
    println!(
        "machine        : {}x{} GEMM + {}-lane Tandem{}",
        cfg.gemm.rows,
        cfg.gemm.cols,
        cfg.tandem.lanes,
        if cfg.knobs == Despecialization::none() {
            String::new()
        } else {
            format!(" (knobs: {:?})", cfg.knobs)
        }
    );
    println!("latency        : {:.4} ms", report.seconds() * 1e3);
    println!("energy         : {:.4} mJ", report.total_energy_nj() * 1e-6);
    println!("avg power      : {:.3} W", report.average_power_w());
    println!("GEMM util      : {:.1}%", report.gemm_utilization() * 100.0);
    println!(
        "Tandem util    : {:.1}%",
        report.tandem_utilization() * 100.0
    );
    println!(
        "non-GEMM share : {:.1}%",
        report.non_gemm_fraction() * 100.0
    );
    println!(
        "DRAM traffic   : {:.2} MB (Tandem) + {:.2} MB (GEMM)",
        report.tandem_dram_bytes as f64 / 1e6,
        report.gemm_dram_bytes as f64 / 1e6
    );
    println!("\ncycles by operator:");
    let mut kinds: Vec<_> = report.per_kind_cycles.iter().collect();
    kinds.sort_by_key(|(_, &c)| std::cmp::Reverse(c));
    for (kind, cycles) in kinds.into_iter().take(12) {
        println!("  {:<20} {cycles:>12}", kind.to_string());
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), ExitCode> {
    let (model_name, out_path) = match args {
        [m] => (m, format!("{}.trace.json", m.to_ascii_lowercase())),
        [m, out] => (m, out.clone()),
        _ => return Err(usage()),
    };
    let graph = model_by_name(model_name, 128)?;
    let npu = verified_npu(NpuConfig::paper(), &graph)?;
    let mut sink = ChromeTraceSink::new();
    let report = npu.run_traced(&graph, &mut sink);
    if let Err(e) = std::fs::write(&out_path, sink.to_json()) {
        eprintln!("cannot write {out_path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    println!(
        "{} — {} nodes, {} trace events\n{report}\n\ncritical-path cycle attribution\n{}\n\n\
         trace written to {out_path} (load in https://ui.perfetto.dev or chrome://tracing)",
        graph.name,
        graph.nodes().len(),
        sink.len(),
        report.attribution
    );
    if report.attribution.total() != report.total_cycles {
        eprintln!(
            "ERROR: attribution buckets sum to {} but the run reports {} cycles",
            report.attribution.total(),
            report.total_cycles
        );
        return Err(ExitCode::FAILURE);
    }
    Ok(())
}

fn cmd_asm(args: &[String]) -> ExitCode {
    // The path is the first argument that is not a flag, so `--trace`
    // may come before or after it.
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        return usage();
    };
    let trace = args.iter().any(|a| a == "--trace");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match tandem_isa::Program::parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "assembled {} instructions ({} compute):\n{program}",
        program.len(),
        program.compute_count()
    );
    let cfg = TandemConfig::paper();
    let report = Verifier::new(VerifyConfig::from(&cfg)).verify(&program);
    for d in &report.diagnostics {
        eprintln!("{path}: {d}");
    }
    if !report.is_clean() {
        eprintln!(
            "{path}: {} verifier error(s); not simulating",
            report.errors().count()
        );
        return ExitCode::FAILURE;
    }
    let mut proc = TandemProcessor::new(cfg);
    let mut dram = Dram::new(1 << 20);
    let result = if trace {
        let mut sink = ChromeTraceSink::new();
        let result = proc.run_traced(&program, &mut dram, &mut sink);
        print!("execution trace (Chrome trace JSON):\n{}", sink.to_json());
        result
    } else {
        proc.run(&program, &mut dram)
    };
    match result {
        Ok(report) => {
            println!("compute cycles : {}", report.compute_cycles);
            println!("DMA cycles     : {}", report.dma_cycles);
            println!("ALU lane-ops   : {}", report.counters.alu_lane_ops);
            println!(
                "scratchpad R/W : {} / {}",
                report.counters.spad_row_reads, report.counters.spad_row_writes
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simulation error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_figure(args: &[String]) -> ExitCode {
    let selected: Vec<_> = match args {
        [id] if id == "all" => EXPERIMENTS.iter().collect(),
        [id] => match experiments::find(id) {
            Some(e) => vec![e],
            None => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                eprintln!("unknown figure `{id}`; valid ids: all, {}", ids.join(", "));
                return ExitCode::from(2);
            }
        },
        _ => return usage(),
    };
    let suite = Suite::load();
    for e in selected {
        print!("{}", experiments::text(&(e.render)(&suite)));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("models") => {
            for b in Benchmark::ALL {
                let g = b.graph();
                println!(
                    "{:<14} {:>4} nodes, {:>3} GEMM, {} non-GEMM",
                    b.name(),
                    g.nodes().len(),
                    g.stats().gemm_nodes(),
                    g.stats().non_gemm_nodes()
                );
            }
            ExitCode::SUCCESS
        }
        Some("run") => cmd_run(&args[1..]).err().unwrap_or(ExitCode::SUCCESS),
        Some("profile") => cmd_profile(&args[1..]).err().unwrap_or(ExitCode::SUCCESS),
        Some("asm") => cmd_asm(&args[1..]),
        Some("figure") => cmd_figure(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gate_passes_the_paper_machine_and_refuses_a_cramped_one() {
        let graph = zoo::mobilenetv2();
        assert!(verified_npu(NpuConfig::paper(), &graph).is_ok());
        // Eight Interim rows cannot hold a 3×3 depthwise conv's weights
        // and bias: lowering refuses MobileNetV2 with `OutOfScratchpad`.
        let mut cramped = NpuConfig::paper();
        cramped.tandem.interim_rows = 8;
        assert!(!Npu::new(cramped.clone()).verify_schedule(&graph));
        assert!(verified_npu(cramped, &graph).is_err());
    }
}
