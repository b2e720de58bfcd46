//! `tandem-serve`: the multi-NPU request-serving sweep.
//!
//! Sweeps every scheduling policy (FIFO, shortest-job-first,
//! model-affinity, batch-coalescing) across fleet sizes, serving
//! seeded workloads over the paper zoo in discrete virtual time derived
//! from real per-model cycle counts. Writes `SERVE.json` (first CLI
//! argument or `--out`, default `SERVE.json`) for CI artifact upload;
//! same seed + same configuration ⇒ byte-identical output regardless of
//! `--jobs`.
//!
//! Flags:
//! * `--smoke` — smaller request counts and fleet sizes (the CI gate).
//! * `--jobs N` — worker threads for the sweep (0 = one per core).
//! * `--trace PATH` — additionally record one 4-NPU ResNet-50/BERT
//!   demo run as a Chrome/Perfetto trace (the `docs/SERVING.md` worked
//!   example).
//! * `--scenario NAME` — `all` (default: the three classic scenarios,
//!   output unchanged from previous releases), `contention` (the
//!   BERT-heavy mix served twice, on an unlimited memory system and on
//!   a shared HBM stack sized to cover only two members' demand, so the
//!   report quantifies how much tail latency the shared stack costs),
//!   or `llm`: GPT-2 autoregressive decode serving — static batching vs
//!   Orca-style continuous batching vs continuous + block-boundary
//!   preemption, across fleet sizes on a shared HBM stack sized from
//!   the decode tables, written as `SERVE_LLM.json` with a per-size
//!   continuous-vs-static p99-TTFT and tokens/sec summary.
//! * `--requests N` — override the per-cell request count (default 96
//!   with `--smoke`, 384 without), so the same binary drives both the
//!   CI smoke gate and large-scale runs without code edits.
//!
//! Every run audits the per-request accounting identity
//! (`latency == queue + warmup + service + mem_stall`) over all
//! retained records and exits nonzero on any violation — the engines
//! `debug_assert` it, and release binaries enforce it here.

use tandem_bench::mean_service_ns;
use tandem_fleet::llm::{
    llm_summary, llm_sweep_tables, render_llm_serve_json, DecodeModel, LlmConfig, LlmFleet,
    LlmMode, LlmModelSpec, LlmSweepSpec, LlmWorkloadSpec,
};
use tandem_fleet::{
    render_serve_json, sweep, ArrivalProcess, Catalog, Fleet, FleetConfig, FleetReport, Policy,
    SweepSpec, WorkloadSpec,
};
use tandem_npu::{Npu, NpuConfig};
use tandem_trace::ChromeTraceSink;

/// Offered rate that oversubscribes a `size`-NPU fleet by `factor`.
fn rate_rps(mean_ns: f64, size: usize, factor: f64) -> f64 {
    factor * size as f64 * 1e9 / mean_ns
}

/// The release-mode accounting audit: every retained record's latency
/// must decompose exactly into `queue + warmup + service + mem_stall`.
/// Violations print to stderr and fail the run with a nonzero exit so
/// CI catches a broken identity instead of uploading its artifacts.
fn audit_identities(sections: &[(String, Vec<FleetReport>)]) {
    let mut bad = 0u64;
    for (name, rows) in sections {
        for r in rows {
            for rec in &r.records {
                let parts = rec.queue_ns + rec.warmup_ns + rec.service_ns + rec.mem_stall_ns;
                if rec.latency_ns() != parts {
                    bad += 1;
                    eprintln!(
                        "identity violation: {name}/{}@{} request {}: latency {} != \
                         queue {} + warmup {} + service {} + mem_stall {}",
                        r.policy,
                        r.fleet_size,
                        rec.id,
                        rec.latency_ns(),
                        rec.queue_ns,
                        rec.warmup_ns,
                        rec.service_ns,
                        rec.mem_stall_ns,
                    );
                }
            }
        }
    }
    if bad > 0 {
        eprintln!("{bad} latency-identity violation(s) — failing the run");
        std::process::exit(1);
    }
}

fn print_rows(scenario: &str, rows: &[FleetReport]) {
    for r in rows {
        println!(
            "{:<22} {:<9} {:>4} {:>9} {:>12.0} {:>9.3} {:>9.3} {:>6.3}",
            scenario,
            r.policy,
            r.fleet_size,
            r.completed,
            r.throughput_rps(),
            r.latency.p50_ns as f64 / 1e6,
            r.latency.p99_ns as f64 / 1e6,
            r.mean_utilization(),
        );
    }
}

fn main() {
    let mut smoke = false;
    let mut jobs = 0usize;
    let mut out_arg: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut scenario = "all".to_string();
    let mut requests_override: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--jobs needs an integer");
            }
            "--trace" => {
                trace_path = Some(args.next().expect("--trace needs a path"));
            }
            "--scenario" => scenario = args.next().expect("--scenario needs a name"),
            "--requests" => {
                requests_override = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--requests needs a positive integer"),
                );
            }
            "--out" => out_arg = Some(args.next().expect("--out needs a path")),
            other if !other.starts_with('-') => out_arg = Some(other.to_string()),
            other => panic!("unknown flag: {other}"),
        }
    }
    assert!(
        matches!(scenario.as_str(), "all" | "contention" | "llm"),
        "unknown scenario {scenario:?} (expected `all`, `contention` or `llm`)"
    );
    let out_path = out_arg.unwrap_or_else(|| {
        if scenario == "llm" {
            "SERVE_LLM.json"
        } else {
            "SERVE.json"
        }
        .to_string()
    });

    let requests = requests_override.unwrap_or(if smoke { 96 } else { 384 });
    assert!(requests >= 1, "--requests must be at least 1");

    if scenario == "llm" {
        run_llm_scenario(smoke, jobs, requests, &out_path, trace_path.as_deref());
        return;
    }

    let catalog = Catalog::zoo();
    let probe = Npu::new(NpuConfig::paper());
    let fleet_sizes: Vec<usize> = if smoke {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8]
    };
    let max_size = *fleet_sizes.iter().max().unwrap();
    let template = FleetConfig::homogeneous(NpuConfig::paper(), 1);

    // Scenario 1 — "mixed": the uniform 7-model zoo, offered at 1.2×
    // the largest fleet's solo-service capacity so every cell queues.
    let mixed_mix: Vec<(usize, f64)> = (0..catalog.len()).map(|m| (m, 1.0)).collect();
    let mixed_rate = rate_rps(mean_service_ns(&probe, &catalog, &mixed_mix), max_size, 1.2);
    let mixed = SweepSpec {
        template: template.clone(),
        fleet_sizes: fleet_sizes.clone(),
        policies: Policy::ALL.to_vec(),
        hbm_budgets: Vec::new(),
        workload: WorkloadSpec {
            mix: mixed_mix,
            arrival: ArrivalProcess::Poisson {
                rate_rps: mixed_rate,
            },
            seed: 42,
            requests,
        },
    };

    // Scenario 2 — "bert_heavy": 80% BERT plus ResNet-50/GPT-2
    // stragglers, oversubscribed 1.5× — the regime where same-model
    // batch coalescing pulls ahead of FIFO on throughput.
    let bert_mix: Vec<(usize, f64)> = vec![(5, 8.0), (1, 1.0), (6, 1.0)];
    let bert_rate = rate_rps(mean_service_ns(&probe, &catalog, &bert_mix), max_size, 1.5);
    let bert_heavy = SweepSpec {
        template: template.clone(),
        fleet_sizes: fleet_sizes.clone(),
        policies: Policy::ALL.to_vec(),
        hbm_budgets: Vec::new(),
        workload: WorkloadSpec {
            mix: bert_mix,
            arrival: ArrivalProcess::Poisson {
                rate_rps: bert_rate,
            },
            seed: 42,
            requests,
        },
    };

    // Scenario 3 — "closed_loop": 16 concurrent clients with 0.2 ms
    // think time, the latency-measurement mode.
    let closed = SweepSpec {
        template,
        fleet_sizes: fleet_sizes.clone(),
        policies: Policy::ALL.to_vec(),
        hbm_budgets: Vec::new(),
        workload: WorkloadSpec {
            mix: (0..catalog.len()).map(|m| (m, 1.0)).collect(),
            arrival: ArrivalProcess::ClosedLoop {
                clients: 16,
                think_ns: 200_000,
            },
            seed: 42,
            requests,
        },
    };

    println!(
        "{:<22} {:<9} {:>4} {:>9} {:>12} {:>9} {:>9} {:>6}",
        "scenario", "policy", "npus", "served", "thr (rps)", "p50 ms", "p99 ms", "util"
    );
    let sections: Vec<(String, Vec<FleetReport>)> = if scenario == "contention" {
        // The same BERT-heavy sweep on two memory systems: unlimited
        // bandwidth (the classic engine path) vs a shared HBM stack
        // sized to cover only two members' worth of demand — calibrated
        // from the cycle model itself, not hard-coded.
        let freq = probe.config().tandem.freq_ghz;
        let sd = probe.estimate_demand(catalog.graph(5)); // BERT-base
        let bert_demand = sd.dram_bytes as f64 / (sd.total_cycles as f64 / freq);
        let budget = 2.0 * bert_demand;
        let mut hbm_template = bert_heavy.template.clone();
        hbm_template.hbm_gbps = Some((budget * 100.0).round() / 100.0);
        let hbm_spec = SweepSpec {
            template: hbm_template,
            ..bert_heavy.clone()
        };
        let out = [
            ("contention_unlimited", &bert_heavy),
            ("contention_hbm", &hbm_spec),
        ]
        .iter()
        .map(|(name, spec)| {
            let rows = sweep(&catalog, spec, jobs);
            print_rows(name, &rows);
            (name.to_string(), rows)
        })
        .collect::<Vec<_>>();
        // The headline: what the shared stack costs in tail latency at
        // the largest fleet (more members ⇒ more overlap ⇒ more
        // oversubscription of the same budget).
        let p99 = |rows: &[FleetReport]| -> f64 {
            rows.iter()
                .find(|r| r.policy == "batch" && r.fleet_size == max_size)
                .map(|r| r.latency.p99_ns as f64 / 1e6)
                .unwrap_or(0.0)
        };
        let (free, tight) = (p99(&out[0].1), p99(&out[1].1));
        println!(
            "\ncontention @ {max_size} NPUs on a {budget:.1} GB/s stack: batch p99 {tight:.3} ms \
             vs {free:.3} ms unlimited ({:.2}x)",
            tight / free.max(1e-9),
        );
        out
    } else {
        let out = [
            ("mixed", &mixed),
            ("bert_heavy", &bert_heavy),
            ("closed_loop", &closed),
        ]
        .iter()
        .map(|(name, spec)| {
            let rows = sweep(&catalog, spec, jobs);
            print_rows(name, &rows);
            (name.to_string(), rows)
        })
        .collect::<Vec<_>>();
        // The headline comparison: batch coalescing vs FIFO at the
        // largest fleet on the BERT-heavy mix.
        let pick = |rows: &[FleetReport], policy: &str| -> f64 {
            rows.iter()
                .find(|r| r.policy == policy && r.fleet_size == max_size)
                .map(|r| r.throughput_rps())
                .unwrap_or(0.0)
        };
        let bert_rows = &out[1].1;
        let (fifo_thr, batch_thr) = (pick(bert_rows, "fifo"), pick(bert_rows, "batch"));
        println!(
            "\nbert_heavy @ {max_size} NPUs: batch {batch_thr:.0} rps vs fifo {fifo_thr:.0} rps \
             ({:.2}x)",
            batch_thr / fifo_thr.max(1e-9),
        );
        out
    };

    audit_identities(&sections);
    let json = render_serve_json(&sections);
    std::fs::write(&out_path, &json).expect("write SERVE.json");
    println!("wrote {out_path}");

    if let Some(path) = trace_path {
        // The docs/SERVING.md worked example: a 4-NPU fleet on a mixed
        // ResNet-50/BERT Poisson workload, rendered for Perfetto.
        let mut sink = ChromeTraceSink::new();
        let demo_mix = vec![(1usize, 1.0), (5, 1.0)];
        let demo_rate = rate_rps(mean_service_ns(&probe, &catalog, &demo_mix), 4, 1.3);
        let fleet = Fleet::new(FleetConfig::homogeneous(NpuConfig::paper(), 4));
        let spec = WorkloadSpec {
            mix: demo_mix,
            arrival: ArrivalProcess::Poisson {
                rate_rps: demo_rate,
            },
            seed: 7,
            requests: if smoke { 48 } else { 128 },
        };
        let report = fleet.serve_traced(&catalog, &spec, Policy::BatchCoalesce, &mut sink);
        std::fs::write(&path, sink.to_json()).expect("write fleet trace");
        println!(
            "wrote {path} ({} events, p99 {:.3} ms) — open in https://ui.perfetto.dev",
            sink.len(),
            report.latency.p99_ns as f64 / 1e6,
        );
    }
}

/// The `--scenario llm` path: GPT-2 autoregressive decode serving,
/// three batching modes crossed with fleet sizes, all contending for a
/// shared HBM stack sized from the decode tables, written as
/// `SERVE_LLM.json` with the per-size continuous-vs-static summary.
fn run_llm_scenario(
    smoke: bool,
    jobs: usize,
    requests: usize,
    out_path: &str,
    trace_path: Option<&str>,
) {
    let fleet_sizes: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4] };
    let max_size = *fleet_sizes.iter().max().unwrap();
    let model = LlmModelSpec::gpt2(16, if smoke { 64 } else { 128 });
    let mut workload = LlmWorkloadSpec {
        rate_rps: 0.0,
        requests,
        seed: 42,
        prompt_tokens: if smoke { (8, 24) } else { (8, 48) },
        output_tokens: if smoke { (4, 32) } else { (4, 64) },
        latency_fraction: 0.25,
    };
    // One pool, one table build: the calibration below and every sweep
    // cell replay the same cached cycle-oracle numbers.
    let pool = Npu::fleet(&vec![NpuConfig::paper(); max_size]);
    let tables = DecodeModel::build(&model, &pool);
    // Offered at 1.5x half the largest fleet's solo capacity, so the
    // small fleets queue hard and the largest still sees idle gaps —
    // the regime where iteration-level batching decisions matter.
    workload.rate_rps = 0.75 * max_size as f64 * 1e9 / tables.mean_request_ns(0, &workload);
    // A stack covering each member's solo mid-context decode demand;
    // batched iterations oversubscribe it, so growing KV caches turn
    // into real bandwidth contention.
    let mid_ctx = model.max_context / 2;
    let step_gbps = tables.step_bytes(0, mid_ctx) as f64 / tables.step_ns(0, mid_ctx) as f64;
    let budget = (max_size as f64 * step_gbps * 100.0).round() / 100.0;
    let mut fleet_cfg = FleetConfig::homogeneous(NpuConfig::paper(), 1);
    fleet_cfg.hbm_gbps = Some(budget);
    let spec = LlmSweepSpec {
        template: LlmConfig::new(fleet_cfg, LlmMode::Continuous),
        fleet_sizes,
        modes: LlmMode::ALL.to_vec(),
        workload,
    };
    println!(
        "{:<22} {:<9} {:>4} {:>9} {:>12} {:>9} {:>9} {:>6}",
        "scenario", "policy", "npus", "served", "thr (rps)", "p50 ms", "p99 ms", "util"
    );
    let rows = llm_sweep_tables(&tables, &spec, jobs);
    print_rows("llm", &rows);
    let summary = llm_summary(&rows);
    for s in &summary {
        println!(
            "llm @ {} NPUs on a {budget:.1} GB/s stack: continuous p99 TTFT {:.3} ms vs \
             static {:.3} ms ({:.2}x win), {:.0} vs {:.0} tok/s ({:.2}x win)",
            s.fleet_size,
            s.continuous_ttft_p99_ns as f64 / 1e6,
            s.static_ttft_p99_ns as f64 / 1e6,
            s.ttft_p99_win,
            s.continuous_tokens_per_s,
            s.static_tokens_per_s,
            s.tokens_per_s_win,
        );
    }
    let sections = vec![("llm".to_string(), rows)];
    audit_identities(&sections);
    let json = render_llm_serve_json(&sections[0].1, &summary);
    std::fs::write(out_path, &json).expect("write SERVE_LLM.json");
    println!("wrote {out_path}");

    if let Some(path) = trace_path {
        // Batch membership in Perfetto: the preemptive cell at the
        // largest fleet — every iteration is a span tagged with its
        // batch size and prefill/decode split, with preempt/resume
        // markers where checkpoints land.
        let mut sink = ChromeTraceSink::new();
        let mut cfg = spec.template.clone();
        cfg.mode = LlmMode::Preemptive;
        cfg.fleet.npus = vec![spec.template.fleet.npus[0].clone(); max_size];
        let report = LlmFleet::new(cfg, &tables).serve_traced(&spec.workload.generate(), &mut sink);
        std::fs::write(path, sink.to_json()).expect("write llm trace");
        println!(
            "wrote {path} ({} events, p99 TTFT {:.3} ms) — open in https://ui.perfetto.dev",
            sink.len(),
            report.llm.map(|l| l.ttft.p99_ns).unwrap_or(0) as f64 / 1e6,
        );
    }
}
