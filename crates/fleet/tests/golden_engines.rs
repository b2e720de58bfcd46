//! Nanosecond-exact golden reports for both serving engines.
//!
//! `golden_serve.json` pins aggregates at 4-decimal milliseconds for
//! retained-record whole-graph runs only. This fixture pins the full
//! `{:?}` of every [`FleetReport`] — every ns field, records,
//! `per_request`, depth samples, and rollups — with `stats` reset (it
//! carries host wall time). It covers:
//!
//! * `LlmFleet` in all three [`LlmMode`]s, with an unlimited and a
//!   throttling HBM budget, each retained and streaming;
//! * `Fleet` under every policy, uncontended and contended, each
//!   retained and streaming with rollups, with a bounded queue and a
//!   deadline so drops and timeouts show up;
//!
//! plus the Perfetto trace of one contended preemptive LLM run (step
//! spans, preempt/resume markers, the token counter, the HBM track).
//! Regenerate (only when a change is meant to move serving numbers)
//! with `UPDATE_GOLDEN=1 cargo test -p tandem-fleet --test golden_engines`.

use tandem_fleet::llm::{DecodeModel, LlmConfig, LlmFleet, LlmMode, LlmModelSpec, LlmWorkloadSpec};
use tandem_fleet::{
    ArrivalProcess, Catalog, Fleet, FleetConfig, FleetReport, Policy, WorkloadSpec,
};
use tandem_model::{Graph, GraphBuilder, Padding};
use tandem_npu::{ExecStats, Npu, NpuConfig};
use tandem_trace::ChromeTraceSink;

fn micro_prefill(seq: usize) -> Graph {
    let mut b = GraphBuilder::new("micro-prefill", 2024);
    let x = b.input("x", [seq, 32]);
    let w = b.weight([32, 32]);
    let h = b.matmul(x, w);
    let s = b.softmax(h, -1);
    b.output(s);
    b.finish()
}

fn micro_step(ctx: usize) -> Graph {
    let mut b = GraphBuilder::new("micro-step", 2024);
    let x = b.input("x", [1, 32]);
    let w = b.weight([32, 32]);
    let q = b.matmul(x, w);
    let kv = b.weight([ctx, 32]);
    let kt = b.transpose(kv, &[1, 0]);
    let scores = b.matmul(q, kt);
    let p = b.softmax(scores, -1);
    let o = b.matmul(p, kv);
    b.output(o);
    b.finish()
}

/// The micro LLM of `tests/llm.rs`: cost tables build in milliseconds.
fn micro_llm() -> LlmModelSpec {
    LlmModelSpec {
        name: "micro".to_string(),
        prefill: micro_prefill,
        decode_step: micro_step,
        block_tokens: 4,
        max_context: 64,
    }
}

fn micro_conv() -> Graph {
    let mut b = GraphBuilder::new("micro-conv", 2024);
    let x = b.input("x", [1, 3, 8, 8]);
    let c = b.conv(x, 4, 3, 1, Padding::Same);
    let r = b.relu(c);
    let p = b.max_pool(r, 2, 2);
    b.output(p);
    b.finish()
}

fn micro_mlp() -> Graph {
    let mut b = GraphBuilder::new("micro-mlp", 2024);
    let x = b.input("x", [16, 32]);
    let w = b.weight([32, 32]);
    let h = b.matmul(x, w);
    let g = b.gelu_tanh(h);
    b.output(g);
    b.finish()
}

/// One fixture line: the report's `{:?}` minus host-side statistics.
fn line(label: &str, mut report: FleetReport) -> String {
    report.stats = ExecStats::default();
    format!("{label}: {report:?}\n")
}

fn llm_lines(out: &mut String) -> String {
    let pool = Npu::fleet(&vec![NpuConfig::paper(); 2]);
    let tables = DecodeModel::build(&micro_llm(), &pool);
    let mut workload = LlmWorkloadSpec {
        rate_rps: 0.0,
        requests: 48,
        seed: 0x11a_5eed,
        prompt_tokens: (4, 16),
        output_tokens: (4, 24),
        latency_fraction: 0.25,
    };
    workload.rate_rps = 1.3 * 1e9 / tables.mean_request_ns(0, &workload);
    let requests = workload.generate();
    let mut trace = String::new();
    for mode in LlmMode::ALL {
        for hbm in [None, Some(0.05)] {
            for retain in [true, false] {
                let mut cfg = LlmConfig::new(FleetConfig::homogeneous(NpuConfig::paper(), 2), mode);
                cfg.fleet.hbm_gbps = hbm;
                cfg.fleet.retain_records = retain;
                let fleet = LlmFleet::new(cfg, &tables);
                let label = format!("llm {} hbm={hbm:?} retain={retain}", mode.name());
                if mode == LlmMode::Preemptive && hbm.is_some() && retain {
                    let mut sink = ChromeTraceSink::new();
                    let report = fleet.serve_traced(&requests, &mut sink);
                    trace = sink.to_json();
                    out.push_str(&line(&label, report));
                } else {
                    out.push_str(&line(&label, fleet.serve(&requests)));
                }
            }
        }
    }
    trace
}

fn fleet_lines(out: &mut String) {
    let mut catalog = Catalog::new();
    catalog.add("micro-conv", micro_conv());
    catalog.add("micro-mlp", micro_mlp());
    let probe = Npu::new(NpuConfig::paper());
    let freq = probe.config().tandem.freq_ghz;
    let mean_ns = (0..catalog.len())
        .map(|m| probe.estimate(catalog.graph(m)) as f64 / freq)
        .sum::<f64>()
        / catalog.len() as f64;
    let spec = WorkloadSpec {
        mix: vec![(0, 2.0), (1, 1.0)],
        arrival: ArrivalProcess::Poisson {
            rate_rps: 0.8 * 2.0 * 1e9 / mean_ns,
        },
        seed: 0x90_1d,
        requests: 64,
    };
    for hbm in [None, Some(4.0)] {
        for retain in [true, false] {
            for policy in Policy::ALL {
                let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 2);
                cfg.hbm_gbps = hbm;
                cfg.retain_records = retain;
                cfg.rollup_window_ns = (!retain).then_some(5_000);
                cfg.queue_capacity = 16;
                cfg.deadline_ns = Some(8 * mean_ns as u64);
                cfg.batch_window_ns = 2 * mean_ns as u64;
                let report = Fleet::new(cfg).serve(&catalog, &spec, policy);
                let label = format!("fleet {policy:?} hbm={hbm:?} retain={retain}");
                out.push_str(&line(&label, report));
            }
        }
    }
}

fn check(path: &str, actual: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, actual).expect("write golden fixture");
        return;
    }
    let golden = std::fs::read_to_string(path).expect(
        "golden fixture missing — regenerate with UPDATE_GOLDEN=1 cargo test -p tandem-fleet --test golden_engines",
    );
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "{path}: line {} changed", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{path}: line count changed"
    );
    assert_eq!(actual, golden, "{path}: bytes changed");
}

#[test]
fn engine_reports_and_llm_trace_match_golden_bytes() {
    let mut reports = String::new();
    let trace = llm_lines(&mut reports);
    fleet_lines(&mut reports);
    assert!(trace.contains("preempt") && trace.contains("resume"));
    assert!(trace.contains("shared HBM"));
    check(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_engines.txt"),
        &reports,
    );
    check(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden_engines.trace.json"
        ),
        &trace,
    );
}
