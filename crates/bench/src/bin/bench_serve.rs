//! Fleet-engine throughput benchmark: requests simulated per
//! wall-second and peak RSS, across serving regimes.
//!
//! It tracks the *serving engine* — the streaming-statistics path
//! (`FleetConfig::retain_records = false`) whose memory stays flat in
//! the request count. Three scenarios:
//!
//! * **mixed_zoo** — the uniform 7-model mix, Poisson-oversubscribed
//!   1.2×, batch coalescing on 4 NPUs;
//! * **bert_contended** — the BERT-heavy mix on a shared HBM stack
//!   sized for two members' demand (the expensive path: every
//!   dispatch/completion event re-shares bandwidth);
//! * **diurnal_10m** — ten million open-loop requests through the
//!   sinusoidal + flash-crowd [`ArrivalProcess::Diurnal`] process with
//!   windowed rollups on, the ROADMAP's week-long-trace regime;
//! * **llm_decode** — GPT-2 continuous batching through the
//!   iteration-level LLM engine in streaming mode; its throughput is
//!   decoded tokens per wall-second (iterations are much finer-grained
//!   than whole-graph requests, so req/s is not comparable) and it is
//!   guarded by its own `smoke_floor_llm_tok_ps` floor. Its `wall_s`
//!   times the engine alone; `tables_s` is the wall of the
//!   `DecodeModel::build` before it (GPT-2 graph construction plus the
//!   cycle-model runs the pool's caches do not already hold), and
//!   `warm_tables_s` the wall of a second build on the same pool, which
//!   builds no graph. The run **fails** if the warm tables differ from
//!   the cold ones.
//!
//! Writes `BENCH_SERVE.json` (first CLI argument or `--out`). In
//! `--smoke` mode the request counts shrink to CI size and the run
//! **fails** if any whole-graph scenario's requests/sec drops below the
//! `smoke_floor_rps` committed with the baseline `BENCH_SERVE.json`, or
//! the LLM scenario's tokens/sec drops below `smoke_floor_llm_tok_ps` —
//! the regression guards that keep the engines production-fast. Floors
//! are read from the committed baseline (override with `--floor N`;
//! `--baseline PATH` points elsewhere). Each sits at most 3x below the
//! median of repeated smoke runs, so a 3x slowdown trips it.

use std::fmt::Write as _;
use std::time::Instant;
use tandem_bench::{mean_service_ns, read_floor};
use tandem_fleet::llm::{DecodeModel, LlmConfig, LlmFleet, LlmMode, LlmModelSpec, LlmWorkloadSpec};
use tandem_fleet::{ArrivalProcess, Catalog, Fleet, FleetConfig, Policy, WorkloadSpec};
use tandem_npu::{Npu, NpuConfig};

/// A field of `/proc/self/status` in KiB (0 where unavailable — the
/// bench still runs, just without memory numbers).
fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct Row {
    name: &'static str,
    requests: u64,
    completed: u64,
    dropped: u64,
    wall_s: f64,
    rps: f64,
    peak_rss_mb: f64,
    rss_growth_mb: f64,
    /// Decoded tokens (LLM scenarios only; 0 for whole-graph rows).
    tokens_out: u64,
    /// Decoded tokens per wall-second (LLM scenarios only).
    tok_ps: f64,
    /// Wall seconds of the decode-table build (LLM scenarios only).
    tables_s: f64,
    /// Wall seconds of a second decode-table build on the same pool
    /// (LLM scenarios only).
    warm_tables_s: f64,
}

fn run_scenario(
    name: &'static str,
    fleet: &Fleet,
    catalog: &Catalog,
    spec: &WorkloadSpec,
    policy: Policy,
) -> Row {
    let rss_before_kb = proc_status_kb("VmRSS:");
    let t0 = Instant::now();
    let report = fleet.serve(catalog, spec, policy);
    let wall_s = t0.elapsed().as_secs_f64();
    // The whole point: the streaming path retains nothing per-request.
    assert!(
        report.records.is_empty() && report.queue_depth_samples.is_empty(),
        "retain_records=off must not retain per-request state"
    );
    assert_eq!(
        report.completed + report.dropped + report.timed_out,
        report.offered,
        "every request must be accounted for"
    );
    let rss_after_kb = proc_status_kb("VmRSS:");
    Row {
        name,
        requests: report.offered,
        completed: report.completed,
        dropped: report.dropped,
        wall_s,
        rps: report.offered as f64 / wall_s.max(1e-9),
        peak_rss_mb: proc_status_kb("VmHWM:") as f64 / 1024.0,
        rss_growth_mb: rss_after_kb.saturating_sub(rss_before_kb) as f64 / 1024.0,
        tokens_out: 0,
        tok_ps: 0.0,
        tables_s: 0.0,
        warm_tables_s: 0.0,
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_SERVE.json".to_string();
    let mut baseline_path = "BENCH_SERVE.json".to_string();
    let mut floor_override: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--baseline" => baseline_path = args.next().expect("--baseline needs a path"),
            "--floor" => {
                floor_override = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--floor needs a number"),
                );
            }
            other if !other.starts_with('-') => out_path = other.to_string(),
            other => panic!("unknown flag: {other}"),
        }
    }
    // Read the committed floors *before* this run overwrites the file.
    let floor_rps = floor_override
        .or_else(|| read_floor(&baseline_path, "smoke_floor_rps"))
        .unwrap_or(DEFAULT_FLOOR_RPS);
    let floor_llm_tok_ps =
        read_floor(&baseline_path, "smoke_floor_llm_tok_ps").unwrap_or(DEFAULT_FLOOR_LLM_TOK_PS);

    let catalog = Catalog::zoo();
    let probe = Npu::new(NpuConfig::paper());
    const FLEET: usize = 4;
    let pool = Npu::fleet(&vec![NpuConfig::paper(); FLEET]);

    // One streaming template for every scenario: no records, no
    // per-event depth samples — flat memory is what's being measured.
    let mut streaming = FleetConfig::homogeneous(NpuConfig::paper(), FLEET);
    streaming.retain_records = false;

    // Warm the shared pool (cycle-model estimates for every zoo model)
    // so scenario timings measure the event engine, not one-time model
    // simulation.
    {
        let fleet = Fleet::with_members(streaming.clone(), pool.clone());
        let warm = WorkloadSpec::uniform(&catalog, 1_000.0, 32, 1);
        let _ = fleet.serve(&catalog, &warm, Policy::Fifo);
    }

    let (n_mixed, n_contended, n_diurnal, n_llm) = if smoke {
        (100_000usize, 30_000usize, 200_000usize, 20_000usize)
    } else {
        (2_000_000, 500_000, 10_000_000, 200_000)
    };

    let mut rows: Vec<Row> = Vec::new();

    // Scenario 1 — mixed zoo, oversubscribed Poisson, batch coalescing.
    let mixed_mix: Vec<(usize, f64)> = (0..catalog.len()).map(|m| (m, 1.0)).collect();
    let mixed_cap = FLEET as f64 * 1e9 / mean_service_ns(&probe, &catalog, &mixed_mix);
    {
        let fleet = Fleet::with_members(streaming.clone(), pool.clone());
        let spec = WorkloadSpec {
            mix: mixed_mix.clone(),
            arrival: ArrivalProcess::Poisson {
                rate_rps: 1.2 * mixed_cap,
            },
            seed: 42,
            requests: n_mixed,
        };
        rows.push(run_scenario(
            "mixed_zoo",
            &fleet,
            &catalog,
            &spec,
            Policy::BatchCoalesce,
        ));
    }

    // Scenario 2 — BERT-heavy on a shared HBM stack sized for two
    // members' demand (the reallocation-heavy path).
    {
        let bert_mix: Vec<(usize, f64)> = vec![(5, 8.0), (1, 1.0), (6, 1.0)];
        let freq = probe.config().tandem.freq_ghz;
        let sd = probe.estimate_demand(catalog.graph(5)); // BERT-base
        let bert_demand = sd.dram_bytes as f64 / (sd.total_cycles as f64 / freq);
        let mut cfg = streaming.clone();
        cfg.hbm_gbps = Some((2.0 * bert_demand * 100.0).round() / 100.0);
        let cap = FLEET as f64 * 1e9 / mean_service_ns(&probe, &catalog, &bert_mix);
        let fleet = Fleet::with_members(cfg, pool.clone());
        let spec = WorkloadSpec {
            mix: bert_mix,
            arrival: ArrivalProcess::Poisson {
                rate_rps: 1.5 * cap,
            },
            seed: 42,
            requests: n_contended,
        };
        rows.push(run_scenario(
            "bert_contended",
            &fleet,
            &catalog,
            &spec,
            Policy::BatchCoalesce,
        ));
    }

    // Scenario 3 — the long-horizon diurnal trace: mean offered load at
    // fleet capacity, swinging 0.6×–1.4× over four day-night cycles,
    // with a flash crowd at fleet capacity on top for 2% of the horizon
    // starting mid-trace. Windowed rollups on (200 windows), per-event
    // samples off — memory is bounded by the horizon, not the request
    // count.
    {
        let horizon_s = n_diurnal as f64 / mixed_cap;
        let horizon_ns = (horizon_s * 1e9) as u64;
        let mut cfg = streaming.clone();
        cfg.rollup_window_ns = Some((horizon_ns / 200).max(1));
        let fleet = Fleet::with_members(cfg, pool.clone());
        let spec = WorkloadSpec {
            mix: mixed_mix,
            arrival: ArrivalProcess::Diurnal {
                base_rps: 0.6 * mixed_cap,
                peak_rps: 1.4 * mixed_cap,
                period_ns: (horizon_ns / 4).max(1),
                flash_at_ns: horizon_ns / 2,
                flash_ns: horizon_ns / 50,
                flash_rps: mixed_cap,
            },
            seed: 42,
            requests: n_diurnal,
        };
        rows.push(run_scenario(
            "diurnal_10m",
            &fleet,
            &catalog,
            &spec,
            Policy::Fifo,
        ));
    }

    // Scenario 4 — GPT-2 continuous batching through the
    // iteration-level LLM engine, streaming statistics on. Each request
    // is dozens of decode iterations, so the meaningful throughput is
    // decoded tokens per wall-second.
    {
        let spec_model = LlmModelSpec::gpt2(16, 64);
        let t_tables = Instant::now();
        let tables = DecodeModel::build(&spec_model, &pool);
        let tables_s = t_tables.elapsed().as_secs_f64();
        let t_warm = Instant::now();
        let warm = DecodeModel::build(&spec_model, &pool);
        let warm_tables_s = t_warm.elapsed().as_secs_f64();
        assert!(
            warm == tables,
            "a warm DecodeModel::build must return the cold build's tables"
        );
        let mut wl = LlmWorkloadSpec {
            rate_rps: 0.0,
            requests: n_llm,
            seed: 42,
            prompt_tokens: (8, 24),
            output_tokens: (4, 32),
            latency_fraction: 0.25,
        };
        wl.rate_rps = 1.2 * FLEET as f64 * 1e9 / tables.mean_request_ns(0, &wl);
        let requests = wl.generate();
        let cfg = LlmConfig::new(streaming.clone(), LlmMode::Continuous);
        let engine = LlmFleet::new(cfg, &tables);
        let rss_before_kb = proc_status_kb("VmRSS:");
        let t0 = Instant::now();
        let report = engine.serve(&requests);
        let wall_s = t0.elapsed().as_secs_f64();
        assert!(
            report.records.is_empty() && report.queue_depth_samples.is_empty(),
            "retain_records=off must not retain per-request state"
        );
        let tokens_out = report.llm.as_ref().map(|l| l.tokens_out).unwrap_or(0);
        let rss_after_kb = proc_status_kb("VmRSS:");
        rows.push(Row {
            name: "llm_decode",
            requests: report.offered,
            completed: report.completed,
            dropped: report.dropped,
            wall_s,
            rps: report.offered as f64 / wall_s.max(1e-9),
            peak_rss_mb: proc_status_kb("VmHWM:") as f64 / 1024.0,
            rss_growth_mb: rss_after_kb.saturating_sub(rss_before_kb) as f64 / 1024.0,
            tokens_out,
            tok_ps: tokens_out as f64 / wall_s.max(1e-9),
            tables_s,
            warm_tables_s,
        });
    }

    println!(
        "{:<15} {:>11} {:>11} {:>9} {:>8} {:>12} {:>9} {:>8} {:>9} {:>9}",
        "scenario",
        "requests",
        "completed",
        "dropped",
        "wall s",
        "req/s",
        "rss MB",
        "Δrss MB",
        "tables s",
        "warm s"
    );
    for r in &rows {
        let (tables, warm) = if r.tokens_out > 0 {
            (
                format!("{:.3}", r.tables_s),
                format!("{:.6}", r.warm_tables_s),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        println!(
            "{:<15} {:>11} {:>11} {:>9} {:>8.3} {:>12.0} {:>9.1} {:>8.1} {:>9} {:>9}",
            r.name,
            r.requests,
            r.completed,
            r.dropped,
            r.wall_s,
            r.rps,
            r.peak_rss_mb,
            r.rss_growth_mb,
            tables,
            warm,
        );
    }
    // The LLM row is excluded from the req/s floor — its unit of work
    // is the decode iteration, guarded by its own tokens/sec floor.
    let min_rps = rows
        .iter()
        .filter(|r| r.tokens_out == 0)
        .map(|r| r.rps)
        .fold(f64::INFINITY, f64::min);
    let llm_tok_ps = rows
        .iter()
        .find(|r| r.tokens_out > 0)
        .map(|r| r.tok_ps)
        .unwrap_or(f64::INFINITY);
    println!(
        "\nmode {}: slowest scenario {min_rps:.0} req/s (smoke floor {floor_rps:.0}), \
         llm {llm_tok_ps:.0} tok/s (smoke floor {floor_llm_tok_ps:.0})",
        if smoke { "smoke" } else { "full" },
    );

    let mut json = String::from("{\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",\n  \"smoke_floor_rps\": {floor_rps:.0},\n  \
         \"smoke_floor_llm_tok_ps\": {floor_llm_tok_ps:.0},\n  \"scenarios\": [",
        if smoke { "smoke" } else { "full" }
    );
    for (i, r) in rows.iter().enumerate() {
        let llm_fields = if r.tokens_out > 0 {
            format!(
                ", \"tokens_out\": {}, \"tok_ps\": {:.0}, \"tables_s\": {:.4}, \
                 \"warm_tables_s\": {:.6}",
                r.tokens_out, r.tok_ps, r.tables_s, r.warm_tables_s
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"requests\": {}, \"completed\": {}, \"dropped\": {}, \
             \"wall_s\": {:.4}, \"rps\": {:.0}, \"peak_rss_mb\": {:.1}, \
             \"rss_growth_mb\": {:.1}{}}}{}",
            r.name,
            r.requests,
            r.completed,
            r.dropped,
            r.wall_s,
            r.rps,
            r.peak_rss_mb,
            r.rss_growth_mb,
            llm_fields,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_SERVE.json");
    println!("wrote {out_path}");

    if smoke {
        assert!(
            min_rps >= floor_rps,
            "bench_serve regression: {min_rps:.0} req/s is below the committed floor of \
             {floor_rps:.0} req/s — the streaming engine got slower"
        );
        assert!(
            llm_tok_ps >= floor_llm_tok_ps,
            "bench_serve regression: {llm_tok_ps:.0} tok/s is below the committed floor of \
             {floor_llm_tok_ps:.0} tok/s — the LLM decode engine got slower"
        );
    }
}

/// The floor used when no committed baseline is found: the committed
/// `smoke_floor_rps`, 2.97x below the 1.69M req/s median slowest
/// scenario of 24 smoke runs on a 2-vCPU host (0.92M–2.72M across them).
const DEFAULT_FLOOR_RPS: f64 = 570_000.0;

/// The tokens/sec floor for the `llm_decode` scenario when no committed
/// baseline carries one: the committed `smoke_floor_llm_tok_ps`, 2.99x
/// below the 6.87M tok/s median of the same 24 runs.
const DEFAULT_FLOOR_LLM_TOK_PS: f64 = 2_300_000.0;
