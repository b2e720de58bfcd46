//! Integration tests for the LLM serving subsystem: continuous batching
//! beats the static baseline, preemption checkpoints without losing
//! tokens, accounting identities hold exactly, and the sweep renders
//! byte-deterministically across runs and `--jobs` settings.

use std::sync::atomic::{AtomicUsize, Ordering};
use tandem_fleet::llm::{
    llm_summary, llm_sweep, render_llm_serve_json, DecodeModel, LlmConfig, LlmFleet, LlmMode,
    LlmModelSpec, LlmRequest, LlmSweepSpec, LlmWorkloadSpec,
};
use tandem_fleet::FleetConfig;
use tandem_model::{Graph, GraphBuilder};
use tandem_npu::{Despecialization, Npu, NpuConfig};

/// A deliberately tiny "LLM": one projection + a cache-sized attention
/// contraction, so the cost tables build in milliseconds while still
/// growing with context the way a real decode step does.
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
    // The KV pages: resident weights whose size tracks the context.
    let kv = b.weight([ctx, 32]);
    let kt = b.transpose(kv, &[1, 0]);
    let scores = b.matmul(q, kt);
    let p = b.softmax(scores, -1);
    let o = b.matmul(p, kv);
    b.output(o);
    b.finish()
}

fn micro_model() -> LlmModelSpec {
    LlmModelSpec {
        name: "micro".to_string(),
        prefill: micro_prefill,
        decode_step: micro_step,
        block_tokens: 4,
        max_context: 64,
    }
}

fn workload(rate_rps: f64) -> LlmWorkloadSpec {
    LlmWorkloadSpec {
        rate_rps,
        requests: 160,
        seed: 0x11a_5eed,
        prompt_tokens: (4, 16),
        output_tokens: (4, 24),
        latency_fraction: 0.25,
    }
}

/// Offered rate at `x`× one member's solo capacity for this workload.
fn calibrated_rate(x: f64) -> f64 {
    let pool = Npu::fleet(&vec![NpuConfig::paper(); 1]);
    let tables = DecodeModel::build(&micro_model(), &pool);
    x * 1e9 / tables.mean_request_ns(0, &workload(0.0))
}

fn serve_mode(
    mode: LlmMode,
    wl: &LlmWorkloadSpec,
    edit: impl FnOnce(&mut LlmConfig),
) -> tandem_fleet::FleetReport {
    let pool = Npu::fleet(&vec![NpuConfig::paper(); 2]);
    let tables = DecodeModel::build(&micro_model(), &pool);
    let mut cfg = LlmConfig::new(FleetConfig::homogeneous(NpuConfig::paper(), 2), mode);
    edit(&mut cfg);
    LlmFleet::new(cfg, &tables).serve(&wl.generate())
}

#[test]
fn continuous_batching_beats_static_on_ttft_and_tokens_per_s() {
    let spec = LlmSweepSpec {
        template: LlmConfig::new(
            FleetConfig::homogeneous(NpuConfig::paper(), 1),
            LlmMode::Continuous,
        ),
        fleet_sizes: vec![1, 2],
        modes: LlmMode::ALL.to_vec(),
        workload: workload(calibrated_rate(1.5)),
    };
    let rows = llm_sweep(&micro_model(), &spec, 0);
    assert_eq!(rows.len(), 6); // 3 modes × 2 sizes
    for r in &rows {
        assert_eq!(r.completed, 160);
        assert_eq!(r.dropped + r.timed_out, 0);
        let l = r.llm.as_ref().expect("LLM runs carry llm stats");
        assert!(l.tokens_out > 0 && l.iterations > 0);
        assert_eq!(l.prefills as usize, 160 + l.resumes as usize);
    }
    let summary = llm_summary(&rows);
    assert_eq!(summary.len(), 2, "both fleet sizes must be summarized");
    for s in &summary {
        assert!(
            s.ttft_p99_win > 1.0,
            "continuous must beat static on p99 TTFT at fleet size {}: win {:.3}",
            s.fleet_size,
            s.ttft_p99_win
        );
        assert!(
            s.tokens_per_s_win > 1.0,
            "continuous must beat static on tokens/s at fleet size {}: win {:.3}",
            s.fleet_size,
            s.tokens_per_s_win
        );
    }
}

#[test]
fn latency_identity_and_token_conservation_hold_in_every_mode() {
    let wl = workload(calibrated_rate(1.2));
    let requests = wl.generate();
    let offered_tokens: u64 = requests.iter().map(|r| r.output_tokens as u64).sum();
    for mode in LlmMode::ALL {
        let report = serve_mode(mode, &wl, |_| {});
        assert_eq!(report.completed, requests.len() as u64, "{}", mode.name());
        let l = report.llm.as_ref().unwrap();
        // Preemption checkpoints; it never discards decoded tokens.
        assert_eq!(l.tokens_out, offered_tokens, "{}", mode.name());
        assert_eq!(l.preemptions, l.resumes, "{}", mode.name());
        assert!(l.max_batch_seen <= 8);
        assert_eq!(l.per_request.len(), requests.len());
        for (rec, lr) in report.records.iter().zip(&l.per_request) {
            assert_eq!(rec.id, lr.id);
            // The exact decomposition the fleet-wide contract promises.
            assert_eq!(
                rec.latency_ns(),
                rec.queue_ns + rec.warmup_ns + rec.service_ns + rec.mem_stall_ns
            );
            assert_eq!(rec.mem_stall_ns, 0, "no stalls without an HBM budget");
            // No token is emitted before the request's TTFT, and the
            // first token can't precede arrival or follow completion.
            assert!(lr.ttft_ns <= rec.latency_ns());
            assert_eq!(lr.tokens as usize, requests[rec.id as usize].output_tokens);
            if lr.tokens == 1 {
                // Single-token requests finish at their first token.
                assert_eq!(lr.ttft_ns, rec.latency_ns());
            }
        }
        if mode != LlmMode::Preemptive {
            assert_eq!(l.preemptions, 0, "only the preemptive mode preempts");
        }
    }
}

#[test]
fn preemption_cuts_interactive_ttft_without_losing_tokens() {
    let pool = Npu::fleet(&vec![NpuConfig::paper(); 1]);
    let tables = DecodeModel::build(&micro_model(), &pool);
    // One long batch request hogging the single slot, then an
    // interactive request arriving mid-decode.
    let interactive_at = tables.prefill_ns(0, 4) + 2 * tables.step_ns(0, 8);
    let requests = vec![
        LlmRequest {
            id: 0,
            arrival_ns: 1,
            prompt_tokens: 4,
            output_tokens: 48,
            latency_class: false,
        },
        LlmRequest {
            id: 1,
            arrival_ns: 1 + interactive_at,
            prompt_tokens: 4,
            output_tokens: 1,
            latency_class: true,
        },
    ];
    let run = |mode: LlmMode| {
        let mut cfg = LlmConfig::new(FleetConfig::homogeneous(NpuConfig::paper(), 1), mode);
        cfg.fleet.max_batch = 1; // force the conflict
        LlmFleet::new(cfg, &tables).serve(&requests)
    };
    let cont = run(LlmMode::Continuous);
    let pre = run(LlmMode::Preemptive);
    let (cl, pl) = (cont.llm.as_ref().unwrap(), pre.llm.as_ref().unwrap());
    assert_eq!(cl.preemptions, 0);
    assert!(pl.preemptions >= 1, "the hog must be checkpointed");
    assert_eq!(pl.preemptions, pl.resumes);
    // The checkpointed request still delivers every token.
    assert_eq!(pl.per_request[0].tokens, 48);
    assert!(pl.per_request[0].preemptions >= 1);
    assert_eq!(pl.tokens_out, 49);
    // And the interactive request's TTFT collapses vs waiting out the hog.
    let ttft = |r: &tandem_fleet::FleetReport| r.llm.as_ref().unwrap().per_request[1].ttft_ns;
    assert!(
        ttft(&pre) * 2 < ttft(&cont),
        "preemptive TTFT {} vs continuous {}",
        ttft(&pre),
        ttft(&cont)
    );
    // The resume re-warm is charged as warm-up on the victim.
    assert!(pre.records[0].warmup_ns > cont.records[0].warmup_ns);
}

#[test]
fn hbm_contention_stretches_iterations_but_identities_survive() {
    let wl = workload(calibrated_rate(1.3));
    let free = serve_mode(LlmMode::Continuous, &wl, |_| {});
    let tight = serve_mode(LlmMode::Continuous, &wl, |cfg| {
        cfg.fleet.hbm_gbps = Some(0.05);
    });
    assert_eq!(free.hbm_gbps, None);
    assert_eq!(tight.hbm_gbps, Some(0.05));
    assert!(
        tight.per_npu.iter().map(|u| u.mem_stall_ns).sum::<u64>() > 0,
        "a starved budget must stall"
    );
    assert!(tight.makespan_ns >= free.makespan_ns);
    for rec in &tight.records {
        assert_eq!(
            rec.latency_ns(),
            rec.queue_ns + rec.warmup_ns + rec.service_ns + rec.mem_stall_ns
        );
    }
    assert!(tight.llm.as_ref().unwrap().ttft.p99_ns >= free.llm.as_ref().unwrap().ttft.p99_ns);
}

#[test]
fn streaming_mode_matches_exact_counts_with_flat_memory() {
    let wl = workload(calibrated_rate(1.2));
    let exact = serve_mode(LlmMode::Preemptive, &wl, |_| {});
    let stream = serve_mode(LlmMode::Preemptive, &wl, |cfg| {
        cfg.fleet.retain_records = false;
    });
    assert!(stream.records.is_empty() && stream.queue_depth_samples.is_empty());
    let (e, s) = (exact.llm.as_ref().unwrap(), stream.llm.as_ref().unwrap());
    assert!(s.per_request.is_empty());
    // Counters are exact in both modes; only percentiles sketch.
    assert_eq!(e.tokens_out, s.tokens_out);
    assert_eq!(e.iterations, s.iterations);
    assert_eq!(e.preemptions, s.preemptions);
    assert_eq!(e.ttft.count, s.ttft.count);
    assert_eq!(e.ttft.max_ns, s.ttft.max_ns);
    assert_eq!(exact.makespan_ns, stream.makespan_ns);
    // Sketch percentiles stay within the advertised 1/32 relative error.
    let err = (e.ttft.p99_ns as f64 - s.ttft.p99_ns as f64).abs() / e.ttft.p99_ns as f64;
    assert!(err <= 1.0 / 32.0 + 1e-9, "sketch p99 error {err}");
}

#[test]
fn sweep_json_is_byte_identical_across_runs_and_jobs() {
    let spec = LlmSweepSpec {
        template: LlmConfig::new(
            FleetConfig::homogeneous(NpuConfig::paper(), 1),
            LlmMode::Continuous,
        ),
        fleet_sizes: vec![1, 2],
        modes: LlmMode::ALL.to_vec(),
        workload: workload(calibrated_rate(1.5)),
    };
    let render = |jobs: usize| {
        let rows = llm_sweep(&micro_model(), &spec, jobs);
        let summary = llm_summary(&rows);
        render_llm_serve_json(&rows, &summary)
    };
    let serial = render(1);
    assert_eq!(serial, render(4), "JSON must not depend on --jobs");
    assert_eq!(serial, render(1), "JSON must not depend on cache warmth");
    assert!(serial.starts_with("{\n  \"llm\": [\n"));
    assert!(serial.contains("\"llm_summary\": ["));
    assert!(serial.contains("\"ttft_p99_win\""));
    assert!(serial.ends_with("\n  ]\n}\n"));
}

/// The LLM engine's iteration boundaries go through the same checked
/// completion-time helper as the whole-graph engine: a vanishing HBM
/// budget parks the stretched iterations at the virtual-time horizon
/// instead of overflowing the clock, and the identities survive.
#[test]
fn vanishing_budget_parks_iterations_at_the_horizon() {
    let wl = LlmWorkloadSpec {
        requests: 24,
        ..workload(calibrated_rate(1.3))
    };
    let offered_tokens: u64 = wl.generate().iter().map(|r| r.output_tokens as u64).sum();
    for mode in LlmMode::ALL {
        let report = serve_mode(mode, &wl, |cfg| cfg.fleet.hbm_gbps = Some(1e-300));
        assert_eq!(report.completed, 24, "{}", mode.name());
        assert_eq!(report.llm.as_ref().unwrap().tokens_out, offered_tokens);
        assert!(report.makespan_ns > u64::MAX / 4, "{}", mode.name());
        for rec in &report.records {
            assert_eq!(
                rec.latency_ns(),
                rec.queue_ns + rec.warmup_ns + rec.service_ns + rec.mem_stall_ns
            );
        }
    }
}

/// Graphs built by [`counted_prefill`] and [`counted_step`], which only
/// [`warm_table_build_constructs_no_graph`] uses.
static COUNTED_BUILDS: AtomicUsize = AtomicUsize::new(0);

fn counted_prefill(seq: usize) -> Graph {
    COUNTED_BUILDS.fetch_add(1, Ordering::Relaxed);
    micro_prefill(seq)
}

fn counted_step(ctx: usize) -> Graph {
    COUNTED_BUILDS.fetch_add(1, Ordering::Relaxed);
    micro_step(ctx)
}

#[test]
fn warm_table_build_constructs_no_graph() {
    let spec = LlmModelSpec {
        prefill: counted_prefill,
        decode_step: counted_step,
        ..micro_model()
    };
    let pool = Npu::fleet(&vec![NpuConfig::paper(); 2]);
    let cold = DecodeModel::build(&spec, &pool);
    // The second member shares the first one's row.
    assert_eq!(COUNTED_BUILDS.load(Ordering::Relaxed), 2 * cold.blocks());
    let before = pool[0].stats();
    let warm = DecodeModel::build(&spec, &pool);
    let d = pool[0].stats().delta(&before);
    assert_eq!(warm, cold, "a warm build returns the cold tables");
    assert_eq!(COUNTED_BUILDS.load(Ordering::Relaxed), 2 * cold.blocks());
    assert_eq!(
        (d.graph_hits, d.graph_misses, d.sim_misses),
        (0, 0, 0),
        "{d:?}"
    );
}

/// The demand memo names a graph by its builder, not by the spec: two
/// specs sharing a name but not their builders get their own tables.
#[test]
fn specs_with_one_name_and_different_builders_get_their_own_tables() {
    let spec = micro_model();
    let swapped = LlmModelSpec {
        prefill: spec.decode_step,
        decode_step: spec.prefill,
        ..spec.clone()
    };
    assert_eq!(spec.name, swapped.name);
    let pool = Npu::fleet(&vec![NpuConfig::paper(); 2]);
    let tables = DecodeModel::build(&spec, &pool);
    let swapped_tables = DecodeModel::build(&swapped, &pool);
    assert_ne!(tables, swapped_tables);
    let fresh =
        |spec: &LlmModelSpec| DecodeModel::build(spec, &Npu::fleet(&vec![NpuConfig::paper(); 2]));
    assert_eq!(tables, fresh(&spec));
    assert_eq!(swapped_tables, fresh(&swapped));
}

#[test]
fn uncached_members_build_the_cached_tables() {
    let pool = Npu::fleet(&vec![NpuConfig::paper(); 2]);
    let cold = DecodeModel::build(&micro_model(), &pool);
    let warm = DecodeModel::build(&micro_model(), &pool);
    let uncached = vec![Npu::uncached(NpuConfig::paper()); 2];
    let reference = DecodeModel::build(&micro_model(), &uncached);
    assert_eq!(cold, reference);
    assert_eq!(warm, reference);
}

/// A sibling on the same caches under other knobs must not read the
/// paper machine's demands: the config digest is part of the key.
#[test]
fn sibling_with_other_knobs_gets_its_own_tables() {
    let pool = Npu::fleet(&[NpuConfig::paper()]);
    let paper = DecodeModel::build(&micro_model(), &pool);
    let mut cfg = NpuConfig::paper();
    cfg.knobs = Despecialization::vpu_like();
    let sibling = DecodeModel::build(&micro_model(), &[pool[0].sibling(cfg.clone())]);
    let fresh = DecodeModel::build(&micro_model(), &[Npu::new(cfg)]);
    assert_eq!(sibling, fresh);
    assert_ne!(sibling.step_ns(0, 4), paper.step_ns(0, 4));
}
