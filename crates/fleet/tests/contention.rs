//! Metamorphic tests for the shared-HBM contention model.
//!
//! The properties here pin the *relationship* between runs rather than
//! absolute numbers: an unlimited budget must reproduce the
//! pre-contention engine byte-for-byte, an under-subscribed finite
//! budget must reproduce its exact virtual timing (stalls all zero),
//! and shrinking the budget must never make any request faster.

use tandem_fleet::{ArrivalProcess, Catalog, Fleet, FleetConfig, Policy, WorkloadSpec};
use tandem_model::zoo::Benchmark;
use tandem_npu::{Npu, NpuConfig};

fn serving_catalog() -> Catalog {
    let mut c = Catalog::new();
    for b in [Benchmark::Resnet50, Benchmark::Bert, Benchmark::Gpt2] {
        c.add(b.name(), b.graph());
    }
    c
}

fn oversubscribed_rate(catalog: &Catalog, mix: &[(usize, f64)], size: usize, factor: f64) -> f64 {
    let probe = Npu::new(NpuConfig::paper());
    let freq = probe.config().tandem.freq_ghz;
    let total: f64 = mix.iter().map(|&(_, w)| w).sum();
    let mean_ns: f64 = mix
        .iter()
        .map(|&(m, w)| probe.estimate(catalog.graph(m)) as f64 / freq * w / total)
        .sum();
    factor * size as f64 * 1e9 / mean_ns
}

fn mixed_spec(catalog: &Catalog, size: usize, seed: u64, requests: usize) -> WorkloadSpec {
    let mix: Vec<(usize, f64)> = vec![(0, 1.0), (1, 1.0), (2, 1.0)];
    let rate = oversubscribed_rate(catalog, &mix, size, 1.3);
    WorkloadSpec {
        mix,
        arrival: ArrivalProcess::Poisson { rate_rps: rate },
        seed,
        requests,
    }
}

/// `hbm_gbps: Some(∞)` (and any non-positive budget) must be
/// indistinguishable from `None`: same engine path, byte-identical
/// report JSON — the acceptance gate that PR-4 fleets are untouched.
#[test]
fn unlimited_budgets_reproduce_the_plain_engine_byte_for_byte() {
    let catalog = serving_catalog();
    let spec = mixed_spec(&catalog, 2, 42, 40);
    let plain = Fleet::new(FleetConfig::homogeneous(NpuConfig::paper(), 2))
        .serve(&catalog, &spec, Policy::BatchCoalesce)
        .to_json();
    for budget in [f64::INFINITY, f64::NAN, 0.0, -4.0] {
        let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 2);
        cfg.hbm_gbps = Some(budget);
        let report = Fleet::new(cfg).serve(&catalog, &spec, Policy::BatchCoalesce);
        assert_eq!(
            report.to_json(),
            plain,
            "budget {budget:?} must behave as unlimited"
        );
    }
}

/// A finite budget large enough that the fleet can never oversubscribe
/// it takes the contended engine path yet reproduces the uncontended
/// virtual timing exactly — nanosecond for nanosecond, zero stalls.
#[test]
fn under_subscribed_finite_budget_matches_uncontended_timing_exactly() {
    let catalog = serving_catalog();
    for policy in Policy::ALL {
        let spec = mixed_spec(&catalog, 3, 11, 48);
        let plain = Fleet::new(FleetConfig::homogeneous(NpuConfig::paper(), 3))
            .serve(&catalog, &spec, policy);
        let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 3);
        // 3 links × 16 GB/s can demand at most 48 GB/s; 64 never binds.
        cfg.hbm_gbps = Some(64.0);
        let wide = Fleet::new(cfg).serve(&catalog, &spec, policy);
        assert_eq!(wide.hbm_gbps, Some(64.0));
        assert_eq!(wide.completed, plain.completed, "{policy:?}");
        assert_eq!(wide.makespan_ns, plain.makespan_ns, "{policy:?}");
        for (w, p) in wide.records.iter().zip(&plain.records) {
            assert_eq!(w.mem_stall_ns, 0, "{policy:?}: request {}", w.id);
            assert_eq!(
                (w.id, w.model, w.npu, w.batch),
                (p.id, p.model, p.npu, p.batch)
            );
            assert_eq!(
                (w.queue_ns, w.warmup_ns, w.service_ns, w.completion_ns),
                (p.queue_ns, p.warmup_ns, p.service_ns, p.completion_ns),
                "{policy:?}: request {} timing must be bit-equal",
                w.id
            );
        }
    }
}

/// A single-NPU fleet whose budget covers its whole private link can
/// never be throttled: demand is capped at the link, so `mem_stall_ns`
/// is zero everywhere.
#[test]
fn single_npu_with_budget_at_link_never_stalls() {
    let catalog = serving_catalog();
    let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 1);
    cfg.hbm_gbps = Some(16.0); // == the paper point's derived link
    let spec = mixed_spec(&catalog, 1, 5, 24);
    let report = Fleet::new(cfg).serve(&catalog, &spec, Policy::Fifo);
    assert_eq!(report.completed + report.dropped + report.timed_out, 24);
    assert!(report.records.iter().all(|r| r.mem_stall_ns == 0));
    assert_eq!(report.mem_stall.max_ns, 0);
    assert!(report.per_npu.iter().all(|u| u.mem_stall_ns == 0));
}

/// Halving the shared budget never makes any request faster (FIFO keeps
/// the dispatch order stable, so requests are comparable one-to-one).
#[test]
fn halving_the_budget_never_decreases_any_latency() {
    let catalog = serving_catalog();
    let spec = mixed_spec(&catalog, 4, 77, 64);
    let run = |budget: Option<f64>| {
        let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 4);
        cfg.hbm_gbps = budget;
        Fleet::new(cfg).serve(&catalog, &spec, Policy::Fifo)
    };
    let mut prev = run(None);
    for budget in [16.0, 8.0, 4.0] {
        let next = run(Some(budget));
        assert_eq!(next.completed, prev.completed);
        for (n, p) in next.records.iter().zip(&prev.records) {
            assert_eq!(n.id, p.id);
            assert!(
                n.latency_ns() >= p.latency_ns(),
                "request {} got faster ({} < {} ns) when the budget halved to {budget}",
                n.id,
                n.latency_ns(),
                p.latency_ns()
            );
        }
        prev = next;
    }
}

/// The headline: a BERT-heavy fleet on a finite budget shows strictly
/// higher p99 and nonzero memory stalls, with the four-term latency
/// decomposition holding exactly for every request.
#[test]
fn finite_budget_raises_p99_and_charges_stalls_on_a_bert_heavy_fleet() {
    let catalog = serving_catalog();
    let mix: Vec<(usize, f64)> = vec![(1, 8.0), (0, 1.0), (2, 1.0)];
    let rate = oversubscribed_rate(&catalog, &mix, 4, 1.5);
    let spec = WorkloadSpec {
        mix,
        arrival: ArrivalProcess::Poisson { rate_rps: rate },
        seed: 42,
        requests: 64,
    };
    let run = |budget: Option<f64>| {
        let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 4);
        cfg.hbm_gbps = budget;
        Fleet::new(cfg).serve(&catalog, &spec, Policy::BatchCoalesce)
    };
    let unlimited = run(None);
    // Aggregate solo demand of 4 serving members is ~18-26 GB/s here; an
    // 8 GB/s stack is chronically oversubscribed.
    let tight = run(Some(8.0));
    assert_eq!(tight.hbm_gbps, Some(8.0));
    assert!(
        tight.latency.p99_ns > unlimited.latency.p99_ns,
        "contention must raise p99 ({} !> {})",
        tight.latency.p99_ns,
        unlimited.latency.p99_ns
    );
    let stalled: u64 = tight.per_npu.iter().map(|u| u.mem_stall_ns).sum();
    assert!(stalled > 0, "an oversubscribed stack must charge stalls");
    assert!(tight.mem_stall.max_ns > 0);
    assert!(tight.records.iter().any(|r| r.mem_stall_ns > 0));
    for r in &tight.records {
        assert_eq!(
            r.latency_ns(),
            r.queue_ns + r.warmup_ns + r.service_ns + r.mem_stall_ns,
            "request {} must decompose into four exact components",
            r.id
        );
    }
    // The report carries the new per-NPU columns.
    for u in &tight.per_npu {
        assert!(u.dram_bytes > 0);
        assert!(u.achieved_gbps() > 0.0);
    }
    let json = tight.to_json();
    assert!(json.contains("\"hbm_gbps\": 8.00"));
    assert!(json.contains("\"mem_stall_ms\""));
    assert!(json.contains("\"achieved_gbps\""));
    // And the unlimited report does not (byte-compatibility with PR-4).
    let plain = unlimited.to_json();
    assert!(!plain.contains("hbm_gbps"));
    assert!(!plain.contains("mem_stall_ms"));
}

/// A vanishing budget drives the fair-share progress rate toward zero,
/// and `remaining / rate` outgrows the `u64` nanosecond clock. The
/// engine must neither overflow (a debug panic, a silent wrap in
/// release) nor break the latency identity: the stretched completion
/// lands at the virtual-time horizon and every later one at its nominal
/// end. The pinned numbers are the same in debug and release builds.
#[test]
fn vanishing_budget_parks_completions_at_the_horizon() {
    let mut catalog = Catalog::new();
    catalog.add(Benchmark::Resnet50.name(), Benchmark::Resnet50.graph());
    let spec = WorkloadSpec {
        mix: vec![(0, 1.0)],
        arrival: ArrivalProcess::Poisson {
            rate_rps: oversubscribed_rate(&catalog, &[(0, 1.0)], 2, 1.2),
        },
        seed: 5,
        requests: 50,
    };
    let mut cfg = FleetConfig::homogeneous(NpuConfig::paper(), 2);
    cfg.hbm_gbps = Some(1e-300);
    let report = Fleet::new(cfg).serve(&catalog, &spec, Policy::Fifo);
    assert_eq!(report.completed, 50);
    let horizon = u64::MAX / 4;
    let stalled: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.mem_stall_ns > 0)
        .collect();
    // The two requests in service when the budget bites are stretched
    // to the horizon; everything dispatched after it runs at its
    // nominal speed.
    assert_eq!(stalled.len(), 2);
    assert!(stalled.iter().all(|r| r.completion_ns == horizon));
    for r in &report.records {
        assert_eq!(
            r.latency_ns(),
            r.queue_ns + r.warmup_ns + r.service_ns + r.mem_stall_ns
        );
        assert!(r.completion_ns >= r.arrival_ns + r.warmup_ns + r.service_ns);
    }
    // The horizon plus the nominal tail of the 48 later requests, to the
    // nanosecond, in both build profiles.
    assert_eq!(report.makespan_ns, 4_611_686_018_608_144_959);
}
