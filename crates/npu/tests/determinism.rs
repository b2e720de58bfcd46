//! The caching/parallelism contract: caches and threads change wall-time
//! only — every modeled number (cycles, energy, DRAM traffic, per-kind
//! breakdowns) is bit-identical to the cold, serial, uncached path.

use std::collections::BTreeMap;
use tandem_model::zoo::{self, Benchmark};
use tandem_model::Graph;
use tandem_npu::{
    par_map, run_matrix, DesignPoint, Npu, NpuConfig, Schedule, TileChoice, TileGranularity,
};

/// Asserts the full architectural equality plus the headline scalars
/// (spelled out so a failure names the number that moved).
fn assert_identical(a: &tandem_npu::NpuReport, b: &tandem_npu::NpuReport, what: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: total_cycles");
    assert_eq!(
        a.total_energy_nj().to_bits(),
        b.total_energy_nj().to_bits(),
        "{what}: total_energy_nj"
    );
    assert_eq!(
        a.per_kind_cycles, b.per_kind_cycles,
        "{what}: per-kind cycles"
    );
    assert_eq!(a, b, "{what}: full report");
}

#[test]
fn warm_run_equals_cold_run() {
    for bench in Benchmark::ALL {
        let name = bench.name();
        let graph = bench.graph();
        let uncached = Npu::uncached(NpuConfig::paper()).run(&graph);
        let npu = Npu::new(NpuConfig::paper());
        let cold = npu.run(&graph);
        let warm = (0..3)
            .map(|_| npu.run(&graph))
            .min_by(|a, b| a.stats.wall_s.total_cmp(&b.stats.wall_s))
            .expect("three warm runs");
        assert_identical(&cold, &uncached, &format!("{name}: cold"));
        assert_identical(&warm, &uncached, &format!("{name}: warm"));
        assert!(
            cold.stats.sim_misses > 0,
            "{name}: cold run must simulate something"
        );
        assert_eq!(
            warm.stats.sim_misses, 0,
            "{name}: warm run must hit the simulation cache everywhere"
        );
        assert!(warm.stats.hit_rate() > 0.99, "{name}: warm hit rate");
        // A warm run is one graph-cache hit: measured at several hundred
        // times faster than the uncached path, so a 2x bar is noise-proof.
        if matches!(bench, Benchmark::Resnet50 | Benchmark::Bert) {
            assert!(
                uncached.stats.wall_s >= 2.0 * warm.stats.wall_s,
                "{name}: warm {:?} s not 2x faster than uncached {:?} s",
                warm.stats.wall_s,
                uncached.stats.wall_s
            );
        }
    }
}

#[test]
fn cached_run_equals_uncached_run() {
    for (name, graph) in [
        ("mobilenetv2", zoo::mobilenetv2()),
        ("bert_base", zoo::bert_base(32)),
    ] {
        let cached = Npu::new(NpuConfig::paper()).run(&graph);
        let uncached = Npu::uncached(NpuConfig::paper()).run(&graph);
        assert_identical(&cached, &uncached, name);
        assert_eq!(
            uncached.stats.lookups(),
            0,
            "{name}: uncached run looked up a cache"
        );
    }
}

#[test]
fn caches_respect_knobs_and_granularity() {
    // One shared-cache NPU per config — knob/granularity changes must not
    // alias in the cache key space.
    let mut layer_cfg = NpuConfig::paper();
    layer_cfg.granularity = TileGranularity::Layer;
    let mut knob_cfg = NpuConfig::paper();
    knob_cfg.knobs.branch_loops = true;
    let graph = zoo::mobilenetv2();
    for (name, cfg) in [("layer", layer_cfg), ("branch_loops", knob_cfg)] {
        let cached = Npu::new(cfg.clone()).run(&graph);
        let uncached = Npu::uncached(cfg).run(&graph);
        assert_identical(&cached, &uncached, name);
        assert_ne!(
            cached.total_cycles,
            Npu::uncached(NpuConfig::paper()).run(&graph).total_cycles,
            "{name}: config change must actually change the model"
        );
    }
}

#[test]
fn run_many_matches_serial_runs() {
    let graphs: Vec<Graph> = Benchmark::ALL.iter().map(|b| b.graph()).collect();
    let refs: Vec<&Graph> = graphs.iter().collect();
    let npu = Npu::new(NpuConfig::paper());
    let cold = npu.run_many(&refs);
    let warm = npu.run_many(&refs);
    let serial: Vec<_> = graphs
        .iter()
        .map(|g| Npu::uncached(NpuConfig::paper()).run(g))
        .collect();
    assert_eq!(cold.len(), serial.len());
    for (i, ((c, w), s)) in cold.iter().zip(&warm).zip(&serial).enumerate() {
        assert_identical(c, s, &format!("cold graph {i}"));
        assert_identical(w, s, &format!("warm graph {i}"));
    }
}

#[test]
fn parallel_runs_count_the_cache_traffic_of_serial_runs() {
    // Each model twice, so two workers start on the same graph at once
    // and race on every one of its keys. Racers wait for the one `make`
    // and count as hits, so the counters cannot depend on the job count.
    let (bert, gpt2) = (zoo::bert_base(64), zoo::gpt2(64));
    let graphs = [&bert, &bert, &gpt2, &gpt2];
    let counters = |jobs: usize| {
        let npu = Npu::new(NpuConfig::paper());
        par_map(graphs.len(), jobs, |i| npu.run(graphs[i]));
        npu.stats()
    };
    let serial = counters(1);
    assert_eq!(serial.graph_misses, 2);
    for jobs in [2, 4] {
        assert_eq!(counters(jobs), serial, "counters under {jobs} jobs");
    }
}

#[test]
fn run_matrix_matches_sweep_points() {
    let graph = zoo::mobilenetv2();
    let jobs: Vec<(NpuConfig, &tandem_model::Graph)> = [
        DesignPoint::tiny(),
        DesignPoint::paper(),
        DesignPoint::paper(), // repeated config shares one NPU
        DesignPoint::large(),
    ]
    .iter()
    .map(|p| (p.npu_config(), &graph))
    .collect();
    let reports = run_matrix(&jobs);
    for (i, ((cfg, _), r)) in jobs.iter().zip(&reports).enumerate() {
        let direct = Npu::uncached(cfg.clone()).run(&graph);
        assert_identical(r, &direct, &format!("job {i}"));
    }
    assert_identical(&reports[1], &reports[2], "repeated config");
}

/// A random non-empty schedule over the tuning sites of `graphs`: each
/// site takes a uniformly drawn candidate with probability 1/2
/// (SplitMix64 from `seed`).
fn random_schedule(graphs: &[&Graph], seed: u64) -> Schedule {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let npu = Npu::new(NpuConfig::paper());
    let mut choices = BTreeMap::new();
    for graph in graphs {
        for site in npu.tune_sites(graph) {
            if next() % 2 == 0 {
                let pick = next() % site.candidates.len() as u64;
                choices.insert(site.key, site.candidates[pick as usize]);
            }
        }
    }
    assert!(!choices.is_empty());
    Schedule::new(choices)
}

/// The paper configuration under `schedule`.
fn scheduled(schedule: Schedule) -> NpuConfig {
    NpuConfig {
        schedule,
        ..NpuConfig::paper()
    }
}

#[test]
fn scheduled_cached_runs_equal_uncached_runs() {
    let graphs = [zoo::resnet50(), zoo::bert_base(64)];
    let refs: Vec<&Graph> = graphs.iter().collect();
    let cfg = scheduled(random_schedule(&refs, 7));
    let uncached: Vec<_> = graphs
        .iter()
        .map(|g| Npu::uncached(cfg.clone()).run(g))
        .collect();
    for (graph, reference) in graphs.iter().zip(&uncached) {
        let name = &graph.name;
        assert!(
            Npu::new(cfg.clone()).verify_schedule(graph),
            "{name}: the schedule verifies clean"
        );
        // A cold sibling: the scheduled runner starts on empty caches.
        let cold = Npu::new(NpuConfig::paper()).sibling(cfg.clone()).run(graph);
        assert_identical(&cold, reference, &format!("{name}: cold sibling"));
        // A sibling of a hub other candidates already warmed: every
        // node-level cache holds entries of nearby schedules.
        let hub = Npu::new(NpuConfig::paper());
        hub.run(graph);
        for seed in 1..4 {
            hub.sibling(scheduled(random_schedule(&[graph], seed)))
                .run(graph);
        }
        let warm = hub.sibling(cfg.clone()).run(graph);
        assert_identical(&warm, reference, &format!("{name}: warmed-hub sibling"));
    }
    let parallel = Npu::new(cfg).run_many(&refs);
    for (i, (p, u)) in parallel.iter().zip(&uncached).enumerate() {
        assert_identical(p, u, &format!("run_many graph {i}"));
    }
}

#[test]
fn the_compile_cache_is_consulted_only_on_sim_misses() {
    for graph in [zoo::resnet50(), zoo::bert_base(64)] {
        for schedule in [Schedule::empty(), random_schedule(&[&graph], 11)] {
            let cfg = NpuConfig {
                schedule,
                ..NpuConfig::paper()
            };
            let s = Npu::new(cfg).run(&graph).stats;
            assert!(s.sim_misses > 0 && s.sim_hits > 0, "{}", graph.name);
            assert_eq!(
                s.compile_hits + s.compile_misses,
                s.sim_misses,
                "{}: compile lookups on a cold run",
                graph.name
            );
        }
    }
}

#[test]
fn sibling_on_other_silicon_equals_an_uncached_run() {
    // The node-level cache keys cover only part of the unit
    // configurations: a sibling with a slower GEMM DRAM channel and a
    // faster Tandem clock must not be answered from the hub's caches.
    let graph = zoo::resnet50();
    let hub = Npu::new(NpuConfig::paper());
    hub.run(&graph);
    let mut cfg = NpuConfig::paper();
    cfg.gemm.dram_bytes_per_cycle /= 4.0;
    cfg.tandem.freq_ghz *= 2.0;
    let sibling = hub.sibling(cfg.clone()).run(&graph);
    assert_identical(
        &sibling,
        &Npu::uncached(cfg).run(&graph),
        "other-silicon sibling",
    );
}

/// The zoo plus the LLM serving shapes: every graph the product runs.
fn every_model() -> Vec<Graph> {
    let mut models = zoo::all_models();
    models.extend([zoo::gpt2_decode_step(64), zoo::llama_tiny(32)]);
    models
}

/// `base` with every cross-block weight-prefetch site of `graph` on.
fn all_prefetch(base: &NpuConfig, graph: &Graph) -> NpuConfig {
    let on = TileChoice::Prefetch { on: true };
    let sites = Npu::new(base.clone()).tune_sites(graph);
    let choices: BTreeMap<_, _> = sites
        .iter()
        .filter(|s| s.candidates.contains(&on))
        .map(|s| (s.key, on))
        .collect();
    NpuConfig {
        schedule: Schedule::new(choices),
        ..base.clone()
    }
}

#[test]
fn reused_blocks_compose_exactly_what_every_block_computes() {
    // Blocks of one class share their parts and compose them one by
    // one: with every prefetch on, members of one class hide different
    // amounts in different idle windows. `Npu::uncached` computes every
    // block afresh.
    let mut layer = NpuConfig::paper();
    layer.granularity = TileGranularity::Layer;
    let mut small = NpuConfig::paper();
    small.tandem.lanes = 8;
    small.tandem.interim_rows = 64;
    let mut reused = [0u64; 3];
    for graph in &every_model() {
        let cases = [
            ("all prefetch", all_prefetch(&NpuConfig::paper(), graph)),
            ("layer granularity", layer.clone()),
            ("8x64", small.clone()),
        ];
        for (i, (case, cfg)) in cases.into_iter().enumerate() {
            let what = format!("{}: {case}", graph.name);
            let cached = Npu::new(cfg.clone()).run(graph);
            assert_identical(&cached, &Npu::uncached(cfg).run(graph), &what);
            reused[i] += cached.stats.reused_blocks;
        }
    }
    assert!(reused.iter().all(|&n| n > 0), "reused blocks: {reused:?}");
}
