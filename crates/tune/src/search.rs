//! The seeded search driver: a single-site seeding sweep, then beam +
//! evolutionary generations, scored by the cached simulator, with the
//! winner gated by `tandem-verify`.
//!
//! Determinism contract: for a fixed seed the whole search — every
//! candidate visited, every score, the final best — is a pure function
//! of `(graph, NPU config, options)`. All randomness comes from one
//! [`SplitMix64`] stream drawn on the driver thread; workers only
//! evaluate pure functions into order-indexed slots, so `jobs` changes
//! wall-time, never results. Wall-times are reported separately and are
//! the only nondeterministic fields.
//!
//! Each candidate is scored on one [`Npu::sibling`] of a cache hub,
//! configured with the candidate's schedule, reusing the per-node
//! simulation of each `(site, choice)` decision the search has already
//! paid for — which is what makes hundreds of whole-graph evaluations
//! affordable. Candidates are not verified one by one: the space is
//! legal by construction (the tiler offers only choices that pass its
//! fit predicates, and `tests/gate.rs` sweeps the zoo to hold it to
//! that). The winner alone goes through [`Npu::verify_schedule`], which
//! assembles every execution block through the hub's compile cache and
//! verifies it with the NPU's widened verifier, once per distinct block;
//! if it fails, the search returns the baseline.

use crate::space::{below, SearchSpace};
use std::collections::HashMap;
use std::time::Instant;
use tandem_compiler::Schedule;
use tandem_fleet::SplitMix64;
use tandem_model::Graph;
use tandem_npu::{par_map, Npu};

/// Search-driver options.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Seed of the search's single random stream.
    pub seed: u64,
    /// Evolutionary generations after the gen-0 seeding sweep.
    pub generations: usize,
    /// Candidates per evolutionary generation.
    pub population: usize,
    /// Elite candidates carried between generations (the beam).
    pub beam: usize,
    /// Worker threads for candidate evaluation (`0` = all cores). Never
    /// affects results, only wall-time.
    pub jobs: usize,
    /// Cap on the gen-0 single-site sweep (`0` = sweep every single-site
    /// override — the spaces are small and the cache hub makes singles
    /// cheap, so the full coordinate sweep is the default).
    pub max_singles: usize,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            seed: 2024,
            generations: 8,
            population: 24,
            beam: 6,
            jobs: 0,
            max_singles: 0,
        }
    }
}

impl TuneOptions {
    /// CI-sized options: a capped sweep plus a few short generations.
    pub fn smoke() -> Self {
        TuneOptions {
            generations: 4,
            population: 12,
            beam: 4,
            max_singles: 64,
            ..Self::default()
        }
    }
}

/// One generation of the trajectory. Everything but the wall-times is
/// byte-deterministic for a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationStat {
    /// Generation index (0 = the seeding sweep).
    pub generation: usize,
    /// Best cycles over every candidate scored *so far* — monotonically
    /// non-increasing across generations.
    pub best_cycles: u64,
    /// Median cycles of this generation's candidates.
    pub median_cycles: u64,
    /// Distinct candidates scored this generation (memo hits included).
    pub evaluated: usize,
    /// Candidates simulated for the first time.
    pub fresh: usize,
    /// Wall-time spent simulating this generation.
    pub sim_wall_s: f64,
}

/// The result of one [`tune_graph`] run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// Graph name.
    pub model: String,
    /// The seed the search ran under.
    pub seed: u64,
    /// Tuning sites the NPU exposed.
    pub sites: usize,
    /// Sites with at least two candidates (the ones the search can move).
    pub tunable_sites: usize,
    /// log₂ of the search-space size.
    pub space_log2: f64,
    /// Cycles of the hand-rolled baseline (the empty schedule).
    pub baseline_cycles: u64,
    /// Cycles of [`TuneOutcome::best`].
    pub best_cycles: u64,
    /// The best-scoring candidate if it verifies clean, the baseline
    /// otherwise.
    pub best: Schedule,
    /// Per-generation trajectory.
    pub generations: Vec<GenerationStat>,
    /// Distinct candidates evaluated over the whole search.
    pub evaluated: usize,
    /// `1` when the verify gate rejected the best-scoring candidate (and
    /// the search fell back to the baseline), `0` otherwise.
    pub rejected: usize,
    /// Wall-time of the verify gate on the best-scoring candidate.
    pub verify_wall_s: f64,
    /// Total simulation wall-time.
    pub sim_wall_s: f64,
    /// Wall-time of the whole search: the gate, the scoring and the
    /// driver's own bookkeeping ([`TuneOutcome::bookkeeping_wall_s`]).
    pub wall_s: f64,
    /// Every scored `(candidate, cycles)` pair, in `(cycles, digest)`
    /// order. Only [`TuneOutcome::best`] went through the verify gate.
    pub accepted: Vec<(Schedule, u64)>,
}

impl TuneOutcome {
    /// Percent cycle reduction of the best candidate over the baseline.
    pub fn reduction_pct(&self) -> f64 {
        if self.baseline_cycles == 0 {
            return 0.0;
        }
        (self.baseline_cycles.saturating_sub(self.best_cycles)) as f64 * 100.0
            / self.baseline_cycles as f64
    }

    /// The search wall-time outside the gate and the scoring: candidate
    /// generation, deduplication, sibling set-up and selection.
    pub fn bookkeeping_wall_s(&self) -> f64 {
        self.wall_s - self.verify_wall_s - self.sim_wall_s
    }
}

/// Builds the search space for `graph` on `npu`: the NPU's tuning sites
/// weighted by the dead-traffic mutation prior.
pub fn search_space(npu: &Npu, graph: &Graph) -> SearchSpace {
    let sites = npu.tune_sites(graph);
    let cfg = npu.config();
    let weights =
        crate::prior::site_weights(cfg.tandem.lanes, cfg.tandem.interim_rows, graph, &sites);
    SearchSpace::new(sites, weights)
}

/// Runs the full search for `graph` on `npu` (building the space first).
pub fn tune_graph(npu: &Npu, graph: &Graph, opts: &TuneOptions) -> TuneOutcome {
    let space = search_space(npu, graph);
    tune_in_space(npu, graph, &space, opts)
}

/// The candidate's runner: a sibling sharing the hub's caches, under the
/// candidate's schedule. Its [`Npu::run`] cycles bit-equal an
/// [`Npu::uncached`] run under the same configuration (the oracle tests
/// assert this).
fn sibling(npu: &Npu, cand: &Schedule) -> Npu {
    let mut cfg = npu.config().clone();
    cfg.schedule = cand.clone();
    npu.sibling(cfg)
}

/// Runs the full search for `graph` on `npu` inside an explicit space.
pub fn tune_in_space(
    npu: &Npu,
    graph: &Graph,
    space: &SearchSpace,
    opts: &TuneOptions,
) -> TuneOutcome {
    let t_search = Instant::now();
    let mut rng = SplitMix64::new(opts.seed);
    // digest → cycles of every scored candidate.
    let mut memo: HashMap<u64, u64> = HashMap::new();
    // Every scored candidate as (cycles, candidate), kept sorted by
    // (cycles, digest).
    let mut pool: Vec<(u64, Schedule)> = Vec::new();
    let mut stats: Vec<GenerationStat> = Vec::new();

    let run_generation = |generation: usize,
                          population: Vec<Schedule>,
                          memo: &mut HashMap<u64, u64>,
                          pool: &mut Vec<(u64, Schedule)>|
     -> GenerationStat {
        // Dedupe within the generation, preserving first-occurrence order.
        let mut uniq: Vec<Schedule> = Vec::with_capacity(population.len());
        {
            let mut seen = std::collections::HashSet::new();
            for c in population {
                if seen.insert(c.digest()) {
                    uniq.push(c);
                }
            }
        }
        let fresh: Vec<Schedule> = uniq
            .iter()
            .filter(|c| !memo.contains_key(&c.digest()))
            .cloned()
            .collect();
        let fresh_count = fresh.len();
        // Score the fresh candidates in parallel, results in input order.
        let t0 = Instant::now();
        let scores = par_map(fresh.len(), opts.jobs, |i| {
            sibling(npu, &fresh[i]).run(graph).total_cycles
        });
        let sim_wall_s = t0.elapsed().as_secs_f64();
        for (c, cycles) in fresh.into_iter().zip(scores) {
            memo.insert(c.digest(), cycles);
            pool.push((cycles, c));
        }
        pool.sort_by_key(|(cycles, c)| (*cycles, c.digest()));
        // Generation 0 always scores the baseline, so the pool is never
        // empty here.
        let best_cycles = pool[0].0;
        let mut gen_scores: Vec<u64> = uniq.iter().map(|c| memo[&c.digest()]).collect();
        gen_scores.sort_unstable();
        let median_cycles = if gen_scores.is_empty() {
            best_cycles
        } else {
            gen_scores[(gen_scores.len() - 1) / 2]
        };
        GenerationStat {
            generation,
            best_cycles,
            median_cycles,
            evaluated: uniq.len(),
            fresh: fresh_count,
            sim_wall_s,
        }
    };

    // ---- Generation 0: baseline + the single-site seeding sweep ----
    let max_singles = if opts.max_singles > 0 {
        opts.max_singles
    } else {
        usize::MAX
    };
    // Sites in descending prior weight (ties by site order), so the cap
    // trims the least promising singles first.
    let mut order: Vec<usize> = (0..space.len())
        .filter(|&i| space.weights()[i] > 0)
        .collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(space.weights()[i]), i));
    let mut gen0: Vec<Schedule> = vec![Schedule::empty()];
    let mut singles: Vec<(usize, Schedule)> = Vec::new();
    'sweep: for &i in &order {
        for &c in &space.sites()[i].candidates {
            if c == space.sites()[i].baseline {
                continue;
            }
            if singles.len() >= max_singles {
                break 'sweep;
            }
            let cand = space.single(i, c);
            singles.push((i, cand.clone()));
            gen0.push(cand);
        }
    }
    stats.push(run_generation(0, gen0, &mut memo, &mut pool));
    let baseline_cycles = memo[&Schedule::empty().digest()];

    // The greedy coordinate-descent point: for each site, its best
    // single-site override that beat the baseline.
    let greedy = {
        let mut best_per_site: HashMap<usize, (u64, Schedule)> = HashMap::new();
        for (site, cand) in &singles {
            let cycles = memo[&cand.digest()];
            if cycles < baseline_cycles {
                let e = best_per_site
                    .entry(*site)
                    .or_insert_with(|| (cycles, cand.clone()));
                if cycles < e.0 {
                    *e = (cycles, cand.clone());
                }
            }
        }
        let mut choices = std::collections::BTreeMap::new();
        for (_, (_, cand)) in best_per_site {
            choices.extend(cand.iter());
        }
        Schedule::new(choices)
    };

    // ---- Evolutionary generations over the beam ----
    for generation in 1..=opts.generations {
        if space.is_empty() {
            break;
        }
        let elites: Vec<Schedule> = pool
            .iter()
            .take(opts.beam.max(1))
            .map(|(_, c)| c.clone())
            .collect();
        let mut population: Vec<Schedule> = Vec::with_capacity(opts.population);
        if generation == 1 && !greedy.is_empty() {
            population.push(greedy.clone());
        }
        while population.len() < opts.population {
            match rng.next_u64() % 8 {
                0..=4 => {
                    let p = &elites[below(&mut rng, elites.len())];
                    population.push(space.mutate(p, &mut rng));
                }
                5 | 6 => {
                    let a = &elites[below(&mut rng, elites.len())];
                    let b = &elites[below(&mut rng, elites.len())];
                    population.push(space.crossover(a, b, &mut rng));
                }
                _ => population.push(space.random(&mut rng)),
            }
        }
        stats.push(run_generation(generation, population, &mut memo, &mut pool));
    }

    // The search's one verify gate: the winner, through the hub's
    // memoized block verdicts. A rejected winner falls back to the
    // baseline.
    let (mut best_cycles, mut best) = pool[0].clone();
    let t_gate = Instant::now();
    let rejected = usize::from(!sibling(npu, &best).verify_schedule(graph));
    let verify_wall_s = t_gate.elapsed().as_secs_f64();
    if rejected == 1 {
        best = Schedule::empty();
        best_cycles = baseline_cycles;
    }
    TuneOutcome {
        model: graph.name.clone(),
        seed: opts.seed,
        sites: space.len(),
        tunable_sites: space.weights().iter().filter(|&&w| w > 0).count(),
        space_log2: space.log2_points(),
        baseline_cycles,
        best_cycles,
        best,
        evaluated: memo.len(),
        rejected,
        verify_wall_s,
        sim_wall_s: stats.iter().map(|s| s.sim_wall_s).sum(),
        wall_s: t_search.elapsed().as_secs_f64(),
        generations: stats,
        accepted: pool.into_iter().map(|(cycles, c)| (c, cycles)).collect(),
    }
}
