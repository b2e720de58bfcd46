//! The seeded search driver: a single-site seeding sweep, then beam +
//! evolutionary generations, scored by the cached simulator and gated by
//! `tandem-verify`.
//!
//! Determinism contract: for a fixed seed the whole search — every
//! candidate visited, every score, the final best — is a pure function
//! of `(graph, NPU config, options)`. All randomness comes from one
//! [`SplitMix64`] stream drawn on the driver thread; workers only
//! evaluate pure functions into order-indexed slots, so `jobs` changes
//! wall-time, never results. Wall-times are reported separately and are
//! the only nondeterministic fields.
//!
//! Each candidate is evaluated on one [`Npu::sibling`] of a cache hub,
//! configured with the candidate's schedule and the widened verifier.
//! The sibling first gates the candidate with [`Npu::verify_schedule`]:
//! every execution block is assembled through the hub's compile cache
//! and verified, and a candidate with any error-severity finding is
//! rejected before it is scored. Block verdicts are memoized in the hub
//! on the block's node signatures, so a candidate pays verification only
//! for the blocks its changed sites touch. The same sibling then scores
//! the candidate, reusing the per-node simulation of each
//! `(site, choice)` decision the search has already paid for — which is
//! what makes hundreds of whole-graph evaluations affordable.

use crate::space::{below, Candidate, SearchSpace};
use std::collections::HashMap;
use std::time::Instant;
use tandem_fleet::SplitMix64;
use tandem_model::Graph;
use tandem_npu::{par_map, Npu};
use tandem_verify::VerifyMode;

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
    /// Gate every candidate through widened `tandem-verify` before
    /// scoring; error findings reject the candidate.
    pub verify_gate: bool,
    /// Record every accepted `(candidate, cycles)` pair in the outcome
    /// (tests re-verify them; large searches leave this off).
    pub record_accepted: bool,
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
            verify_gate: true,
            record_accepted: false,
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
    /// Best cycles over every accepted candidate *so far* — monotonically
    /// non-increasing across generations.
    pub best_cycles: u64,
    /// Median cycles of this generation's accepted candidates (the
    /// running best when the generation accepted none).
    pub median_cycles: u64,
    /// Distinct candidates scored this generation (memo hits included).
    pub evaluated: usize,
    /// Candidates verified + simulated for the first time.
    pub fresh: usize,
    /// Fresh candidates the verify gate rejected.
    pub rejected: usize,
    /// Wall-time spent in the verify gate this generation.
    pub verify_wall_s: f64,
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
    /// Cycles of the best accepted candidate.
    pub best_cycles: u64,
    /// The best accepted candidate.
    pub best: Candidate,
    /// Per-generation trajectory.
    pub generations: Vec<GenerationStat>,
    /// Distinct candidates evaluated over the whole search.
    pub evaluated: usize,
    /// Distinct candidates the verify gate rejected.
    pub rejected: usize,
    /// Total verify-gate wall-time.
    pub verify_wall_s: f64,
    /// Total simulation wall-time.
    pub sim_wall_s: f64,
    /// Every accepted `(candidate, cycles)` pair, in first-evaluation
    /// order — only filled under [`TuneOptions::record_accepted`].
    pub accepted: Vec<(Candidate, u64)>,
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

/// Candidate evaluation: the widened verify gate and the cached score,
/// both pure functions of the candidate, run on one sibling of the hub.
struct Evaluator<'a> {
    npu: &'a Npu,
    graph: &'a Graph,
    gate: bool,
}

impl Evaluator<'_> {
    /// The candidate's runner: a sibling sharing the hub's caches, under
    /// the candidate's schedule, gating in widened mode and scoring with
    /// the per-node verify pass off.
    fn sibling(&self, cand: &Candidate) -> Npu {
        let mut cfg = self.npu.config().clone();
        cfg.verify = false;
        cfg.verify_mode = VerifyMode::Widened;
        cfg.schedule = cand.schedule();
        self.npu.sibling(cfg)
    }

    /// `true` when every block of the candidate's program verifies with
    /// no error-severity finding (widened mode).
    fn verify_ok(&self, sibling: &Npu) -> bool {
        !self.gate || sibling.verify_schedule(self.graph)
    }

    /// Simulated end-to-end cycles of the candidate. Bit-equal to an
    /// [`Npu::uncached`] run under the same configuration (the oracle
    /// tests assert this).
    fn score(&self, sibling: &Npu) -> u64 {
        sibling.run(self.graph).total_cycles
    }
}

/// Runs the full search for `graph` on `npu` inside an explicit space.
pub fn tune_in_space(
    npu: &Npu,
    graph: &Graph,
    space: &SearchSpace,
    opts: &TuneOptions,
) -> TuneOutcome {
    let eval = Evaluator {
        npu,
        graph,
        gate: opts.verify_gate,
    };
    let mut rng = SplitMix64::new(opts.seed);
    // digest → Some(cycles) accepted / None rejected.
    let mut memo: HashMap<u64, Option<u64>> = HashMap::new();
    // Every accepted candidate, kept sorted by (cycles, digest).
    let mut pool: Vec<(u64, u64, Candidate)> = Vec::new();
    let mut accepted_log: Vec<(Candidate, u64)> = Vec::new();
    let mut stats: Vec<GenerationStat> = Vec::new();

    let run_generation = |generation: usize,
                          population: Vec<Candidate>,
                          memo: &mut HashMap<u64, Option<u64>>,
                          pool: &mut Vec<(u64, u64, Candidate)>,
                          accepted_log: &mut Vec<(Candidate, u64)>|
     -> GenerationStat {
        // Dedupe within the generation, preserving first-occurrence order.
        let mut uniq: Vec<Candidate> = Vec::with_capacity(population.len());
        {
            let mut seen = std::collections::HashSet::new();
            for c in population {
                if seen.insert(c.digest()) {
                    uniq.push(c);
                }
            }
        }
        let fresh: Vec<Candidate> = uniq
            .iter()
            .filter(|c| !memo.contains_key(&c.digest()))
            .cloned()
            .collect();
        // Phase 1 — the verify gate, in parallel, results in input order.
        let t0 = Instant::now();
        let gated = par_map(fresh.len(), opts.jobs, |i| {
            let sibling = eval.sibling(&fresh[i]);
            let ok = eval.verify_ok(&sibling);
            (sibling, ok)
        });
        let verify_wall_s = t0.elapsed().as_secs_f64();
        let mut to_score: Vec<(&Candidate, Npu)> = Vec::new();
        let mut rejected = 0usize;
        for (c, (sibling, ok)) in fresh.iter().zip(gated) {
            if ok {
                to_score.push((c, sibling));
            } else {
                rejected += 1;
                memo.insert(c.digest(), None);
            }
        }
        // Phase 2 — score the survivors on the same siblings.
        let t1 = Instant::now();
        let scores = par_map(to_score.len(), opts.jobs, |i| eval.score(&to_score[i].1));
        let sim_wall_s = t1.elapsed().as_secs_f64();
        for (&(c, _), &cycles) in to_score.iter().zip(&scores) {
            memo.insert(c.digest(), Some(cycles));
            pool.push((cycles, c.digest(), c.clone()));
            if opts.record_accepted {
                accepted_log.push((c.clone(), cycles));
            }
        }
        pool.sort_by_key(|c| (c.0, c.1));
        let best_cycles = pool.first().map(|&(c, _, _)| c).unwrap_or(u64::MAX);
        // Median over this generation's accepted candidates.
        let mut gen_scores: Vec<u64> = uniq
            .iter()
            .filter_map(|c| memo.get(&c.digest()).copied().flatten())
            .collect();
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
            fresh: fresh.len(),
            rejected,
            verify_wall_s,
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
    let mut gen0: Vec<Candidate> = vec![Candidate::baseline()];
    let mut singles: Vec<(usize, Candidate)> = Vec::new();
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
    stats.push(run_generation(
        0,
        gen0,
        &mut memo,
        &mut pool,
        &mut accepted_log,
    ));
    let baseline_cycles = memo
        .get(&Candidate::baseline().digest())
        .copied()
        .flatten()
        .expect("the baseline schedule always verifies clean");

    // The greedy coordinate-descent point: for each site, its best
    // accepted single-site override that beat the baseline.
    let greedy = {
        let mut best_per_site: HashMap<usize, (u64, Candidate)> = HashMap::new();
        for (site, cand) in &singles {
            if let Some(Some(cycles)) = memo.get(&cand.digest()) {
                if *cycles < baseline_cycles {
                    let e = best_per_site
                        .entry(*site)
                        .or_insert_with(|| (*cycles, cand.clone()));
                    if *cycles < e.0 {
                        *e = (*cycles, cand.clone());
                    }
                }
            }
        }
        let mut choices = std::collections::BTreeMap::new();
        for (_, (_, cand)) in best_per_site {
            for (&k, &c) in cand.choices() {
                choices.insert(k, c);
            }
        }
        Candidate::new(choices)
    };

    // ---- Evolutionary generations over the beam ----
    for generation in 1..=opts.generations {
        if space.is_empty() {
            break;
        }
        let elites: Vec<Candidate> = pool
            .iter()
            .take(opts.beam.max(1))
            .map(|(_, _, c)| c.clone())
            .collect();
        let mut population: Vec<Candidate> = Vec::with_capacity(opts.population);
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
        stats.push(run_generation(
            generation,
            population,
            &mut memo,
            &mut pool,
            &mut accepted_log,
        ));
    }

    let (best_cycles, _, best) = pool
        .first()
        .cloned()
        .expect("baseline is always in the pool");
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
        rejected: memo.values().filter(|v| v.is_none()).count(),
        verify_wall_s: stats.iter().map(|s| s.verify_wall_s).sum(),
        sim_wall_s: stats.iter().map(|s| s.sim_wall_s).sum(),
        generations: stats,
        accepted: accepted_log,
    }
}
