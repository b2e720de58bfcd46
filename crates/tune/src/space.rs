//! The search space and the genetic operators over it.
//!
//! A candidate is a compiler [`Schedule`]: a partial assignment of tuning
//! sites to [`TileChoice`]s — absent sites keep the hand-rolled
//! heuristic, so the empty schedule *is* the baseline compiler. The
//! [`SearchSpace`] holds the sites the target NPU exposes for a graph
//! plus the mutation prior (one weight per site, fed by the dead-traffic
//! lint and the site's instance count), and implements the search's
//! three generators: random sampling, weighted point mutation, and
//! uniform crossover. All three draw from the caller's [`SplitMix64`]
//! stream only, so a fixed seed replays the identical search.

use std::collections::BTreeMap;
use tandem_compiler::{Schedule, TileChoice, TuneSite};
use tandem_fleet::SplitMix64;

/// Uniform draw from `0..n` (0 when `n == 0`).
pub(crate) fn below(rng: &mut SplitMix64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    (rng.next_u64() % n as u64) as usize
}

/// The per-graph search space: the sites the NPU exposes and the
/// mutation prior over them.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    sites: Vec<TuneSite>,
    /// Per-site mutation weight (≥ 1): sites whose baseline lowering
    /// wastes more scratchpad traffic — or that govern more graph nodes —
    /// are mutated proportionally more often.
    weights: Vec<u64>,
    /// Cumulative weights for O(log n)-free linear weighted picks.
    cum: Vec<u64>,
}

impl SearchSpace {
    /// A space over `sites` with a mutation prior (`weights[i]` for
    /// `sites[i]`; values are clamped to ≥ 1, and the vector is padded or
    /// truncated to the site count).
    pub fn new(sites: Vec<TuneSite>, weights: Vec<u64>) -> Self {
        let mut w: Vec<u64> = (0..sites.len())
            .map(|i| weights.get(i).copied().unwrap_or(1).max(1))
            .collect();
        // A site with a single candidate (only the baseline) is inert.
        for (i, s) in sites.iter().enumerate() {
            if s.candidates.len() < 2 {
                w[i] = 0;
            }
        }
        let mut cum = Vec::with_capacity(w.len());
        let mut acc = 0u64;
        for &x in &w {
            acc += x;
            cum.push(acc);
        }
        SearchSpace {
            sites,
            weights: w,
            cum,
        }
    }

    /// The tuning sites.
    pub fn sites(&self) -> &[TuneSite] {
        &self.sites
    }

    /// The mutation prior, parallel to [`SearchSpace::sites`].
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` when the graph exposes no tunable site.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty() || self.cum.last().copied().unwrap_or(0) == 0
    }

    /// log₂ of the number of points in the space (the product of per-site
    /// candidate counts).
    pub fn log2_points(&self) -> f64 {
        self.sites
            .iter()
            .map(|s| (s.candidates.len().max(1) as f64).log2())
            .sum()
    }

    /// A weighted site pick from the mutation prior.
    fn pick_site(&self, rng: &mut SplitMix64) -> usize {
        let total = self.cum.last().copied().unwrap_or(0);
        debug_assert!(total > 0, "pick_site on an empty space");
        let r = rng.next_u64() % total;
        self.cum.partition_point(|&c| c <= r)
    }

    /// A random candidate: each site independently keeps its baseline
    /// (2-in-3) or takes a uniformly random alternative.
    pub fn random(&self, rng: &mut SplitMix64) -> Schedule {
        let mut choices = BTreeMap::new();
        for (s, &w) in self.sites.iter().zip(&self.weights) {
            if w == 0 || !rng.next_u64().is_multiple_of(3) {
                continue;
            }
            let c = s.candidates[below(rng, s.candidates.len())];
            if c != s.baseline {
                choices.insert(s.key, c);
            }
        }
        Schedule::new(choices)
    }

    /// A single-site override.
    pub fn single(&self, site: usize, choice: TileChoice) -> Schedule {
        let mut choices = BTreeMap::new();
        if choice != self.sites[site].baseline {
            choices.insert(self.sites[site].key, choice);
        }
        Schedule::new(choices)
    }

    /// A point mutation of `parent`: one prior-weighted site flips to a
    /// different candidate (or, 1-in-4 when overridden, back to its
    /// baseline).
    pub fn mutate(&self, parent: &Schedule, rng: &mut SplitMix64) -> Schedule {
        let mut choices: BTreeMap<u64, TileChoice> = parent.iter().collect();
        let site = &self.sites[self.pick_site(rng)];
        let current = choices.get(&site.key).copied();
        if current.is_some() && rng.next_u64().is_multiple_of(4) {
            choices.remove(&site.key);
            return Schedule::new(choices);
        }
        let effective = current.unwrap_or(site.baseline);
        // Up to a handful of redraws to land on a different choice; a
        // site with one candidate leaves the parent unchanged.
        for _ in 0..4 {
            let c = site.candidates[below(rng, site.candidates.len())];
            if c != effective {
                if c == site.baseline {
                    choices.remove(&site.key);
                } else {
                    choices.insert(site.key, c);
                }
                break;
            }
        }
        Schedule::new(choices)
    }

    /// Uniform crossover: every site takes its assignment from `a` or
    /// `b` with equal probability (absence — the baseline — is inherited
    /// like any other assignment).
    pub fn crossover(&self, a: &Schedule, b: &Schedule, rng: &mut SplitMix64) -> Schedule {
        let mut choices = BTreeMap::new();
        for s in &self.sites {
            let from = if rng.next_u64().is_multiple_of(2) {
                a
            } else {
                b
            };
            if let Some(c) = from.get(s.key) {
                choices.insert(s.key, c);
            }
        }
        Schedule::new(choices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_space() -> SearchSpace {
        // TuneSite wants a real NodeId; steal one from a two-op graph.
        let node = {
            let mut b = tandem_model::GraphBuilder::new("toy", 1);
            let x = b.input("x", [1, 1, 2, 2]);
            let y = b.relu(x);
            b.output(y);
            b.finish().nodes()[0].id
        };
        let site = |key: u64, cands: Vec<TileChoice>| TuneSite {
            key,
            name: format!("s{key}"),
            node,
            instances: 1,
            baseline: cands[0],
            candidates: cands,
        };
        SearchSpace::new(
            vec![
                site(
                    1,
                    vec![
                        TileChoice::Permute { rows: 128 },
                        TileChoice::Permute { rows: 256 },
                        TileChoice::Permute { rows: 64 },
                    ],
                ),
                site(
                    2,
                    vec![
                        TileChoice::GemmTile { m_rows: 512 },
                        TileChoice::GemmTile { m_rows: 256 },
                    ],
                ),
            ],
            vec![1, 100],
        )
    }

    #[test]
    fn operators_only_emit_known_choices() {
        let space = toy_space();
        let legal = |c: &Schedule| {
            c.iter().all(|(k, v)| {
                space
                    .sites()
                    .iter()
                    .any(|s| s.key == k && s.candidates.contains(&v))
            })
        };
        let mut rng = SplitMix64::new(11);
        let mut a = space.random(&mut rng);
        let mut b = space.random(&mut rng);
        for _ in 0..64 {
            let m = space.mutate(&a, &mut rng);
            let x = space.crossover(&a, &b, &mut rng);
            assert!(legal(&m) && legal(&x));
            a = m;
            b = x;
        }
    }

    #[test]
    fn mutation_prior_prefers_heavy_sites() {
        let space = toy_space();
        let mut rng = SplitMix64::new(3);
        let mut heavy = 0usize;
        for _ in 0..200 {
            let m = space.mutate(&Schedule::empty(), &mut rng);
            if m.get(2).is_some() {
                heavy += 1;
            }
        }
        assert!(heavy > 150, "weight-100 site mutated only {heavy}/200");
    }
}
