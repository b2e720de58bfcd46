//! The autotuner's search space: compiler choices made explicit.
//!
//! The hand-rolled [`crate::Tiler`] heuristics pick one point per operator
//! family — a tile shape, a loop order, a namespace assignment, a
//! code-repeater nesting. This module names those points ([`TileChoice`]),
//! groups the nodes that share one decision into **sites** ([`TuneSite`],
//! keyed by the choice-free part of their [`crate::NodeSignature`]), and
//! carries a full assignment of sites to choices as a [`Schedule`] that
//! [`crate::OpLowering`] consults during lowering. A schedule is one
//! search **candidate**: `tandem-tune` mutates schedules, the compiler
//! materializes them, `tandem-verify` gates them, and the cached
//! simulator scores them.
//!
//! Everything here is deterministic and platform-stable: site keys and
//! schedule digests use an explicit little-endian FNV-1a hasher (not
//! `DefaultHasher`, whose output is salted per process), so committed
//! tuning trajectories and golden fixtures stay byte-identical across
//! runs, `--jobs` values and hosts.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use tandem_model::{Graph, Node, NodeId, OpClass};

/// One explicit compiler decision at a tuning site. Every variant maps to
/// one operator family of [`crate::Tiler`]; the fields are exactly the
/// knobs the hand-rolled heuristics hard-code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TileChoice {
    /// Element-wise family: flat tile of `rows` scratchpad rows.
    Elementwise {
        /// Rows per tile (the tile shape).
        rows: u16,
        /// Code-repeater nesting: split the flat row loop into an
        /// `rows/split × split` two-level nest (`1` = flat). Must divide
        /// `rows`; the two nests touch identical addresses.
        split: u16,
        /// Namespace assignment: place the output tile in Interim BUF 2
        /// (after the template's temporaries) instead of Interim BUF 1,
        /// trading temp headroom for input-side row budget.
        y_in_interim2: bool,
    },
    /// Window family (pools / depthwise conv): output-row strip height
    /// and kernel loop order.
    Window {
        /// Output rows per strip (`oh_t`).
        out_rows: u16,
        /// Loop order: iterate the kernel window column-major (`kx`
        /// outside `ky`) instead of row-major. Address sets are
        /// identical; only the walk order changes.
        swap_kernel_loops: bool,
    },
    /// Reduction family (softmax / reduce-mean / global-average-pool):
    /// reduction chunk and resident group count.
    Reduce {
        /// Elements of the reduction axis kept resident per chunk.
        d_chunk: u16,
        /// Lane-groups reduced per tile.
        groups: u16,
    },
    /// Permute-engine family (transpose / concat / slice / …): rows per
    /// moved tile.
    Permute {
        /// Rows per tile.
        rows: u16,
    },
    /// GEMM-side pipelining granularity: output rows per GEMM tile handed
    /// to the Tandem Processor through the Output BUF.
    GemmTile {
        /// M-dimension rows per tile.
        m_rows: u32,
    },
    /// Cross-block weight prefetch: stream (up to) the double-buffered
    /// half of this GEMM's weight matrix into the scratchpad during the
    /// previous execution block's idle DRAM-channel window, shrinking
    /// this block's first-tile weight fill. The hand-rolled executor
    /// never prefetches (`on: false` is the baseline); the site lives
    /// under [`prefetch_key`] of the GEMM node's site key, so it composes
    /// with an independent [`TileChoice::GemmTile`] at the same node.
    Prefetch {
        /// Whether the weight stream starts a block early.
        on: bool,
    },
}

impl TileChoice {
    /// A compact stable rendering for JSON trajectories and goldens.
    pub fn render(&self) -> String {
        match *self {
            TileChoice::Elementwise {
                rows,
                split,
                y_in_interim2,
            } => format!(
                "ew(r={rows},s={split}{})",
                if y_in_interim2 { ",ns2" } else { "" }
            ),
            TileChoice::Window {
                out_rows,
                swap_kernel_loops,
            } => format!(
                "win(oh={out_rows}{})",
                if swap_kernel_loops { ",swap" } else { "" }
            ),
            TileChoice::Reduce { d_chunk, groups } => format!("red(d={d_chunk},g={groups})"),
            TileChoice::Permute { rows } => format!("perm(r={rows})"),
            TileChoice::GemmTile { m_rows } => format!("gemm(m={m_rows})"),
            TileChoice::Prefetch { on } => format!("pf({})", if on { "on" } else { "off" }),
        }
    }
}

/// The schedule key of a GEMM node's *prefetch* site, derived from (and
/// distinct from) its tile site key. One node can carry two independent
/// decisions — pipelining granularity under `site_key` and weight
/// prefetch under `prefetch_key(site_key)` — without colliding in a
/// [`Schedule`]'s map.
pub fn prefetch_key(site_key: u64) -> u64 {
    stable_hash(&(site_key, b"prefetch"))
}

/// A 64-bit FNV-1a hasher with explicit little-endian integer encoding:
/// deterministic across processes and platforms, unlike the std
/// `DefaultHasher`. Site keys and schedule digests must survive into
/// committed JSON artifacts, so they cannot depend on per-process seeds.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher(FNV_OFFSET)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    // Fixed-width little-endian encodings: the derived `Hash` impls hash
    // usize lengths and enum discriminants through these, and the default
    // trait methods would use native endianness.
    fn write_u8(&mut self, i: u8) {
        self.write(&[i]);
    }
    fn write_u16(&mut self, i: u16) {
        self.write(&i.to_le_bytes());
    }
    fn write_u32(&mut self, i: u32) {
        self.write(&i.to_le_bytes());
    }
    fn write_u64(&mut self, i: u64) {
        self.write(&i.to_le_bytes());
    }
    fn write_usize(&mut self, i: usize) {
        self.write(&(i as u64).to_le_bytes());
    }
    fn write_i8(&mut self, i: i8) {
        self.write_u8(i as u8);
    }
    fn write_i16(&mut self, i: i16) {
        self.write_u16(i as u16);
    }
    fn write_i32(&mut self, i: i32) {
        self.write_u32(i as u32);
    }
    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }
    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }
}

/// Stable 64-bit hash of any `Hash` value via [`StableHasher`].
pub fn stable_hash<T: Hash>(value: &T) -> u64 {
    let mut h = StableHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A full assignment of tuning sites to [`TileChoice`]s: one search
/// candidate, which `tandem-tune` generates and the compiler, the
/// verifier and the cached simulator consume. Cloning is cheap (the map
/// lives behind an [`Arc`]), and the digest is computed once, in
/// [`Schedule::new`]; the empty schedule reproduces the hand-rolled
/// compiler bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    // First, so that derived equality rejects on it before the maps.
    digest: u64,
    choices: Arc<BTreeMap<u64, TileChoice>>,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule {
            digest: FNV_OFFSET,
            choices: Arc::default(),
        }
    }
}

impl Schedule {
    /// The empty schedule: every site keeps its hand-rolled heuristic.
    pub fn empty() -> Self {
        Self::default()
    }

    /// A schedule over explicit `(site key, choice)` assignments.
    pub fn new(choices: BTreeMap<u64, TileChoice>) -> Self {
        let mut h = StableHasher::new();
        for (&k, &c) in &choices {
            h.write_u64(k);
            c.hash(&mut h);
        }
        Schedule {
            digest: h.finish(),
            choices: Arc::new(choices),
        }
    }

    /// The choice pinned at `site`, if any.
    pub fn get(&self, site: u64) -> Option<TileChoice> {
        self.choices.get(&site).copied()
    }

    /// `true` when no site is overridden.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }

    /// Number of overridden sites.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// The `(site key, choice)` assignments in ascending site-key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, TileChoice)> + '_ {
        self.choices.iter().map(|(&k, &c)| (k, c))
    }

    /// A stable digest of the whole assignment: FNV-1a over each site key
    /// and choice in key order. Feeds cache keys (two candidates over one
    /// graph must never collide in the graph-level report cache) and
    /// candidate identity in the search driver.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Stable rendering of the overrides, one `site=choice` string per
    /// assignment, named through `sites` where the key is known.
    pub fn render(&self, sites: &[TuneSite]) -> Vec<String> {
        self.iter()
            .map(|(k, c)| {
                let name = sites
                    .iter()
                    .find(|s| s.key == k)
                    .map(|s| s.name.as_str())
                    .unwrap_or("?");
                format!("{name}@{k:016x}={}", c.render())
            })
            .collect()
    }

    /// A clone of this schedule, kept for callers written against the
    /// tuner's former candidate type.
    #[deprecated(note = "a tuner candidate is a `Schedule`; use it (or `clone()`) directly")]
    pub fn schedule(&self) -> Schedule {
        self.clone()
    }
}

/// One tuning site: a group of nodes sharing a choice-free
/// [`crate::NodeSignature`], the hand-rolled baseline decision, and the
/// legal alternatives the tuner may explore.
#[derive(Debug, Clone)]
pub struct TuneSite {
    /// The site key ([`crate::NodeSignature::site_key`]).
    pub key: u64,
    /// Name of a representative node (for reports and walkthroughs).
    pub name: String,
    /// A representative node (the mutation prior recompiles it to rank
    /// sites by wasted scratchpad traffic).
    pub node: NodeId,
    /// How many graph nodes share this signature — a proxy for how much
    /// total runtime the site governs.
    pub instances: u64,
    /// The hand-rolled heuristic's decision (the empty-schedule point).
    pub baseline: TileChoice,
    /// Legal alternatives, baseline included, deduplicated, in a
    /// deterministic order.
    pub candidates: Vec<TileChoice>,
}

/// Enumerates the non-GEMM tuning sites of `graph` under `lowering`'s
/// machine shape: one [`TuneSite`] per distinct choice-free signature, in
/// first-appearance order. `site_key` returns a node's
/// [`crate::OpLowering::site_key`] (the NPU reads it from its per-graph
/// plan instead of hashing again). GEMM-side sites (tile pipelining
/// granularity) are owned by `tandem-npu`, which knows the systolic
/// geometry, and are merged there.
pub fn enumerate_sites(
    lowering: &crate::OpLowering,
    graph: &Graph,
    site_key: impl Fn(&Node) -> u64,
) -> Vec<TuneSite> {
    let tiler = crate::Tiler::new(lowering.lanes(), lowering.interim_rows());
    let mut sites: Vec<TuneSite> = Vec::new();
    // Nodes with one key share a signature and so their choices: each
    // key is lowered once, and a key that is no site maps to `None`.
    let mut index: BTreeMap<u64, Option<usize>> = BTreeMap::new();
    for node in graph.nodes() {
        if node.kind.class() == OpClass::Gemm {
            continue;
        }
        let key = site_key(node);
        match index.get(&key) {
            Some(&Some(i)) => sites[i].instances += 1,
            Some(None) => {}
            None => {
                let choices = tiler.choices(lowering, graph, node);
                index.insert(key, choices.is_some().then_some(sites.len()));
                if let Some((baseline, candidates)) = choices {
                    sites.push(TuneSite {
                        key,
                        name: node.name.to_string(),
                        node: node.id,
                        instances: 1,
                        baseline,
                        candidates,
                    });
                }
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hasher_is_deterministic() {
        assert_eq!(stable_hash(&42u64), stable_hash(&42u64));
        assert_ne!(stable_hash(&42u64), stable_hash(&43u64));
        // The FNV-1a vector for the empty input.
        assert_eq!(StableHasher::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn schedule_digest_tracks_content() {
        let a = Schedule::new(BTreeMap::from([(1u64, TileChoice::Permute { rows: 128 })]));
        let b = Schedule::new(BTreeMap::from([(1u64, TileChoice::Permute { rows: 256 })]));
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), Schedule::empty().digest());
        assert_eq!(a.digest(), a.clone().digest());
        assert_eq!(
            Schedule::new(BTreeMap::new()).digest(),
            Schedule::empty().digest(),
            "the empty map digests to the FNV offset"
        );
    }

    #[test]
    fn renders_are_compact_and_distinct() {
        let choices = [
            TileChoice::Elementwise {
                rows: 256,
                split: 2,
                y_in_interim2: true,
            },
            TileChoice::Window {
                out_rows: 8,
                swap_kernel_loops: false,
            },
            TileChoice::Reduce {
                d_chunk: 64,
                groups: 4,
            },
            TileChoice::Permute { rows: 256 },
            TileChoice::GemmTile { m_rows: 128 },
        ];
        let rendered: std::collections::HashSet<String> =
            choices.iter().map(TileChoice::render).collect();
        assert_eq!(rendered.len(), choices.len());
    }
}
