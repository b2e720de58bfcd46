//! Streaming order statistics: the fixed-bucket latency sketch, the
//! single shared nearest-rank percentile implementation, and windowed
//! time-series rollups.
//!
//! The engine serves workloads of millions of requests; retaining a
//! [`crate::RequestRecord`] per request (and re-sorting full latency
//! vectors to read percentiles off them) makes memory and post-run cost
//! grow linearly with the trace. Everything in this module is O(1) per
//! observation and O(1) in memory:
//!
//! * [`LatencySketch`] — a deterministic log-spaced histogram (32
//!   sub-buckets per power of two, 1920 buckets total, ~15 KiB) whose
//!   quantiles carry a guaranteed relative error bound of one
//!   sub-bucket, `1/32 ≈ 3.1%`. Count, sum/mean, and max are exact.
//! * [`LatencyAccumulator`] — the engine's per-distribution accumulator:
//!   in *exact* mode (records retained) it keeps the raw values and
//!   reproduces the pre-streaming report bit-for-bit through the shared
//!   [`nearest_rank`] helper; in *sketch* mode it feeds a
//!   [`LatencySketch`] and memory stays flat in the request count.
//! * [`RollupWindow`] — per-virtual-time-window aggregates (arrivals,
//!   completions, rejections, busy time, peak queue depth) for
//!   long-horizon traces where even a depth sample per event is too
//!   much.

/// Sub-bucket resolution of the sketch: `2^SUB_BITS` linear sub-buckets
/// per power of two, which bounds the relative quantile error at
/// `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS; // 32
/// Total bucket count: values below `SUB` get exact unit buckets, and
/// each of the 59 remaining octaves (`2^5 ..= 2^63`) gets `SUB` linear
/// sub-buckets — 1920 buckets, ~15 KiB of `u64` counts.
const BUCKETS: usize = SUB + SUB * (64 - SUB_BITS as usize); // 32 + 32·59

/// The index of the sub-bucket containing `v`. Total order preserving:
/// `v <= w ⇒ bucket(v) <= bucket(w)`, and exact (width 1) for `v < 32`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = exp - SUB_BITS;
        let sub = (v >> shift) as usize - SUB; // 0..SUB
        SUB * (exp - SUB_BITS) as usize + sub + SUB
    }
}

/// The smallest value mapping to bucket `b` (the sketch's quantile
/// representative before clamping to the observed range).
#[inline]
fn bucket_low(b: usize) -> u64 {
    if b < SUB {
        b as u64
    } else {
        let exp = SUB_BITS + ((b - SUB) / SUB) as u32;
        let sub = ((b - SUB) % SUB) as u64;
        (SUB as u64 + sub) << (exp - SUB_BITS)
    }
}

/// A deterministic fixed-size log-spaced histogram over `u64`
/// nanosecond observations.
///
/// Quantiles are nearest-rank over the bucketed counts: the returned
/// value is the lower bound of the bucket holding the rank-`r`
/// observation, clamped into `[min, max]`, so it differs from the exact
/// order statistic by at most one sub-bucket's width — a relative error
/// of `2^-SUB_BITS = 1/32`, and exactly zero for observations below 32.
/// Count, sum (hence mean), min, and max are tracked exactly. Two
/// sketches fed the same multiset in any order are identical, and
/// [`LatencySketch::merge`] is associative — the properties that make
/// sharded accumulation deterministic.
#[derive(Clone, PartialEq, Eq)]
pub struct LatencySketch {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for LatencySketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencySketch")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Default for LatencySketch {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencySketch {
    /// An empty sketch.
    pub fn new() -> Self {
        LatencySketch {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation. O(1), no allocation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact arithmetic mean, floored (0 when empty) — the same
    /// rounding the exact path uses.
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// The nearest-rank `q`-quantile over the bucketed counts: within
    /// one sub-bucket's relative error (`1/32`) of the exact order
    /// statistic. Returns 0 on an empty sketch.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds every observation of `other` into `self` (exact fields
    /// merge exactly; buckets add).
    pub fn merge(&mut self, other: &LatencySketch) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The guaranteed relative error bound of [`LatencySketch::quantile`]
    /// for values ≥ 32 (values below 32 are exact).
    pub fn relative_error() -> f64 {
        1.0 / SUB as f64
    }
}

/// The single nearest-rank percentile implementation:
/// `p(q) = sorted[⌈q·n⌉ − 1]` over an **ascending-sorted** slice.
/// Every percentile the fleet reports — report aggregates, per-model
/// stats, and the accumulator's exact mode — goes through this one
/// function, so they agree bit-for-bit.
#[inline]
pub fn nearest_rank(sorted_ns: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted_ns.is_empty());
    let n = sorted_ns.len();
    sorted_ns[(((q * n as f64).ceil() as usize).clamp(1, n)) - 1]
}

/// Per-distribution streaming accumulator: exact when records are
/// retained (bit-for-bit the pre-streaming report), sketched when not
/// (flat memory).
#[derive(Debug, Clone)]
pub enum LatencyAccumulator {
    /// Keeps every observation; statistics are computed by sorting at
    /// the end, exactly as the record-retaining report always has.
    Exact(Vec<u64>),
    /// Feeds a [`LatencySketch`]; memory is constant in the
    /// observation count.
    Sketch(LatencySketch),
}

impl LatencyAccumulator {
    /// An accumulator in exact (`retain = true`) or sketch mode.
    pub fn new(retain: bool) -> Self {
        if retain {
            LatencyAccumulator::Exact(Vec::new())
        } else {
            LatencyAccumulator::Sketch(LatencySketch::new())
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        match self {
            LatencyAccumulator::Exact(vals) => vals.push(v),
            LatencyAccumulator::Sketch(s) => s.record(v),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        match self {
            LatencyAccumulator::Exact(vals) => vals.len() as u64,
            LatencyAccumulator::Sketch(s) => s.count(),
        }
    }

    /// Finishes the accumulator into the report's summary statistics.
    /// Exact mode sorts and reads nearest-rank percentiles through
    /// [`nearest_rank`]; sketch mode reads them off the buckets.
    pub fn finish(self) -> crate::report::LatencyStats {
        match self {
            LatencyAccumulator::Exact(mut vals) => {
                vals.sort_unstable();
                crate::report::LatencyStats::from_sorted(&vals)
            }
            LatencyAccumulator::Sketch(s) => crate::report::LatencyStats::from_sketch(&s),
        }
    }
}

/// Aggregates of one virtual-time window of a serving run — the
/// long-horizon replacement for per-event queue-depth samples. Enabled
/// by [`crate::FleetConfig::rollup_window_ns`]; windows are
/// `[i·w, (i+1)·w)` in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RollupWindow {
    /// Requests that arrived in the window (admitted or not).
    pub arrivals: u64,
    /// Requests whose completion landed in the window.
    pub completed: u64,
    /// Requests dropped at admission in the window.
    pub dropped: u64,
    /// Requests timed out in the window.
    pub timed_out: u64,
    /// Deepest the pending queue got during the window.
    pub peak_depth: u64,
    /// Busy nanoseconds (warm-up + service + memory stall) of
    /// dispatches that *completed* in the window, summed across NPUs.
    pub busy_ns: u64,
}

impl RollupWindow {
    /// Completed requests per virtual second of the window.
    pub fn throughput_rps(&self, window_ns: u64) -> f64 {
        if window_ns == 0 {
            0.0
        } else {
            self.completed as f64 * 1e9 / window_ns as f64
        }
    }

    /// Mean per-NPU utilization over the window (busy time over
    /// `fleet_size · window`). Completion-attributed, so a dispatch
    /// spanning a window boundary charges its full busy time to the
    /// window it completes in.
    pub fn utilization(&self, window_ns: u64, fleet_size: usize) -> f64 {
        let denom = window_ns as f64 * fleet_size.max(1) as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.busy_ns as f64 / denom
        }
    }
}

/// The rollup collector the engine drives: a dense vector of windows,
/// grown to the highest virtual time seen.
#[derive(Debug, Clone, Default)]
pub(crate) struct Rollups {
    window_ns: u64,
    rows: Vec<RollupWindow>,
}

impl Rollups {
    pub(crate) fn new(window_ns: u64) -> Self {
        assert!(window_ns > 0, "rollup window must be positive");
        Rollups {
            window_ns,
            rows: Vec::new(),
        }
    }

    pub(crate) fn window_ns(&self) -> u64 {
        self.window_ns
    }

    #[inline]
    fn row(&mut self, at_ns: u64) -> &mut RollupWindow {
        let i = (at_ns / self.window_ns) as usize;
        if i >= self.rows.len() {
            self.rows.resize(i + 1, RollupWindow::default());
        }
        &mut self.rows[i]
    }

    #[inline]
    pub(crate) fn on_arrival(&mut self, at_ns: u64) {
        self.row(at_ns).arrivals += 1;
    }

    #[inline]
    pub(crate) fn on_completed(&mut self, at_ns: u64, n: u64) {
        self.row(at_ns).completed += n;
    }

    #[inline]
    pub(crate) fn on_dropped(&mut self, at_ns: u64) {
        self.row(at_ns).dropped += 1;
    }

    #[inline]
    pub(crate) fn on_timed_out(&mut self, at_ns: u64) {
        self.row(at_ns).timed_out += 1;
    }

    #[inline]
    pub(crate) fn on_depth(&mut self, at_ns: u64, depth: u64) {
        let row = self.row(at_ns);
        row.peak_depth = row.peak_depth.max(depth);
    }

    #[inline]
    pub(crate) fn on_busy(&mut self, at_ns: u64, busy_ns: u64) {
        self.row(at_ns).busy_ns += busy_ns;
    }

    pub(crate) fn finish(self) -> Vec<RollupWindow> {
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SplitMix64;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ];
        let mut prev = 0usize;
        for &v in &probes {
            let b = bucket_index(v);
            assert!(b < BUCKETS, "bucket {b} out of range for {v}");
            assert!(b >= prev, "bucket index must be monotone in the value");
            assert!(
                bucket_low(b) <= v,
                "bucket low {} must not exceed {v}",
                bucket_low(b)
            );
            prev = b;
        }
        // Exhaustive monotone + low-bound round trip over small values
        // and octave boundaries.
        for v in 0..4096u64 {
            let b = bucket_index(v);
            assert!(bucket_low(b) <= v && v < bucket_low(b + 1));
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = LatencySketch::new();
        for v in 0..32u64 {
            s.record(v);
        }
        for q in [0.01, 0.5, 0.9, 1.0] {
            let exact = nearest_rank(&(0..32).collect::<Vec<_>>(), q);
            assert_eq!(s.quantile(q), exact, "q={q}");
        }
    }

    #[test]
    fn quantiles_are_within_one_subbucket_relative_error() {
        let mut rng = SplitMix64::new(0xfeed);
        for case in 0..20 {
            let n = 100 + (rng.next_u64() % 5000) as usize;
            let mut vals: Vec<u64> = (0..n)
                .map(|_| {
                    // Log-uniform-ish spread: exercise many octaves.
                    let shift = rng.next_u64() % 40;
                    rng.next_u64() >> (24 + shift % 40).min(63)
                })
                .collect();
            let mut s = LatencySketch::new();
            for &v in &vals {
                s.record(v);
            }
            vals.sort_unstable();
            for q in [0.5, 0.95, 0.99, 0.999] {
                let exact = nearest_rank(&vals, q);
                let approx = s.quantile(q);
                let tol = (exact as f64 * LatencySketch::relative_error()).ceil() as u64;
                assert!(
                    approx.abs_diff(exact) <= tol.max(1),
                    "case {case} q={q}: sketch {approx} vs exact {exact} (tol {tol})"
                );
            }
            assert_eq!(s.max(), *vals.last().unwrap());
            assert_eq!(s.min(), vals[0]);
            let sum: u128 = vals.iter().map(|&v| v as u128).sum();
            assert_eq!(s.mean(), (sum / vals.len() as u128) as u64);
        }
    }

    #[test]
    fn merge_equals_feeding_one_sketch() {
        let mut rng = SplitMix64::new(7);
        let a_vals: Vec<u64> = (0..500).map(|_| rng.next_u64() >> 30).collect();
        let b_vals: Vec<u64> = (0..700).map(|_| rng.next_u64() >> 20).collect();
        let mut all = LatencySketch::new();
        let (mut a, mut b) = (LatencySketch::new(), LatencySketch::new());
        for &v in &a_vals {
            a.record(v);
            all.record(v);
        }
        for &v in &b_vals {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn exact_accumulator_matches_from_sorted() {
        let mut acc = LatencyAccumulator::new(true);
        let vals = [5u64, 1, 1_000_000, 37, 42, 42];
        for &v in &vals {
            acc.record(v);
        }
        let mut sorted = vals.to_vec();
        sorted.sort_unstable();
        assert_eq!(
            acc.finish(),
            crate::report::LatencyStats::from_sorted(&sorted)
        );
    }

    #[test]
    fn empty_sketch_is_all_zeros() {
        let s = LatencySketch::new();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(
            LatencyAccumulator::Sketch(s).finish(),
            crate::report::LatencyStats::default()
        );
    }

    #[test]
    fn rollups_bucket_by_virtual_time() {
        let mut r = Rollups::new(1000);
        r.on_arrival(0);
        r.on_arrival(999);
        r.on_arrival(1000);
        r.on_completed(2500, 3);
        r.on_depth(10, 4);
        r.on_depth(20, 2);
        r.on_busy(2500, 800);
        let rows = r.finish();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].arrivals, 2);
        assert_eq!(rows[0].peak_depth, 4);
        assert_eq!(rows[1].arrivals, 1);
        assert_eq!(rows[2].completed, 3);
        assert_eq!(rows[2].busy_ns, 800);
        assert_eq!(rows[2].throughput_rps(1000), 3e9 / 1000.0 * 1e-6 * 1e6);
        assert!((rows[2].utilization(1000, 2) - 0.4).abs() < 1e-12);
    }
}
