//! Memoization of GEMM cycle-model reports.
//!
//! [`GemmUnit::tile_report`] is a pure function of the unit configuration,
//! the workload, and the tile size, so repeated layers (every bottleneck
//! of ResNet-50, every encoder of BERT) recompute identical reports. A
//! [`GemmReportCache`] memoizes them per `(workload, m_tile)` — the owner
//! is responsible for keeping one cache per unit configuration (the NPU
//! owns one cache next to its one `GemmUnit`).

use crate::cycles::{GemmReport, GemmUnit, GemmWorkload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tandem_model::hash::WordMap;

/// A thread-safe memoization table for [`GemmUnit`] reports, keyed by
/// `(workload, m_tile)` (layer reports use `m_tile = m`): four words,
/// hashed one multiply each.
#[derive(Debug, Default)]
pub struct GemmReportCache {
    map: Mutex<WordMap<(GemmWorkload, u64), GemmReport>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl GemmReportCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Memoized [`GemmUnit::tile_report`].
    pub fn tile_report(&self, unit: &GemmUnit, w: GemmWorkload, m_tile: u64) -> GemmReport {
        let key = (w, m_tile);
        if let Some(&hit) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let report = unit.tile_report(w, m_tile);
        self.map.lock().unwrap().insert(key, report);
        report
    }

    /// Memoized [`GemmUnit::layer_report`].
    pub fn layer_report(&self, unit: &GemmUnit, w: GemmWorkload) -> GemmReport {
        self.tile_report(unit, w, w.m)
    }

    /// Number of distinct `(workload, tile)` keys evaluated.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// `true` when nothing has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= cycle-model evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Drops all cached reports and resets the counters.
    pub fn clear(&self) {
        self.map.lock().unwrap().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GemmConfig;

    #[test]
    fn cached_reports_match_direct_evaluation() {
        let unit = GemmUnit::new(GemmConfig::paper());
        let cache = GemmReportCache::new();
        let workloads = [
            GemmWorkload::new(3136, 576, 64),
            GemmWorkload::new(196, 4608, 512),
            GemmWorkload::from_conv(56, 56, 64, 64, 3),
        ];
        for &w in &workloads {
            for m_tile in [w.m, 64, 16] {
                assert_eq!(
                    cache.tile_report(&unit, w, m_tile),
                    unit.tile_report(w, m_tile)
                );
                assert_eq!(
                    cache.tile_report(&unit, w, m_tile),
                    unit.tile_report(w, m_tile)
                );
            }
            assert_eq!(cache.layer_report(&unit, w), unit.layer_report(w));
        }
        assert!(cache.hits() > 0);
        assert_eq!(cache.misses(), cache.len() as u64);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits() + cache.misses(), 0);
    }
}
