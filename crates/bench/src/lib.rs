//! # tandem-bench
//!
//! The benchmark harness reproducing **every table and figure** of the
//! Tandem Processor paper's evaluation (§2, §8). Each `fig*`/`table*`
//! function regenerates the corresponding result — same benchmarks, same
//! baselines, same series — and prints it next to the paper's reported
//! value. [`experiments::EXPERIMENTS`] lists them in paper order with the
//! paper's claims and the bands their headline numbers must stay in;
//! the table in `EXPERIMENTS.md` at the repository root is generated from
//! it.
//!
//! Run a single experiment, or all of them:
//! ```text
//! cargo run --release --bin tandem -- figure fig14
//! cargo run --release --bin tandem -- figure all
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod figures;
pub mod suite;
pub mod table;

pub use suite::Suite;

use tandem_fleet::Catalog;
use tandem_npu::Npu;

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Mean solo service time (ns) of `mix` — `(catalog model, weight)`
/// pairs — on `probe`: the capacity yardstick the serving benchmarks
/// derive their offered rates from.
pub fn mean_service_ns(probe: &Npu, catalog: &Catalog, mix: &[(usize, f64)]) -> f64 {
    let freq = probe.config().tandem.freq_ghz;
    let total: f64 = mix.iter().map(|&(_, w)| w).sum();
    mix.iter()
        .map(|&(m, w)| probe.estimate(catalog.graph(m)) as f64 / freq * w / total)
        .sum()
}

/// Reads the number after `"<key>":` in the file at `path` — a floor or
/// budget committed in a `BENCH_*.json` baseline. `None` when the file
/// or the key is missing or the value is not a plain decimal.
pub fn read_floor(path: &str, key: &str) -> Option<f64> {
    let s = std::fs::read_to_string(path).ok()?;
    let key = format!("\"{key}\":");
    let rest = s[s.find(&key)? + key.len()..].trim_start();
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
