//! Mode × fleet-size sweeps for LLM serving and the deterministic
//! `SERVE_LLM.json` rendering, shared by the `tandem_serve` binary and
//! the test suite.

use crate::llm::engine::{LlmConfig, LlmFleet, LlmMode};
use crate::llm::model::{DecodeModel, LlmModelSpec};
use crate::llm::workload::LlmWorkloadSpec;
use crate::report::FleetReport;
use std::fmt::Write as _;
use tandem_npu::{par_map, Npu};

/// One LLM sweep: every batching mode crossed with every fleet size,
/// all serving the same materialized request trace, so rows are
/// directly comparable.
#[derive(Debug, Clone)]
pub struct LlmSweepSpec {
    /// Per-cell template: `fleet.npus[0]` is the homogeneous member
    /// configuration, replicated to each cell's fleet size; the serving
    /// knobs and `rewarm_ns_per_block` carry over verbatim (the
    /// template's `mode` is ignored — the mode axis supplies it).
    pub template: LlmConfig,
    /// Fleet sizes to evaluate.
    pub fleet_sizes: Vec<usize>,
    /// Batching modes to evaluate.
    pub modes: Vec<LlmMode>,
    /// The workload every cell serves.
    pub workload: LlmWorkloadSpec,
}

impl LlmSweepSpec {
    fn cell_config(&self, mode: LlmMode, size: usize) -> LlmConfig {
        let mut cfg = self.template.clone();
        cfg.mode = mode;
        cfg.fleet.npus = vec![self.template.fleet.npus[0].clone(); size];
        cfg.fleet.bw_gbps = self
            .template
            .fleet
            .bw_gbps
            .as_ref()
            .map(|v| vec![v[0]; size]);
        cfg
    }
}

/// Runs the sweep on up to `jobs` worker threads (0 = one per core).
/// Rows come back in `(mode, fleet_size)` row-major order regardless of
/// `jobs`. The [`DecodeModel`] tables are built once against a shared
/// member pool, so every cell replays the same cached cycle-oracle
/// numbers — the rendered JSON is byte-identical across runs and
/// `jobs` settings.
pub fn llm_sweep(model: &LlmModelSpec, spec: &LlmSweepSpec, jobs: usize) -> Vec<FleetReport> {
    let max = spec.fleet_sizes.iter().copied().max().unwrap_or(1);
    let pool = Npu::fleet(&vec![spec.template.fleet.npus[0].clone(); max.max(1)]);
    let tables = DecodeModel::build(model, &pool);
    llm_sweep_tables(&tables, spec, jobs)
}

/// [`llm_sweep`] over pre-built [`DecodeModel`] tables — for callers
/// that also need the tables themselves (rate calibration, budget
/// sizing, trace demos) and shouldn't pay the cycle model twice. The
/// tables must cover the largest swept fleet size.
pub fn llm_sweep_tables(
    tables: &DecodeModel,
    spec: &LlmSweepSpec,
    jobs: usize,
) -> Vec<FleetReport> {
    assert!(
        !spec.fleet_sizes.is_empty() && !spec.modes.is_empty(),
        "an LLM sweep needs at least one mode and one fleet size"
    );
    let max = *spec.fleet_sizes.iter().max().unwrap();
    assert!(max >= 1, "fleet sizes must be at least 1");
    let requests = spec.workload.generate();
    let mut cells: Vec<(LlmMode, usize)> =
        Vec::with_capacity(spec.modes.len() * spec.fleet_sizes.len());
    for &m in &spec.modes {
        for &s in &spec.fleet_sizes {
            cells.push((m, s));
        }
    }
    par_map(cells.len(), jobs, |i| {
        let (mode, size) = cells[i];
        LlmFleet::new(spec.cell_config(mode, size), tables).serve(&requests)
    })
}

/// The continuous-vs-static headline comparison at one fleet size,
/// extracted from sweep rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlmSummaryRow {
    /// Fleet size both modes ran at.
    pub fleet_size: usize,
    /// Static-batching p99 time-to-first-token.
    pub static_ttft_p99_ns: u64,
    /// Continuous-batching p99 time-to-first-token.
    pub continuous_ttft_p99_ns: u64,
    /// `static / continuous` p99 TTFT (> 1 = continuous wins).
    pub ttft_p99_win: f64,
    /// Static-batching token throughput.
    pub static_tokens_per_s: f64,
    /// Continuous-batching token throughput.
    pub continuous_tokens_per_s: f64,
    /// `continuous / static` tokens/sec (> 1 = continuous wins).
    pub tokens_per_s_win: f64,
}

/// Builds the per-fleet-size continuous-vs-static comparison from sweep
/// rows (sizes present under both modes only, ascending).
pub fn llm_summary(rows: &[FleetReport]) -> Vec<LlmSummaryRow> {
    let find = |mode: LlmMode, size: usize| {
        rows.iter()
            .find(|r| r.policy == mode.name() && r.fleet_size == size)
    };
    let mut sizes: Vec<usize> = rows.iter().map(|r| r.fleet_size).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    sizes
        .into_iter()
        .filter_map(|size| {
            let st = find(LlmMode::Static, size)?;
            let co = find(LlmMode::Continuous, size)?;
            let st_ttft = st.llm.as_ref()?.ttft.p99_ns;
            let co_ttft = co.llm.as_ref()?.ttft.p99_ns;
            Some(LlmSummaryRow {
                fleet_size: size,
                static_ttft_p99_ns: st_ttft,
                continuous_ttft_p99_ns: co_ttft,
                ttft_p99_win: ratio(st_ttft as f64, co_ttft as f64),
                static_tokens_per_s: st.tokens_per_s(),
                continuous_tokens_per_s: co.tokens_per_s(),
                tokens_per_s_win: ratio(co.tokens_per_s(), st.tokens_per_s()),
            })
        })
        .collect()
}

/// Renders sweep rows plus their summary as the `SERVE_LLM.json`
/// document — same shape conventions as
/// [`crate::render_serve_json`], and just as deterministic: fixed
/// inputs render byte-for-byte.
pub fn render_llm_serve_json(rows: &[FleetReport], summary: &[LlmSummaryRow]) -> String {
    let ms = |ns: u64| format!("{:.4}", ns as f64 / 1e6);
    let mut out = String::from("{\n  \"llm\": [\n");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("    ");
        out.push_str(&r.to_json());
    }
    out.push_str("\n  ],\n  \"llm_summary\": [\n");
    for (i, s) in summary.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "    {{\"fleet_size\": {}, \"static_ttft_p99_ms\": {}, \
             \"continuous_ttft_p99_ms\": {}, \"ttft_p99_win\": {:.3}, \
             \"static_tokens_per_s\": {:.1}, \"continuous_tokens_per_s\": {:.1}, \
             \"tokens_per_s_win\": {:.3}}}",
            s.fleet_size,
            ms(s.static_ttft_p99_ns),
            ms(s.continuous_ttft_p99_ns),
            s.ttft_p99_win,
            s.static_tokens_per_s,
            s.continuous_tokens_per_s,
            s.tokens_per_s_win,
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}
