//! The decode-cost model: per-step and prefill cost/byte tables derived
//! from the cached cycle oracle ([`Npu::estimate_demand_of`]) over
//! single-token decode-step and prompt-prefill graphs, sampled at
//! KV-block-boundary context lengths.
//!
//! A request's KV cache is paged in blocks of `block_tokens` tokens.
//! The decode-step graph at context `c` reads the whole cache (modeled
//! as resident weight tensors), so both its cycle count and its DRAM
//! byte footprint grow with `c` — long contexts are slower *and*
//! hungrier for bandwidth, which is exactly what the serving engine
//! feeds through the shared [`crate::MemorySystem`]. Costs are
//! piecewise-constant per block: a context of `c` tokens is charged at
//! the ceiling block knot, matching the page-granular cache it models.

use crate::llm::workload::LlmWorkloadSpec;
use tandem_model::Graph;
use tandem_npu::{Npu, NpuConfig};

/// A servable autoregressive model: graph builders for the two serving
/// phases plus the KV paging geometry.
#[derive(Debug, Clone)]
pub struct LlmModelSpec {
    /// Display name (reported in traces and tables).
    pub name: String,
    /// Builds the prompt-prefill graph at a given prompt length. Must be
    /// pure: the NPU memoizes its demand by (builder, length).
    pub prefill: fn(usize) -> Graph,
    /// Builds the single-token decode-step graph at a given cached
    /// context length. Must be pure: the NPU memoizes its demand by
    /// (builder, context).
    pub decode_step: fn(usize) -> Graph,
    /// KV-cache page size in tokens; also the preemption granularity
    /// (checkpoints land on block boundaries only).
    pub block_tokens: usize,
    /// Largest context (prompt + generated tokens) the tables cover;
    /// longer contexts are charged at the last knot.
    pub max_context: usize,
}

impl LlmModelSpec {
    /// GPT-2 124M from the zoo's [`tandem_model::zoo::gpt2_prefill`] /
    /// [`tandem_model::zoo::gpt2_decode_step`] builders.
    pub fn gpt2(block_tokens: usize, max_context: usize) -> Self {
        LlmModelSpec {
            name: "GPT-2".to_string(),
            prefill: tandem_model::zoo::gpt2_prefill,
            decode_step: tandem_model::zoo::gpt2_decode_step,
            block_tokens,
            max_context,
        }
    }
}

/// The built cost tables: one row per fleet member, one column per KV
/// block knot. Building looks up `2 × blocks` demands per *distinct*
/// member configuration (homogeneous fleets pay once) through
/// [`Npu::estimate_demand_of`]. The first build on a pool builds and
/// simulates each graph; a later build on the same caches builds no
/// graph at all, so a sweep builds this once and every cell reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeModel {
    name: String,
    block_tokens: usize,
    blocks: usize,
    /// `step_ns[npu][b]` — solo decode-step time at context knot
    /// `(b+1) · block_tokens`.
    step_ns: Vec<Vec<u64>>,
    /// DRAM bytes one decode step streams at that knot (weights + KV
    /// pages + activations).
    step_bytes: Vec<Vec<u64>>,
    /// `prefill_ns[npu][b]` — solo prefill time at prompt knot
    /// `(b+1) · block_tokens`.
    prefill_ns: Vec<Vec<u64>>,
    /// DRAM bytes the prefill streams at that knot.
    prefill_bytes: Vec<Vec<u64>>,
    /// Member configurations the rows were built for (checked by the
    /// engine at serve time).
    npu_cfgs: Vec<NpuConfig>,
}

impl DecodeModel {
    /// Builds the tables for `npus` (one row per member; members with
    /// equal configurations share one set of simulations).
    pub fn build(spec: &LlmModelSpec, npus: &[Npu]) -> Self {
        assert!(!npus.is_empty(), "a decode model needs at least one NPU");
        assert!(spec.block_tokens >= 1, "block_tokens must be at least 1");
        assert!(
            spec.max_context >= spec.block_tokens,
            "max_context must cover at least one block"
        );
        let blocks = spec.max_context / spec.block_tokens;
        let n = npus.len();
        let mut step_ns = vec![Vec::new(); n];
        let mut step_bytes = vec![Vec::new(); n];
        let mut prefill_ns = vec![Vec::new(); n];
        let mut prefill_bytes = vec![Vec::new(); n];
        for i in 0..n {
            // Reuse the row of an earlier member with the same config.
            if let Some(j) = (0..i).find(|&j| npus[j].config() == npus[i].config()) {
                step_ns[i] = step_ns[j].clone();
                step_bytes[i] = step_bytes[j].clone();
                prefill_ns[i] = prefill_ns[j].clone();
                prefill_bytes[i] = prefill_bytes[j].clone();
                continue;
            }
            let freq = npus[i].config().tandem.freq_ghz;
            let to_ns = |cycles: u64| ((cycles as f64 / freq).ceil() as u64).max(1);
            for b in 0..blocks {
                let knot = (b + 1) * spec.block_tokens;
                let dd = npus[i].estimate_demand_of(spec.decode_step, knot);
                step_ns[i].push(to_ns(dd.total_cycles));
                step_bytes[i].push(dd.dram_bytes);
                let pd = npus[i].estimate_demand_of(spec.prefill, knot);
                prefill_ns[i].push(to_ns(pd.total_cycles));
                prefill_bytes[i].push(pd.dram_bytes);
            }
        }
        DecodeModel {
            name: spec.name.clone(),
            block_tokens: spec.block_tokens,
            blocks,
            step_ns,
            step_bytes,
            prefill_ns,
            prefill_bytes,
            npu_cfgs: npus.iter().map(|n| n.config().clone()).collect(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// KV-cache page size in tokens.
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Number of context knots per table row.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Member configurations the tables were built for.
    pub fn npu_cfgs(&self) -> &[NpuConfig] {
        &self.npu_cfgs
    }

    /// Ceiling block index for a cached context of `ctx` tokens.
    fn blk_ctx(&self, ctx: usize) -> usize {
        (ctx / self.block_tokens).min(self.blocks - 1)
    }

    /// Ceiling block index for a prompt of `prompt` tokens (≥ 1).
    fn blk_prompt(&self, prompt: usize) -> usize {
        ((prompt.max(1) - 1) / self.block_tokens).min(self.blocks - 1)
    }

    /// Solo single-token decode-step time on member `npu` with `ctx`
    /// cached tokens.
    pub fn step_ns(&self, npu: usize, ctx: usize) -> u64 {
        self.step_ns[npu][self.blk_ctx(ctx)]
    }

    /// DRAM bytes that decode step streams.
    pub fn step_bytes(&self, npu: usize, ctx: usize) -> u64 {
        self.step_bytes[npu][self.blk_ctx(ctx)]
    }

    /// Solo prompt-prefill time on member `npu` for a `prompt`-token
    /// prompt.
    pub fn prefill_ns(&self, npu: usize, prompt: usize) -> u64 {
        self.prefill_ns[npu][self.blk_prompt(prompt)]
    }

    /// DRAM bytes that prefill streams.
    pub fn prefill_bytes(&self, npu: usize, prompt: usize) -> u64 {
        self.prefill_bytes[npu][self.blk_prompt(prompt)]
    }

    /// Mean solo (unbatched) end-to-end service time of one request
    /// drawn from `wl` on member `npu` — the capacity yardstick offered
    /// rates are calibrated against, mirroring `tandem_serve`'s
    /// `mean_service_ns` for whole-graph scenarios.
    pub fn mean_request_ns(&self, npu: usize, wl: &LlmWorkloadSpec) -> f64 {
        let mean_prompt = (wl.prompt_tokens.0 + wl.prompt_tokens.1) / 2;
        let mean_output = ((wl.output_tokens.0 + wl.output_tokens.1) / 2).max(1);
        let mean_ctx = mean_prompt + mean_output / 2;
        self.prefill_ns(npu, mean_prompt.max(1)) as f64
            + (mean_output.saturating_sub(1)) as f64 * self.step_ns(npu, mean_ctx) as f64
    }
}
