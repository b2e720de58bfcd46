//! Weight-stationary cycle model (SCALE-sim methodology).
//!
//! A layer is expressed as an `M × K × N` GEMM (convolutions via im2col:
//! `M = OH·OW`, `K = Cin·k²`, `N = Cout`). The array holds a `rows × cols`
//! slab of the weight matrix; each pass loads the slab (`rows` cycles) and
//! streams `M` activation rows through it (`M + rows + cols − 2` cycles of
//! skew). Passes iterate over `⌈K/rows⌉ × ⌈N/cols⌉` slabs.

use crate::config::GemmConfig;
use crate::energy::GemmEnergyModel;
use tandem_model::{Graph, Node, OpKind};
use tandem_trace::{TraceSink, Track};

/// An `M × K × N` GEMM workload (batch folded into `M`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmWorkload {
    /// Output rows streamed through the array.
    pub m: u64,
    /// Reduction depth.
    pub k: u64,
    /// Output columns.
    pub n: u64,
}

impl GemmWorkload {
    /// Creates a workload.
    pub fn new(m: u64, k: u64, n: u64) -> Self {
        GemmWorkload { m, k, n }
    }

    /// im2col mapping of a convolution.
    pub fn from_conv(
        out_h: u64,
        out_w: u64,
        in_channels: u64,
        out_channels: u64,
        kernel: u64,
    ) -> Self {
        GemmWorkload {
            m: out_h * out_w,
            k: in_channels * kernel * kernel,
            n: out_channels,
        }
    }

    /// The workload of GEMM-class node `node` of `graph`: a convolution
    /// by im2col, a (batched) MatMul or a Gemm with every leading output
    /// dimension folded into `M`.
    ///
    /// # Panics
    ///
    /// If `node` is not a Conv, MatMul or Gemm.
    pub fn of_node(graph: &Graph, node: &Node) -> Self {
        let out = &graph.tensor(node.outputs[0]).shape;
        let input = &graph.tensor(node.inputs[0]).shape;
        match node.kind {
            OpKind::Conv => GemmWorkload::from_conv(
                out.dim(2) as u64,
                out.dim(3) as u64,
                input.dim(1) as u64,
                out.dim(1) as u64,
                node.attrs.kernel as u64,
            ),
            OpKind::MatMul | OpKind::Gemm => {
                let n = out.dim(-1) as u64;
                let m = (out.elements() as u64).checked_div(n).unwrap_or(0);
                GemmWorkload::new(m, input.dim(-1) as u64, n)
            }
            other => unreachable!("{other} is not a GEMM operator"),
        }
    }

    /// Total multiply-accumulates.
    pub fn macs(&self) -> u64 {
        self.m * self.k * self.n
    }

    /// INT8 bytes of the weight matrix.
    fn weight_bytes(&self) -> u64 {
        self.k * self.n
    }
}

/// How one `m_tile`-row tile walks the array: `k_passes × n_passes`
/// weight-slab passes, each `per_pass` cycles long, column slabs
/// innermost. An empty tile has no passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PassGeometry {
    /// Row slabs: `⌈K/rows⌉`.
    pub k_passes: u64,
    /// Column slabs: `⌈N/cols⌉`.
    pub n_passes: u64,
    /// Cycles of one pass.
    pub per_pass: u64,
}

impl PassGeometry {
    /// Number of passes.
    pub fn passes(&self) -> u64 {
        self.k_passes * self.n_passes
    }

    /// Compute cycles of the tile: every pass back to back.
    pub fn cycles(&self) -> u64 {
        self.passes() * self.per_pass
    }
}

/// Cycle/traffic/energy report for a GEMM execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GemmReport {
    /// Compute cycles in the array (including fill/drain skew and weight
    /// loads).
    pub compute_cycles: u64,
    /// DRAM cycles for weights + input activations + output writeback at
    /// the configured bandwidth.
    pub dram_cycles: u64,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// Energy in nanojoules.
    pub energy_nj: f64,
}

impl GemmReport {
    /// Latency with DMA double-buffered behind compute.
    pub fn overlapped_cycles(&self) -> u64 {
        self.compute_cycles.max(self.dram_cycles)
    }

    /// PE utilization: achieved MACs over peak MAC slots.
    pub fn utilization(&self, cfg: &GemmConfig) -> f64 {
        let peak = self.overlapped_cycles() as f64 * (cfg.rows * cfg.cols) as f64;
        if peak == 0.0 {
            0.0
        } else {
            self.macs as f64 / peak
        }
    }

    /// Merges another report (sequential execution).
    pub fn merge(&mut self, other: &GemmReport) {
        self.compute_cycles += other.compute_cycles;
        self.dram_cycles += other.dram_cycles;
        self.macs += other.macs;
        self.dram_bytes += other.dram_bytes;
        self.energy_nj += other.energy_nj;
    }
}

/// The GEMM unit cycle model.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GemmUnit {
    cfg: GemmConfig,
    energy: GemmEnergyModel,
}

impl GemmUnit {
    /// Creates a unit with the given configuration.
    pub fn new(cfg: GemmConfig) -> Self {
        let energy = GemmEnergyModel::paper();
        GemmUnit { cfg, energy }
    }

    /// The configuration.
    pub fn config(&self) -> &GemmConfig {
        &self.cfg
    }

    /// Cycle/traffic report for one full workload.
    pub fn layer_report(&self, w: GemmWorkload) -> GemmReport {
        self.tile_report(w, w.m)
    }

    /// Report for one *tile* of `m_tile` output rows of the workload
    /// (the granularity at which the Tandem Processor consumes the Output
    /// BUF). Weight slabs reload per tile only when the full weight matrix
    /// exceeds the scratchpad.
    pub fn tile_report(&self, w: GemmWorkload, m_tile: u64) -> GemmReport {
        if w.macs() == 0 || m_tile == 0 {
            return GemmReport::default();
        }
        let geometry = self.pass_geometry(w, m_tile);
        let compute_cycles = geometry.cycles();

        // DRAM traffic: weights once per tile unless they stay resident
        // across tiles, inputs re-read per N-pass, INT32 outputs written.
        let weight_traffic = if self.weights_amortized(w, m_tile) {
            0 // loaded once for the first tile; amortized there
        } else {
            w.weight_bytes()
        };
        // With column-slab passes innermost, the `m_tile × rows` input
        // slice of the current K-slab stays resident across N-passes, so
        // inputs stream from DRAM once; if even one slice spills half the
        // scratchpad, the slab re-streams per pass.
        let input_once = m_tile * w.k; // INT8
        let slice_bytes = m_tile * self.cfg.rows as u64;
        let input_bytes = if slice_bytes <= self.half_scratchpad() {
            input_once
        } else {
            input_once * geometry.n_passes
        };
        let output_bytes = 0; // outputs stay in the Output BUF for the Tandem Processor
        let dram_bytes = weight_traffic + input_bytes + output_bytes;
        let dram_cycles = (dram_bytes as f64 / self.cfg.dram_bytes_per_cycle).ceil() as u64;

        let macs = m_tile * w.k * w.n;
        let energy_nj = self.energy.energy_nj(macs, dram_bytes, m_tile * w.n);
        GemmReport {
            compute_cycles,
            dram_cycles,
            macs,
            dram_bytes,
            energy_nj,
        }
    }

    /// The pass structure of one `m_tile`-row tile of `w`. Whole-layer
    /// execution (`m_tile ≥ M`) charges the weight-slab load plus full
    /// fill/drain skew per pass. Output-row tiles (the NPU's coordination
    /// granularity) keep slabs and the pipeline warm between tiles, so a
    /// tile pays only its streaming cycles plus the column drain.
    pub fn pass_geometry(&self, w: GemmWorkload, m_tile: u64) -> PassGeometry {
        if w.macs() == 0 || m_tile == 0 {
            return PassGeometry::default();
        }
        let rows = self.cfg.rows as u64;
        let cols = self.cfg.cols as u64;
        let per_pass = if m_tile < w.m {
            m_tile + cols - 1
        } else {
            rows + m_tile + rows + cols - 2
        };
        PassGeometry {
            k_passes: w.k.div_ceil(rows),
            n_passes: w.n.div_ceil(cols),
            per_pass,
        }
    }

    /// Emits the pass-level structure of one `m_tile`-row tile as spans on
    /// `sink`'s GEMM track, starting at absolute cycle `start`: one span
    /// per weight-slab pass of [`pass_geometry`](Self::pass_geometry),
    /// laid out sequentially exactly as [`tile_report`](Self::tile_report)
    /// charges them. Returns the cycle after the last pass
    /// (`start + compute_cycles`).
    pub fn trace_tile(
        &self,
        w: GemmWorkload,
        m_tile: u64,
        start: u64,
        sink: &mut dyn TraceSink,
    ) -> u64 {
        let geometry = self.pass_geometry(w, m_tile);
        if !sink.enabled() {
            return start + geometry.cycles();
        }
        let per_pass = geometry.per_pass;
        let mut at = start;
        for kp in 0..geometry.k_passes {
            for np in 0..geometry.n_passes {
                sink.span(
                    Track::Gemm,
                    "pass",
                    "gemm",
                    at,
                    per_pass,
                    &[("k_pass", kp), ("n_pass", np), ("m_rows", m_tile)],
                );
                at += per_pass;
            }
        }
        at
    }

    /// Whether `m_tile`-row tiles of `w` reuse a weight matrix loaded
    /// once: it fits the double-buffered half of the scratchpad and the
    /// layer is tiled. Such tiles charge no weight traffic, so there is
    /// nothing for a cross-block prefetch to hide.
    pub fn weights_amortized(&self, w: GemmWorkload, m_tile: u64) -> bool {
        w.weight_bytes() <= self.half_scratchpad() && m_tile < w.m
    }

    /// Weight bytes a cross-block prefetch may stream ahead of the first
    /// `m_tile`-row tile: none when the weights are amortized, else the
    /// matrix up to the double-buffered scratchpad half.
    pub fn prefetchable_bytes(&self, w: GemmWorkload, m_tile: u64) -> u64 {
        if self.weights_amortized(w, m_tile) {
            0
        } else {
            w.weight_bytes().min(self.half_scratchpad())
        }
    }

    /// The hand-rolled tile height: the largest tile the accumulator
    /// holds ([`max_tile_rows`](Self::max_tile_rows)), at most `M` and at
    /// least one row. A schedule's tile choice is clamped to it.
    pub fn baseline_tile_rows(&self, w: GemmWorkload) -> u64 {
        self.max_tile_rows(w.n).min(w.m.max(1))
    }

    /// The double-buffered half of the input/weight scratchpad, bytes.
    fn half_scratchpad(&self) -> u64 {
        (self.cfg.scratchpad_bytes / 2) as u64
    }

    /// The largest output-tile row count whose INT32 results fit the
    /// accumulator (Output BUF): `accumulator_bytes / (n × 4)`, clamped to
    /// at least one array height.
    pub fn max_tile_rows(&self, n: u64) -> u64 {
        let rows = (self.cfg.accumulator_bytes as u64 / (n.max(1) * 4)).max(self.cfg.rows as u64);
        rows.min(1 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_square_gemm_approaches_full_utilization() {
        let unit = GemmUnit::new(GemmConfig::paper());
        let w = GemmWorkload::new(4096, 1024, 1024);
        let r = unit.layer_report(w);
        assert_eq!(r.macs, w.macs());
        let util = r.utilization(unit.config());
        assert!(util > 0.85, "utilization {util}");
    }

    #[test]
    fn skinny_gemm_wastes_the_array() {
        // N=10 uses 10 of 32 columns.
        let unit = GemmUnit::new(GemmConfig::paper());
        let r = unit.layer_report(GemmWorkload::new(1024, 512, 10));
        assert!(r.utilization(unit.config()) < 0.4);
    }

    #[test]
    fn tile_cycles_sum_close_to_layer_cycles() {
        let unit = GemmUnit::new(GemmConfig::paper());
        let w = GemmWorkload::new(1024, 256, 256);
        let whole = unit.layer_report(w);
        let mut tiled = GemmReport::default();
        for _ in 0..4 {
            tiled.merge(&unit.tile_report(w, 256));
        }
        assert_eq!(tiled.macs, whole.macs);
        // Tiling costs extra fill/drain skew but stays within ~30%.
        let ratio = tiled.compute_cycles as f64 / whole.compute_cycles as f64;
        assert!((1.0..1.30).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn conv_mapping() {
        let w = GemmWorkload::from_conv(56, 56, 64, 256, 1);
        assert_eq!(w.m, 3136);
        assert_eq!(w.k, 64);
        assert_eq!(w.n, 256);
        assert_eq!(w.macs(), 3136 * 64 * 256);
    }

    #[test]
    fn trace_tile_spans_align_with_tile_report() {
        let unit = GemmUnit::new(GemmConfig::paper());
        let w = GemmWorkload::new(1024, 256, 256);
        let mut sink = tandem_trace::ChromeTraceSink::new();
        let end = unit.trace_tile(w, 256, 100, &mut sink);
        assert_eq!(end, 100 + unit.tile_report(w, 256).compute_cycles);
        assert!(!sink.is_empty());
    }

    #[test]
    fn empty_workload_is_free() {
        let unit = GemmUnit::new(GemmConfig::paper());
        let r = unit.tile_report(GemmWorkload::new(0, 0, 0), 0);
        assert_eq!(r.compute_cycles, 0);
        assert_eq!(r.energy_nj, 0.0);
    }
}
