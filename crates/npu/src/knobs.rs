//! De-specialization knobs: each undoes one Tandem Processor design
//! decision, converting the simulator into the corresponding conventional
//! design point. These generate the ablations of Figures 6, 8, 18 and 19.

use tandem_core::{EventCounters, RunReport};
use tandem_model::OpKind;

/// Which specializations to *disable* (all `false` = the Tandem
/// Processor as proposed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Despecialization {
    /// Route every vector operand through a vector register file: two
    /// vector loads plus one store per compute instruction (paper §3.1 /
    /// Figure 6a — 41% of non-GEMM runtime).
    pub regfile_ldst: bool,
    /// Execute loops with conditional branches instead of the Code
    /// Repeater: compare + branch + induction update per iteration
    /// (§3.3 / Figure 6c — 70% of non-GEMM runtime).
    pub branch_loops: bool,
    /// Compute scratchpad addresses with explicit arithmetic instructions
    /// instead of the iterator-table front-end: three extra instructions
    /// per two-operand compute (§3.2 / Figure 6b — 59% of non-GEMM
    /// runtime).
    pub sw_addr_calc: bool,
    /// Couple to the GEMM unit through FIFOs instead of taking Output-BUF
    /// ownership: every consumed tile is copied once (§3.5; the
    /// "OBUF" bar of Figure 18).
    pub obuf_fifo: bool,
    /// Grant the alternative design hardware special-function units
    /// (exp/sqrt/tanh… as single instructions, as in Google's VPU): this
    /// *speeds up* the de-specialized design on complex operators (the
    /// "special functions" bar of Figure 18).
    pub special_fn: bool,
}

impl Despecialization {
    /// The Tandem Processor as proposed (no knobs).
    pub fn none() -> Self {
        Self::default()
    }

    /// A TPU-VPU-like vector unit: register file, software loops and
    /// addressing, FIFO coupling, but hardware special functions
    /// (paper §7 "Comparison to Google's VPU").
    pub fn vpu_like() -> Self {
        Despecialization {
            regfile_ldst: true,
            branch_loops: true,
            sw_addr_calc: true,
            obuf_fifo: true,
            special_fn: true,
        }
    }

    /// Extra compute cycles these knobs add on top of a Tandem run with
    /// the given event counters.
    pub fn extra_cycles(&self, c: &EventCounters) -> u64 {
        let mut extra = 0u64;
        if self.regfile_ldst {
            // 2 vector loads + 1 vector store per compute instruction, but
            // a multi-ported register file overlaps most of them with
            // compute — the residual serialization is ~1 cycle per
            // instruction (calibrated to Figure 6a's 41% non-GEMM
            // overhead).
            extra += c.compute_issues;
        }
        if self.sw_addr_calc {
            // 3 address-arithmetic instructions per compute instruction
            // (paper §3.2: "per two-operand arithmetic/logic instruction,
            // three extra instructions would be required solely for
            // address calculation").
            extra += 3 * c.compute_issues;
        }
        if self.branch_loops {
            // compare + taken branch + induction update per iteration.
            extra += 3 * c.loop_steps;
        }
        extra
    }

    /// Cycle factor for a node of `kind` under the special-function knob:
    /// a multi-primitive expansion collapses to ~2 instructions
    /// (op + result move) when the unit has a dedicated instruction.
    pub fn special_fn_factor(&self, kind: OpKind) -> f64 {
        if !self.special_fn {
            return 1.0;
        }
        let expansion = tandem_model::operator_roofline(kind, 32.0, 16.0).ops_per_element;
        if expansion > 4.0 {
            (2.0 / expansion).clamp(0.05, 1.0)
        } else {
            1.0
        }
    }

    /// Applies these knobs to the performance-mode report of one node of
    /// `kind`. The penalty models extra *instructions*, so it lands in the
    /// `despecialization` bucket; the multiplicative special-function
    /// credit then rescales every bucket, so the breakdown keeps summing
    /// to the cycles.
    pub(crate) fn apply(&self, kind: OpKind, report: &mut RunReport) {
        let extra = self.extra_cycles(&report.counters);
        report.compute_cycles += extra;
        report.breakdown.despecialization += extra;
        let factor = self.special_fn_factor(kind);
        if factor < 1.0 {
            report.compute_cycles = ((report.compute_cycles as f64) * factor).ceil() as u64;
            report.breakdown.scale_to(report.compute_cycles);
        }
    }

    /// FIFO copy cycles for one consumed tile of `rows` rows.
    pub fn fifo_cycles(&self, rows: u64) -> u64 {
        if self.obuf_fifo {
            rows
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_knobs_cost_nothing() {
        let c = EventCounters {
            compute_issues: 1000,
            loop_steps: 1000,
            ..Default::default()
        };
        assert_eq!(Despecialization::none().extra_cycles(&c), 0);
        assert_eq!(Despecialization::none().fifo_cycles(512), 0);
        assert_eq!(Despecialization::none().special_fn_factor(OpKind::Exp), 1.0);
    }

    #[test]
    fn each_knob_adds_its_documented_overhead() {
        let c = EventCounters {
            compute_issues: 100,
            loop_steps: 100,
            ..Default::default()
        };
        let rf = Despecialization {
            regfile_ldst: true,
            ..Default::default()
        };
        assert_eq!(rf.extra_cycles(&c), 100);
        let br = Despecialization {
            branch_loops: true,
            ..Default::default()
        };
        assert_eq!(br.extra_cycles(&c), 300);
        let ac = Despecialization {
            sw_addr_calc: true,
            ..Default::default()
        };
        assert_eq!(ac.extra_cycles(&c), 300);
    }

    #[test]
    fn special_functions_speed_up_complex_ops_only() {
        let vpu = Despecialization::vpu_like();
        assert!(vpu.special_fn_factor(OpKind::Exp) < 0.5);
        assert!(vpu.special_fn_factor(OpKind::Softmax) < 0.5);
        assert_eq!(vpu.special_fn_factor(OpKind::Add), 1.0);
        assert_eq!(vpu.special_fn_factor(OpKind::Relu), 1.0);
    }
}
