//! Operator templates: lowering each non-GEMM ONNX operator to Tandem ISA
//! programs (paper §6: "the compiler maps the ONNX node to pre-defined
//! operation templates … then iterates the statements in the template and
//! lowers them into instructions").
//!
//! Complex operators are expanded over the integer primitive set following
//! the [`crate::kernels`] reference library; the compiled programs
//! reproduce those kernels bit for bit (validated by the integration
//! tests). Where one loop body would need conflicting per-level iterator
//! bindings, templates split nests — the *loop fission* dependency
//! relaxation of §6.

use crate::codegen::{Fixed, NestLevel, TileProgramBuilder, View};
use crate::kernels;
use crate::tune_space::{Schedule, TileChoice};
use std::error::Error;
use std::fmt;
use tandem_isa::{
    AluFunc, CalculusFunc, CastTarget, ComparisonFunc, Instruction, Namespace, Operand, Program,
};
use tandem_model::{Graph, Node, OpKind};

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// All 32 IMM BUF slots are in use.
    OutOfImmSlots,
    /// A namespace's 32 iterator entries are exhausted.
    OutOfIterators {
        /// The namespace.
        ns: Namespace,
    },
    /// An Interim BUF cannot hold the requested tile.
    OutOfScratchpad {
        /// The namespace.
        ns: Namespace,
        /// Rows requested.
        requested: usize,
        /// Rows remaining.
        available: usize,
    },
    /// A template needed more than the Code Repeater's 8 loop levels.
    TooDeep {
        /// Levels requested.
        levels: usize,
    },
    /// The operator has no Tandem lowering (GEMM-class operators belong to
    /// the systolic array).
    Unsupported {
        /// The operator.
        kind: OpKind,
    },
    /// A scheduled block failed the `tandem-verify` static dataflow pass
    /// (sync pairing, scratchpad bounds, loop discipline, binary closure).
    Verification {
        /// Index of the offending block in schedule order.
        block: usize,
        /// The verifier's findings.
        report: tandem_verify::VerifyReport,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::OutOfImmSlots => write!(f, "IMM BUF slots exhausted"),
            CompileError::OutOfIterators { ns } => {
                write!(f, "iterator table of {ns} exhausted")
            }
            CompileError::OutOfScratchpad {
                ns,
                requested,
                available,
            } => write!(
                f,
                "tile needs {requested} rows of {ns}, only {available} free"
            ),
            CompileError::TooDeep { levels } => {
                write!(f, "{levels} loop levels exceed the Code Repeater's 8")
            }
            CompileError::Unsupported { kind } => {
                write!(f, "operator {kind} has no Tandem lowering")
            }
            CompileError::Verification { block, report } => {
                write!(
                    f,
                    "block {block} failed static verification ({} finding(s)):\n{report}",
                    report.diagnostics.len()
                )
            }
        }
    }
}

impl Error for CompileError {}

/// A lowered operator: one or more tile programs, each executed a number
/// of times (identical tiles share one program; the Data Access Engine's
/// tile-grid odometer walks the tensor between repetitions).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledOp {
    /// The operator this lowers.
    pub kind: OpKind,
    /// `(program, repetitions)` pairs.
    pub tiles: Vec<(Program, u64)>,
}

impl CompiledOp {
    /// Total tile executions.
    pub fn tile_count(&self) -> u64 {
        self.tiles.iter().map(|&(_, n)| n).sum()
    }
}

/// The operator-template library, parameterized by the machine shape and
/// (optionally) a tuner [`Schedule`] overriding per-site tile decisions.
#[derive(Debug, Clone)]
pub struct OpLowering {
    lanes: usize,
    interim_rows: usize,
    schedule: Schedule,
    /// The activation fixed-point format.
    pub fixed: Fixed,
}

impl OpLowering {
    /// Creates the template library for a machine with `lanes` SIMD lanes
    /// and `interim_rows` rows per Interim BUF, under the empty schedule
    /// (every tile decision falls to the hand-rolled heuristics).
    pub fn new(lanes: usize, interim_rows: usize) -> Self {
        OpLowering {
            lanes,
            interim_rows,
            schedule: Schedule::empty(),
            fixed: Fixed::DEFAULT,
        }
    }

    /// This lowering with `schedule` pinning per-site tile decisions —
    /// the compiler side of the candidate materializer. Sites the
    /// schedule does not name keep their heuristics; illegal choices
    /// (ones outside the site's enumerated candidate set) are ignored in
    /// favor of the baseline, so a schedule can never push a template
    /// past its `fits()` predicate.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The active schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The schedule choice pinned at `node`'s tuning site, if any. Free
    /// under the empty schedule: no site key is computed.
    pub fn choice_for(&self, graph: &Graph, node: &Node) -> Option<TileChoice> {
        if self.schedule.is_empty() {
            return None;
        }
        self.schedule.get(self.site_key(graph, node))
    }

    /// The key of `node`'s tuning site on this machine shape
    /// ([`crate::NodeSignature::site_key`]).
    pub fn site_key(&self, graph: &Graph, node: &Node) -> u64 {
        crate::NodeSignature::of(graph, node, self.lanes, self.interim_rows, self.fixed.q)
            .site_key()
    }

    fn builder(&self) -> TileProgramBuilder {
        TileProgramBuilder::new(self.lanes, self.interim_rows)
    }

    /// SIMD lanes of the target machine.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Rows per Interim BUF of the target machine.
    pub fn interim_rows(&self) -> usize {
        self.interim_rows
    }

    // =====================================================================
    // element-wise templates (single 1-level nest over `rows`)
    // =====================================================================

    /// Emits the per-element instruction sequence of `kind` into `body`,
    /// reading `x` (and `x2` for binary operators) and writing `y`; all
    /// operands advance one row per iteration. Returns temp views so the
    /// caller can account scratchpad pressure.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn emit_elementwise_body(
        &self,
        b: &mut TileProgramBuilder,
        kind: OpKind,
        alpha: f64,
        clip: (f64, f64),
        rows: u16,
        x: Operand,
        x2: Option<Operand>,
        y: Operand,
        body: &mut Vec<Instruction>,
    ) -> Result<(), CompileError> {
        use AluFunc::*;
        let q = self.fixed.q;
        let one = self.fixed.one();
        let temp = |b: &mut TileProgramBuilder| -> Result<Operand, CompileError> {
            let v = b.alloc(Namespace::Interim2, rows)?;
            b.iter_at(v, 1)
        };
        match kind {
            OpKind::Add => body.push(Instruction::alu(Add, y, x, x2.expect("binary"))),
            OpKind::Sub => body.push(Instruction::alu(Sub, y, x, x2.expect("binary"))),
            OpKind::Mul => {
                // Fixed-point multiply: product then rescale.
                let qi = b.imm(q as i32)?;
                body.push(Instruction::alu(Mul, y, x, x2.expect("binary")));
                body.push(Instruction::alu(Shr, y, y, qi));
            }
            OpKind::Div => {
                // y = (x ≪ q) / x2 keeps Q(q).
                let qi = b.imm(q as i32)?;
                body.push(Instruction::alu(Shl, y, x, qi));
                body.push(Instruction::alu(Div, y, y, x2.expect("binary")));
            }
            OpKind::Greater => body.push(Instruction::comparison(
                ComparisonFunc::Gt,
                y,
                x,
                x2.expect("binary"),
            )),
            OpKind::Equal => body.push(Instruction::comparison(
                ComparisonFunc::Eq,
                y,
                x,
                x2.expect("binary"),
            )),
            OpKind::Less => body.push(Instruction::comparison(
                ComparisonFunc::Lt,
                y,
                x,
                x2.expect("binary"),
            )),
            OpKind::Pow => {
                // Small integer exponents (2 and 3 are what the zoo uses).
                let e = alpha.round() as u32;
                let qi = b.imm(q as i32)?;
                body.push(Instruction::alu(Mul, y, x, x));
                body.push(Instruction::alu(Shr, y, y, qi));
                for _ in 2..e.max(2) {
                    body.push(Instruction::alu(Mul, y, y, x));
                    body.push(Instruction::alu(Shr, y, y, qi));
                }
            }
            OpKind::Reciprocal => {
                let num = b.imm(1i32 << (2 * q))?;
                body.push(Instruction::alu(Div, y, num, x));
            }
            OpKind::Floor | OpKind::Ceil => {
                // Integers are already integral under Q-format flooring; a
                // Move keeps the dataflow explicit.
                body.push(Instruction::alu(Move, y, x, x));
            }
            OpKind::Relu => {
                let zero = b.imm(0)?;
                body.push(Instruction::alu(Max, y, x, zero));
            }
            OpKind::LeakyRelu => {
                let zero = b.imm(0)?;
                let a = b.imm(self.fixed.of(alpha))?;
                let qi = b.imm(q as i32)?;
                let n = temp(b)?;
                body.push(Instruction::alu(Min, n, x, zero));
                body.push(Instruction::alu(Mul, n, n, a));
                body.push(Instruction::alu(Shr, n, n, qi));
                body.push(Instruction::alu(Max, y, x, zero));
                body.push(Instruction::alu(Add, y, y, n));
            }
            OpKind::Clip => {
                let lo = b.imm(self.fixed.of(clip.0))?;
                let hi = b.imm(self.fixed.of(clip.1))?;
                body.push(Instruction::alu(Max, y, x, lo));
                body.push(Instruction::alu(Min, y, y, hi));
            }
            OpKind::Exp => {
                self.emit_exp(b, rows, x, y, body)?;
            }
            OpKind::Erf => {
                self.emit_erf(b, rows, x, y, body)?;
            }
            OpKind::Gelu => {
                // x/√2 → erf → gate: gelu = x·(1+erf)/2
                let inv_sqrt2 = b.imm(self.fixed.of(1.0 / std::f64::consts::SQRT_2))?;
                let onei = b.imm(one)?;
                let qi = b.imm(q as i32)?;
                let onesh = b.imm(1)?;
                let xr = temp(b)?;
                let e = temp(b)?;
                body.push(Instruction::alu(Mul, xr, x, inv_sqrt2));
                body.push(Instruction::alu(Shr, xr, xr, qi));
                self.emit_erf(b, rows, xr, e, body)?;
                body.push(Instruction::alu(Add, e, e, onei));
                body.push(Instruction::alu(Shr, e, e, onesh));
                body.push(Instruction::alu(Mul, y, x, e));
                body.push(Instruction::alu(Shr, y, y, qi));
            }
            OpKind::Sigmoid => {
                self.emit_sigmoid(b, rows, x, y, body)?;
            }
            OpKind::Tanh => {
                // tanh(x) = 2σ(2x) − 1, with 2x clamped like the kernel.
                let two = b.imm(1)?;
                let lim = b.imm(20 << q)?;
                let nlim = b.imm(-(20 << q))?;
                let onei = b.imm(one)?;
                let t = temp(b)?;
                body.push(Instruction::alu(Shl, t, x, two));
                body.push(Instruction::alu(Min, t, t, lim));
                body.push(Instruction::alu(Max, t, t, nlim));
                self.emit_sigmoid(b, rows, t, y, body)?;
                body.push(Instruction::alu(Shl, y, y, two));
                body.push(Instruction::alu(Sub, y, y, onei));
            }
            OpKind::Sqrt => {
                self.emit_sqrt(b, rows, x, y, body)?;
            }
            OpKind::Where => {
                // inputs: x = condition, x2 = "then"; the "else" value is a
                // broadcast constant in compiled graphs (causal masking).
                let else_v = b.imm(-(8 << q))?;
                body.push(Instruction::alu(Move, y, else_v, else_v));
                body.push(Instruction::alu(CondMove, y, x2.expect("binary"), x));
            }
            OpKind::Cast => {
                body.push(Instruction::DatatypeCast {
                    target: CastTarget::Fxp8,
                    dst: y,
                    src1: x,
                });
            }
            OpKind::BitShift => {
                let s = b.imm(alpha.max(0.0) as i32)?;
                body.push(Instruction::alu(Shr, y, x, s));
            }
            other => return Err(CompileError::Unsupported { kind: other }),
        }
        Ok(())
    }

    /// `i-exp` sequence (13 instructions; see [`kernels::i_exp`]).
    fn emit_exp(
        &self,
        b: &mut TileProgramBuilder,
        rows: u16,
        x: Operand,
        y: Operand,
        body: &mut Vec<Instruction>,
    ) -> Result<(), CompileError> {
        use AluFunc::*;
        let q = self.fixed.q;
        let zero = b.imm(0)?;
        let lo = b.imm(-(16 << q))?;
        let ln2 = b.imm(rescale_q14(kernels::LN2_Q14, q))?;
        let a = b.imm(rescale_q14(kernels::EXP_COEF_A_Q14, q))?;
        let bb = b.imm(rescale_q14(kernels::EXP_COEF_B_Q14, q))?;
        let c = b.imm(rescale_q14(kernels::EXP_COEF_C_Q14, q))?;
        let qi = b.imm(q as i32)?;
        let xv = b.alloc(Namespace::Interim2, rows)?;
        let x2 = b.iter_at(xv, 1)?;
        let zv = b.alloc(Namespace::Interim2, rows)?;
        let z = b.iter_at(zv, 1)?;
        let tv = b.alloc(Namespace::Interim2, rows)?;
        let t = b.iter_at(tv, 1)?;
        body.push(Instruction::alu(Min, x2, x, zero));
        body.push(Instruction::alu(Max, x2, x2, lo));
        body.push(Instruction::calculus(CalculusFunc::Neg, z, x2));
        body.push(Instruction::alu(Div, z, z, ln2));
        body.push(Instruction::alu(Mul, t, z, ln2));
        body.push(Instruction::alu(Add, t, x2, t)); // r = x + z·ln2 … x negative
        body.push(Instruction::alu(Add, t, t, bb)); // t = r + b
        body.push(Instruction::alu(Mul, t, t, t)); // t²
        body.push(Instruction::alu(Shr, t, t, qi));
        body.push(Instruction::alu(Mul, t, t, a));
        body.push(Instruction::alu(Shr, t, t, qi));
        body.push(Instruction::alu(Add, t, t, c));
        body.push(Instruction::alu(Shr, y, t, z)); // p ≫ z (vector shift)
        Ok(())
    }

    /// `i-erf` sequence (10 instructions; see [`kernels::i_erf`]).
    fn emit_erf(
        &self,
        b: &mut TileProgramBuilder,
        rows: u16,
        x: Operand,
        y: Operand,
        body: &mut Vec<Instruction>,
    ) -> Result<(), CompileError> {
        use AluFunc::*;
        let q = self.fixed.q;
        let a = b.imm(rescale_q14(kernels::ERF_A_Q14, q))?;
        let bneg = b.imm(-rescale_q14(kernels::ERF_B_Q14, q))?; // −b = 1.769
        let bc = b.imm(rescale_q14(kernels::ERF_B_Q14, q))?;
        let c = b.imm(rescale_q14(kernels::ERF_C_Q14, q))?;
        let qi = b.imm(q as i32)?;
        let sv = b.alloc(Namespace::Interim2, rows)?;
        let s = b.iter_at(sv, 1)?;
        let tv = b.alloc(Namespace::Interim2, rows)?;
        let t = b.iter_at(tv, 1)?;
        body.push(Instruction::calculus(CalculusFunc::Sign, s, x));
        body.push(Instruction::calculus(CalculusFunc::Abs, t, x));
        body.push(Instruction::alu(Min, t, t, bneg));
        body.push(Instruction::alu(Add, t, t, bc));
        body.push(Instruction::alu(Mul, t, t, t));
        body.push(Instruction::alu(Shr, t, t, qi));
        body.push(Instruction::alu(Mul, t, t, a));
        body.push(Instruction::alu(Shr, t, t, qi));
        body.push(Instruction::alu(Add, t, t, c));
        body.push(Instruction::alu(Mul, y, s, t));
        Ok(())
    }

    /// Branch-free sigmoid: both halves computed, predicate-selected
    /// (CondMove), exactly matching [`kernels::i_sigmoid`].
    fn emit_sigmoid(
        &self,
        b: &mut TileProgramBuilder,
        rows: u16,
        x: Operand,
        y: Operand,
        body: &mut Vec<Instruction>,
    ) -> Result<(), CompileError> {
        use AluFunc::*;
        let q = self.fixed.q;
        let one = b.imm(self.fixed.one())?;
        let zero = b.imm(0)?;
        let qi = b.imm(q as i32)?;
        let nv = b.alloc(Namespace::Interim2, rows)?;
        let nx = b.iter_at(nv, 1)?;
        let ev = b.alloc(Namespace::Interim2, rows)?;
        let e = b.iter_at(ev, 1)?;
        let dv = b.alloc(Namespace::Interim2, rows)?;
        let d = b.iter_at(dv, 1)?;
        let pv = b.alloc(Namespace::Interim2, rows)?;
        let p = b.iter_at(pv, 1)?;
        // e = i_exp(−|x|)
        body.push(Instruction::calculus(CalculusFunc::Abs, nx, x));
        body.push(Instruction::calculus(CalculusFunc::Neg, nx, nx));
        self.emit_exp(b, rows, nx, e, body)?;
        // d = (e ≪ q) / (1 + e)  — the negative branch
        body.push(Instruction::alu(Add, d, e, one));
        body.push(Instruction::alu(Shl, e, e, qi));
        body.push(Instruction::alu(Div, d, e, d));
        // positive branch = 1 − d; select on x ≥ 0
        body.push(Instruction::comparison(ComparisonFunc::Ge, p, x, zero));
        body.push(Instruction::alu(Sub, e, one, d)); // reuse e as pos value
        body.push(Instruction::alu(Move, y, d, d));
        body.push(Instruction::alu(CondMove, y, e, p));
        Ok(())
    }

    /// 16-step Newton square root, matching [`kernels::i_sqrt`].
    fn emit_sqrt(
        &self,
        b: &mut TileProgramBuilder,
        rows: u16,
        x: Operand,
        y: Operand,
        body: &mut Vec<Instruction>,
    ) -> Result<(), CompileError> {
        use AluFunc::*;
        let q = self.fixed.q;
        let zero = b.imm(0)?;
        let one = b.imm(1)?;
        let lim = b.imm((1 << (31 - q)) - 1)?;
        let qi = b.imm(q as i32)?;
        let qh = b.imm((q / 2) as i32)?;
        let vv = b.alloc(Namespace::Interim2, rows)?;
        let v = b.iter_at(vv, 1)?;
        let tv = b.alloc(Namespace::Interim2, rows)?;
        let target = b.iter_at(tv, 1)?;
        let dv = b.alloc(Namespace::Interim2, rows)?;
        let d = b.iter_at(dv, 1)?;
        let pv = b.alloc(Namespace::Interim2, rows)?;
        let p = b.iter_at(pv, 1)?;
        body.push(Instruction::alu(Max, v, x, zero));
        body.push(Instruction::alu(Min, v, v, lim));
        body.push(Instruction::alu(Shl, target, v, qi));
        body.push(Instruction::alu(Shr, y, v, qh));
        body.push(Instruction::alu(Max, y, y, one));
        for _ in 0..16 {
            body.push(Instruction::alu(Div, d, target, y));
            body.push(Instruction::alu(Add, y, y, d));
            body.push(Instruction::alu(Shr, y, y, one));
            body.push(Instruction::alu(Max, y, y, one));
        }
        // zero out non-positive inputs, like the kernel
        body.push(Instruction::comparison(ComparisonFunc::Le, p, x, zero));
        body.push(Instruction::alu(CondMove, y, zero, p));
        Ok(())
    }

    /// [`OpLowering::elementwise_tile_nested`] with the flat (unsplit)
    /// row loop — the hand-rolled compiler's shape.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from resource allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn elementwise_tile(
        &self,
        kind: OpKind,
        alpha: f64,
        clip: (f64, f64),
        rows: u16,
        x: View,
        x2: Option<View>,
        y: View,
    ) -> Result<Program, CompileError> {
        self.elementwise_tile_nested(kind, alpha, clip, rows, 1, x, x2, y)
    }

    /// Builds a complete element-wise tile program over `rows` rows:
    /// `y = kind(x [, x2])`. With `split > 1` (which must divide `rows`)
    /// the flat row loop is emitted as a `rows/split × split` two-level
    /// code-repeater nest walking identical addresses — the nesting knob
    /// the autotuner explores.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from resource allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn elementwise_tile_nested(
        &self,
        kind: OpKind,
        alpha: f64,
        clip: (f64, f64),
        rows: u16,
        split: u16,
        x: View,
        x2: Option<View>,
        y: View,
    ) -> Result<Program, CompileError> {
        let mut b = self.builder();
        let xi = b.iter_at(x, 1)?;
        let x2i = match x2 {
            Some(v) => Some(b.iter_at(v, 1)?),
            None => None,
        };
        let yi = b.iter_at(y, 1)?;
        let mut body = Vec::new();
        self.emit_elementwise_body(&mut b, kind, alpha, clip, rows, xi, x2i, yi, &mut body)?;
        let split = split.max(1);
        if split > 1 && rows.is_multiple_of(split) && rows > split {
            // Outer level advances whole sub-tiles: one shared iterator
            // with stride `split` drives every operand slot (addresses
            // come from each operand's own base; bindings contribute the
            // stride), the inner level reuses the flat stride-1 walk.
            let outer = b.iter(y.ns, y.base, split as i16)?;
            b.nest(
                &[
                    NestLevel {
                        count: rows / split,
                        dst: Some(outer),
                        src1: Some(outer),
                        src2: Some(outer),
                    },
                    NestLevel {
                        count: split,
                        dst: Some(yi),
                        src1: Some(yi),
                        src2: Some(yi),
                    },
                ],
                &body,
            )?;
        } else {
            b.nest(
                &[NestLevel {
                    count: rows,
                    dst: Some(yi),
                    src1: Some(yi),
                    src2: Some(yi),
                }],
                &body,
            )?;
        }
        Ok(b.finish())
    }

    /// Builds a broadcast binary tile program: `y[g][d] = x[g][d] ∘ c[g]`
    /// where `c` holds one row per group (bias adds, attention-mask adds,
    /// normalization divides).
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from resource allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn broadcast_binary_tile(
        &self,
        kind: OpKind,
        groups: u16,
        d: u16,
        x: View,
        c: View,
        y: View,
    ) -> Result<Program, CompileError> {
        let func = match kind {
            OpKind::Add => AluFunc::Add,
            OpKind::Sub => AluFunc::Sub,
            OpKind::Mul => AluFunc::Mul,
            OpKind::Div => AluFunc::Div,
            other => return Err(CompileError::Unsupported { kind: other }),
        };
        let mut b = self.builder();
        let x_outer = b.iter_at(x, d as i16)?;
        let x_inner = b.iter(x.ns, x.base, 1)?;
        let c_outer = b.iter_at(c, 1)?;
        let c_inner = b.iter(c.ns, c.base, 0)?;
        let y_outer = b.iter_at(y, d as i16)?;
        let y_inner = b.iter(y.ns, y.base, 1)?;
        let qi = b.imm(self.fixed.q as i32)?;
        let mut body = vec![Instruction::alu(func, y_inner, x_inner, c_inner)];
        match kind {
            OpKind::Mul => {
                body.push(Instruction::alu(AluFunc::Shr, y_inner, y_inner, qi));
            }
            OpKind::Div => {
                // (x ≪ q) / c: pre-shift x into y, divide in place.
                body.clear();
                body.push(Instruction::alu(AluFunc::Shl, y_inner, x_inner, qi));
                body.push(Instruction::alu(AluFunc::Div, y_inner, y_inner, c_inner));
            }
            _ => {}
        }
        b.nest(
            &[
                NestLevel {
                    count: groups,
                    dst: Some(y_outer),
                    src1: Some(x_outer),
                    src2: Some(c_outer),
                },
                NestLevel {
                    count: d,
                    dst: Some(y_inner),
                    src1: Some(x_inner),
                    src2: Some(c_inner),
                },
            ],
            &body,
        )?;
        Ok(b.finish())
    }

    /// Mean over `d` rows per group: `y[g] = (Σ_r x[g·d + r]) / divisor`.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from resource allocation.
    pub fn reduce_mean_tile(
        &self,
        groups: u16,
        d: u16,
        divisor: i32,
        x: View,
        y: View,
    ) -> Result<Program, CompileError> {
        let mut b = self.builder();
        let zero = b.imm(0)?;
        // Accumulate raw Q-format values (y += x·1); dividing the Q-format
        // sum by the element count yields the Q-format mean directly.
        let onei = b.imm(1)?;
        let div = b.imm(divisor)?;
        let y1 = b.iter_at(y, 1)?;
        let y0 = b.iter(y.ns, y.base, 0)?;
        let x_outer = b.iter_at(x, d as i16)?;
        let x_inner = b.iter(x.ns, x.base, 1)?;
        // init: y = 0
        b.nest(
            &[NestLevel {
                count: groups,
                dst: Some(y1),
                src1: None,
                src2: None,
            }],
            &[Instruction::alu(AluFunc::Move, y1, zero, zero)],
        )?;
        // accumulate: y += x·1.0 (Q-scaled), then rescale+divide
        b.nest(
            &[
                NestLevel {
                    count: groups,
                    dst: Some(y1),
                    src1: Some(x_outer),
                    src2: None,
                },
                NestLevel {
                    count: d,
                    dst: Some(y0),
                    src1: Some(x_inner),
                    src2: None,
                },
            ],
            &[Instruction::alu(AluFunc::Macc, y1, x_inner, onei)],
        )?;
        b.nest(
            &[NestLevel {
                count: groups,
                dst: Some(y1),
                src1: Some(y1),
                src2: None,
            }],
            &[Instruction::alu(AluFunc::Div, y1, y1, div)],
        )?;
        Ok(b.finish())
    }

    /// Integer softmax over `d` rows per group (lanes carry independent
    /// instances), matching [`kernels::i_softmax`] bit for bit.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from resource allocation.
    pub fn softmax_tile(
        &self,
        groups: u16,
        d: u16,
        x: View,
        y: View,
    ) -> Result<Program, CompileError> {
        use AluFunc::*;
        let q = self.fixed.q;
        let mut b = self.builder();
        let neg_inf = b.imm(i32::MIN / 2)?;
        let zero = b.imm(0)?;
        let onei = b.imm(1)?;
        let qi = b.imm(q as i32)?;

        let rows = groups * d;
        let m = b.alloc(Namespace::Interim2, groups)?;
        let s = b.alloc(Namespace::Interim2, rows)?;
        let e = b.alloc(Namespace::Interim2, rows)?;
        let sum = b.alloc(Namespace::Interim2, groups)?;

        let m1 = b.iter_at(m, 1)?;
        let m0 = b.iter(m.ns, m.base, 0)?;
        let x_outer = b.iter_at(x, d as i16)?;
        let x_inner = b.iter(x.ns, x.base, 1)?;

        // 1) m = max over the row
        b.nest(
            &[NestLevel {
                count: groups,
                dst: Some(m1),
                src1: None,
                src2: None,
            }],
            &[Instruction::alu(Move, m1, neg_inf, neg_inf)],
        )?;
        b.nest(
            &[
                NestLevel {
                    count: groups,
                    dst: Some(m1),
                    src1: Some(m1),
                    src2: Some(x_outer),
                },
                NestLevel {
                    count: d,
                    dst: Some(m0),
                    src1: Some(m0),
                    src2: Some(x_inner),
                },
            ],
            &[Instruction::alu(Max, m1, m1, x_inner)],
        )?;
        // 2) s = x − m (broadcast)
        let s_outer = b.iter_at(s, d as i16)?;
        let s_inner = b.iter(s.ns, s.base, 1)?;
        b.nest(
            &[
                NestLevel {
                    count: groups,
                    dst: Some(s_outer),
                    src1: Some(x_outer),
                    src2: Some(m1),
                },
                NestLevel {
                    count: d,
                    dst: Some(s_inner),
                    src1: Some(x_inner),
                    src2: Some(m0),
                },
            ],
            &[Instruction::alu(Sub, s_inner, x_inner, m1)],
        )?;
        // 3) e = i_exp(s), flat over all rows
        let s_flat = b.iter(s.ns, s.base, 1)?;
        let e_flat = b.iter_at(e, 1)?;
        let mut body = Vec::new();
        self.emit_exp(&mut b, rows, s_flat, e_flat, &mut body)?;
        b.nest(
            &[NestLevel {
                count: rows,
                dst: Some(e_flat),
                src1: Some(e_flat),
                src2: Some(e_flat),
            }],
            &body,
        )?;
        // 4) sum = Σ e, guarded to ≥ 1
        let sum1 = b.iter_at(sum, 1)?;
        let sum0 = b.iter(sum.ns, sum.base, 0)?;
        let e_outer = b.iter(e.ns, e.base, d as i16)?;
        let e_inner = b.iter(e.ns, e.base, 1)?;
        b.nest(
            &[NestLevel {
                count: groups,
                dst: Some(sum1),
                src1: None,
                src2: None,
            }],
            &[Instruction::alu(Move, sum1, zero, zero)],
        )?;
        b.nest(
            &[
                NestLevel {
                    count: groups,
                    dst: Some(sum1),
                    src1: Some(e_outer),
                    src2: None,
                },
                NestLevel {
                    count: d,
                    dst: Some(sum0),
                    src1: Some(e_inner),
                    src2: None,
                },
            ],
            &[Instruction::alu(Macc, sum1, e_inner, onei)],
        )?;
        b.nest(
            &[NestLevel {
                count: groups,
                dst: Some(sum1),
                src1: Some(sum1),
                src2: None,
            }],
            &[Instruction::alu(Max, sum1, sum1, onei)],
        )?;
        // 5) y = (e ≪ q) / sum (broadcast)
        let y_outer = b.iter_at(y, d as i16)?;
        let y_inner = b.iter(y.ns, y.base, 1)?;
        b.nest(
            &[
                NestLevel {
                    count: groups,
                    dst: Some(y_outer),
                    src1: Some(e_outer),
                    src2: Some(sum1),
                },
                NestLevel {
                    count: d,
                    dst: Some(y_inner),
                    src1: Some(e_inner),
                    src2: Some(sum0),
                },
            ],
            &[
                Instruction::alu(Shl, y_inner, e_inner, qi),
                Instruction::alu(Div, y_inner, y_inner, sum1),
            ],
        )?;
        Ok(b.finish())
    }

    /// Window reduction (MaxPool / AveragePool / DepthwiseConv) over a
    /// `Valid`-semantics input of `in_h × in_w` rows (channels across
    /// lanes). For depthwise convolution `w` holds the `k²` per-channel
    /// weight rows and `bias` one row; pools pass `None`.
    ///
    /// This is the five-deep nested loop the paper credits the Code
    /// Repeater's biggest wins to (Figure 18: depth-wise convolution, "an
    /// operation with five nested loops").
    ///
    /// `swap_kernel_loops` iterates the kernel window column-major (`kx`
    /// outside `ky`): the two inner levels exchange counts and bindings,
    /// visiting the same addresses in a different order — the loop-order
    /// knob the autotuner explores (max and sum reductions commute, so
    /// results are bit-identical).
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from resource allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn window_tile_ordered(
        &self,
        kind: OpKind,
        in_w: u16,
        out_h: u16,
        out_w: u16,
        kernel: u16,
        stride: u16,
        swap_kernel_loops: bool,
        x: View,
        w: Option<View>,
        bias: Option<View>,
        y: View,
    ) -> Result<Program, CompileError> {
        use AluFunc::*;
        let mut b = self.builder();
        let qi = b.imm(self.fixed.q as i32)?;
        // destination iterators: advance per output position, frozen per
        // kernel tap
        let y_oy = b.iter_at(y, out_w as i16)?;
        let y_ox = b.iter(y.ns, y.base, 1)?;
        let y_frozen = b.iter(y.ns, y.base, 0)?;
        // input iterators: strided walk over the window
        let x_oy = b.iter_at(x, (stride * in_w) as i16)?;
        let x_ox = b.iter(x.ns, x.base, stride as i16)?;
        let x_ky = b.iter(x.ns, x.base, in_w as i16)?;
        let x_kx = b.iter(x.ns, x.base, 1)?;

        // init pass
        let init_src = match (kind, bias) {
            (OpKind::MaxPool, _) => b.imm(i32::MIN / 2)?,
            (_, Some(bias_view)) => b.iter_at(bias_view, 0)?,
            (_, None) => b.imm(0)?,
        };
        b.nest(
            &[
                NestLevel {
                    count: out_h,
                    dst: Some(y_oy),
                    src1: None,
                    src2: None,
                },
                NestLevel {
                    count: out_w,
                    dst: Some(y_ox),
                    src1: None,
                    src2: None,
                },
            ],
            &[Instruction::alu(Move, y_oy, init_src, init_src)],
        )?;

        // main 4-level window nest
        let body = match kind {
            OpKind::MaxPool => vec![Instruction::alu(Max, y_oy, y_oy, x_kx)],
            OpKind::AveragePool => {
                let onei = b.imm(1)?;
                vec![Instruction::alu(Macc, y_oy, x_kx, onei)]
            }
            OpKind::DepthwiseConv => {
                let wv = w.ok_or(CompileError::Unsupported { kind })?;
                let w_ky = b.iter_at(wv, kernel as i16)?;
                let w_kx = b.iter(wv.ns, wv.base, 1)?;
                // bindings for src2 (weights): frozen over oy/ox, advance
                // over ky/kx.
                let w_frozen = b.iter(wv.ns, wv.base, 0)?;
                // macc y,x,w: src1 walks the input window, src2 the
                // per-channel weight taps (frozen across output positions).
                let mut levels = [
                    NestLevel {
                        count: out_h,
                        dst: Some(y_oy),
                        src1: Some(x_oy),
                        src2: Some(w_frozen),
                    },
                    NestLevel {
                        count: out_w,
                        dst: Some(y_ox),
                        src1: Some(x_ox),
                        src2: Some(w_frozen),
                    },
                    NestLevel {
                        count: kernel,
                        dst: Some(y_frozen),
                        src1: Some(x_ky),
                        src2: Some(w_ky),
                    },
                    NestLevel {
                        count: kernel,
                        dst: Some(y_frozen),
                        src1: Some(x_kx),
                        src2: Some(w_kx),
                    },
                ];
                if swap_kernel_loops {
                    levels.swap(2, 3);
                }
                b.nest(&levels, &[Instruction::alu(Macc, y_oy, x_kx, w_kx)])?;
                // rescale the Q·Q products once per output
                b.nest(
                    &[
                        NestLevel {
                            count: out_h,
                            dst: Some(y_oy),
                            src1: Some(y_oy),
                            src2: None,
                        },
                        NestLevel {
                            count: out_w,
                            dst: Some(y_ox),
                            src1: Some(y_ox),
                            src2: None,
                        },
                    ],
                    &[Instruction::alu(Shr, y_oy, y_oy, qi)],
                )?;
                return Ok(b.finish());
            }
            other => return Err(CompileError::Unsupported { kind: other }),
        };
        // MaxPool's src1 is the accumulator (max y,y,x) while
        // AveragePool's src1 is the input window (macc y,x,1) — the
        // per-slot level bindings differ accordingly.
        let (s1, s2): ([Operand; 4], [Operand; 4]) = match kind {
            OpKind::MaxPool => ([y_oy, y_ox, y_frozen, y_frozen], [x_oy, x_ox, x_ky, x_kx]),
            _ => ([x_oy, x_ox, x_ky, x_kx], [x_oy, x_ox, x_ky, x_kx]),
        };
        let mut levels = [
            NestLevel {
                count: out_h,
                dst: Some(y_oy),
                src1: Some(s1[0]),
                src2: Some(s2[0]),
            },
            NestLevel {
                count: out_w,
                dst: Some(y_ox),
                src1: Some(s1[1]),
                src2: Some(s2[1]),
            },
            NestLevel {
                count: kernel,
                dst: Some(y_frozen),
                src1: Some(s1[2]),
                src2: Some(s2[2]),
            },
            NestLevel {
                count: kernel,
                dst: Some(y_frozen),
                src1: Some(s1[3]),
                src2: Some(s2[3]),
            },
        ];
        if swap_kernel_loops {
            levels.swap(2, 3);
        }
        b.nest(&levels, &body)?;
        if kind == OpKind::AveragePool {
            let k2 = b.imm((kernel * kernel) as i32)?;
            b.nest(
                &[
                    NestLevel {
                        count: out_h,
                        dst: Some(y_oy),
                        src1: Some(y_oy),
                        src2: None,
                    },
                    NestLevel {
                        count: out_w,
                        dst: Some(y_ox),
                        src1: Some(y_ox),
                        src2: None,
                    },
                ],
                &[Instruction::alu(Div, y_oy, y_oy, k2)],
            )?;
        }
        Ok(b.finish())
    }

    /// [`OpLowering::window_tile_ordered`] with the row-major kernel walk
    /// — the hand-rolled compiler's loop order.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from resource allocation.
    #[allow(clippy::too_many_arguments)]
    pub fn window_tile(
        &self,
        kind: OpKind,
        in_w: u16,
        out_h: u16,
        out_w: u16,
        kernel: u16,
        stride: u16,
        x: View,
        w: Option<View>,
        bias: Option<View>,
        y: View,
    ) -> Result<Program, CompileError> {
        self.window_tile_ordered(
            kind, in_w, out_h, out_w, kernel, stride, false, x, w, bias, y,
        )
    }

    /// Transpose / layout-move tile via the Permute Engine: `extents` with
    /// independent source/destination word strides.
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from resource allocation.
    pub fn permute_tile(
        &self,
        src: View,
        dst: View,
        extents: &[u16],
        src_strides: &[i16],
        dst_strides: &[i16],
        cross_lane: bool,
    ) -> Result<Program, CompileError> {
        if extents.len() > 8 {
            return Err(CompileError::TooDeep {
                levels: extents.len(),
            });
        }
        let mut b = self.builder();
        b.push(Instruction::PermuteSetBase {
            is_dst: false,
            ns: src.ns,
            addr: src.base * self.lanes as u16,
        });
        b.push(Instruction::PermuteSetBase {
            is_dst: true,
            ns: dst.ns,
            addr: dst.base * self.lanes as u16,
        });
        for (i, (&e, (&ss, &ds))) in extents
            .iter()
            .zip(src_strides.iter().zip(dst_strides.iter()))
            .enumerate()
        {
            b.push(Instruction::PermuteSetIter {
                dim: i as u8,
                count: e,
            });
            b.push(Instruction::PermuteSetStride {
                is_dst: false,
                dim: i as u8,
                stride: ss,
            });
            b.push(Instruction::PermuteSetStride {
                is_dst: true,
                dim: i as u8,
                stride: ds,
            });
        }
        b.push(Instruction::PermuteStart { cross_lane });
        Ok(b.finish())
    }

    /// Lowers one graph node into tile programs (see [`crate::Tiler`] for
    /// the tile-size policy driving the repetition counts).
    ///
    /// # Errors
    ///
    /// [`CompileError::Unsupported`] for GEMM-class nodes (they belong to
    /// the systolic array) or any resource-allocation failure.
    pub fn lower_node(&self, graph: &Graph, node: &Node) -> Result<CompiledOp, CompileError> {
        self.lower_node_as(graph, node, self.choice_for(graph, node))
    }

    /// [`OpLowering::lower_node`] under an already-looked-up schedule
    /// `choice` for `node`'s site (the one [`OpLowering::choice_for`]
    /// returns, or [`crate::NodeSignature::choice`] of the node's
    /// signature).
    pub fn lower_node_as(
        &self,
        graph: &Graph,
        node: &Node,
        choice: Option<TileChoice>,
    ) -> Result<CompiledOp, CompileError> {
        crate::tiling::Tiler::new(self.lanes, self.interim_rows).lower(self, graph, node, choice)
    }
}

/// Rescales a Q14 constant to `Q(q)`.
fn rescale_q14(c: i32, q: u32) -> i32 {
    if q >= 14 {
        c << (q - 14)
    } else {
        c >> (14 - q)
    }
}
