//! Tile-size selection (paper §6 "Tiling optimization"): tiles must be
//! "big enough to encompass all the adjacent elements of an input tensor
//! for the non-GEMM operation, while small enough to fit on the limited
//! on-chip scratchpads". This module decides per-operator tile shapes and
//! drives [`crate::OpLowering`]'s templates to produce one `(program,
//! repetitions)` pair per node.
//!
//! Layout convention: SIMD lanes carry the *independent* dimension
//! (channels for image operators, token/head instances for transformer
//! reductions); scratchpad rows carry the walked dimension. Reduction
//! extents are never split across tiles when they fit on chip — when a
//! reduction is larger than the Interim BUF (e.g. the 112×112 global pools
//! of EfficientNet's first SE block), it is chunked into partial
//! reductions, mirroring what the paper's compiler must do.
//!
//! A node's kind picks its operator family once, in one match: the
//! family description holds the node's residency shape, and everything
//! else reads it — the hand-rolled *baseline* [`TileChoice`], the
//! legality test of a choice, the program build, and the alternatives
//! [`Tiler::choices`] enumerates for the `tandem-tune` search. A
//! [`crate::Schedule`] carried by the lowering may pin an alternative;
//! the legality test is the capacity predicate the templates allocate
//! under (and `tandem-verify` re-checks), and an illegal or wrong-family
//! choice silently falls back to the baseline, so a mutated schedule can
//! never make compilation fail where the baseline would succeed. The
//! baseline must pass the same test: a machine whose scratchpads cannot
//! hold even the family's smallest tile is refused with
//! [`CompileError::OutOfScratchpad`].

use crate::codegen::View;
use crate::lower::{CompileError, CompiledOp, OpLowering};
use crate::tune_space::TileChoice;
use std::collections::BTreeSet;
use tandem_isa::{Namespace, Program};
use tandem_model::{Graph, Node, OpClass, OpKind};

/// Tile-size policy bound to a machine shape.
#[derive(Debug, Clone, Copy)]
pub struct Tiler {
    lanes: usize,
    interim_rows: usize,
}

/// Temp buffers (Interim BUF 2 rows-multiples) each element-wise template
/// allocates; bounds the tile so temps fit. Exact for the compound
/// templates (sigmoid = 4 locals + 3 from its nested `i-exp`, tanh = 1 +
/// sigmoid's 7, gelu = 2 + erf's 2); a safe over-bound of 1 for the plain
/// ALU ops that allocate nothing.
fn temp_buffers(kind: OpKind) -> usize {
    match kind {
        OpKind::Exp => 3,
        OpKind::Erf => 2,
        OpKind::Gelu => 4,
        OpKind::Sigmoid => 7,
        OpKind::Tanh => 8,
        OpKind::Sqrt => 4,
        OpKind::LeakyRelu => 1,
        _ => 1,
    }
}

/// Element-wise kinds whose template consumes a second input tile.
fn needs_x2(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::Add
            | OpKind::Sub
            | OpKind::Mul
            | OpKind::Div
            | OpKind::Greater
            | OpKind::Equal
            | OpKind::Less
            | OpKind::Where
    )
}

/// The largest `limit` divisors of `n` that are ≤ `cap`, descending.
/// Divisor tiles split `n` exactly, eliminating the partial tile the cost
/// model charges at full price — the autotuner's main lever. Bounded by
/// `cap` iterations (a scratchpad height, ≤ a few hundred).
fn divisors_le(n: u64, cap: u64, limit: usize) -> Vec<u64> {
    let mut out = Vec::new();
    let mut d = cap.min(n);
    while d >= 1 && out.len() < limit {
        if n.is_multiple_of(d) {
            out.push(d);
        }
        d -= 1;
    }
    out
}

/// The tile heights the tuner tries for `total` rows under a legal
/// `cap`: the cap, half of it, and the two largest exact divisors.
fn tile_options(total: u64, cap: u64) -> BTreeSet<u64> {
    let mut options = BTreeSet::from([cap]);
    if cap >= 2 {
        options.insert(cap / 2);
    }
    options.extend(divisors_le(total, cap, 2));
    options
}

/// The window-family fit predicate: a strip of `oh_t` output rows keeps
/// the input halo AND the output strip resident together (the output
/// lives right after the input rows), and the innermost window walk runs
/// up to `k − 1` input rows plus `(ow_t − 1)·stride + k − 1` columns past
/// the strip origin. `tandem-verify` bounds exactly these two address
/// walks against the Interim capacity, so the predicate mirrors them.
fn win_fits(ir: u64, k: u64, stride: u64, oh_t: u64, w_t: u64, ow_t: u64) -> bool {
    let in_rows = ((oh_t - 1) * stride + k) * w_t;
    let y_max = in_rows + oh_t * ow_t - 1;
    let x_max = (oh_t - 1) * stride * w_t + (ow_t - 1) * stride + (k - 1) * w_t + (k - 1);
    y_max < ir && x_max < ir
}

/// Residency profile of one element-wise node.
#[derive(Debug, Clone, Copy)]
struct EwShape {
    /// Total output rows to cover.
    rows_total: u64,
    /// Input tiles resident in Interim BUF 1 (x, plus x2 for binaries).
    io_in: u64,
    /// Input *and* output tiles when y shares Interim BUF 1 (the
    /// baseline layout).
    io_bufs: u64,
    /// Interim BUF 2 temp budget ([`temp_buffers`]).
    temps: u64,
}

/// Residency profile of one reduction node (softmax / reduce-mean / GAP).
#[derive(Debug, Clone, Copy)]
struct RedShape {
    /// Reduction-axis extent.
    d: u64,
    /// Total lane-groups to reduce.
    groups_total: u64,
    /// Softmax keeps shifted rows + exponentials + 3 `i-exp` temps
    /// resident in Interim BUF 2; mean-family reductions keep nothing.
    softmax: bool,
    /// Global-average-pool uses its own (milder) baseline heuristic.
    gap: bool,
}

impl RedShape {
    /// Rows one group of a `dc`-row chunk keeps resident. Softmax
    /// allocates `m(g) + s(g·dc) + e(g·dc) + sum(g)` plus the 3
    /// `g·dc`-row `i-exp` temps in Interim BUF 2 (`5dc+2` per group,
    /// which also covers the `2·g·dc` x+y residency in BUF 1);
    /// mean-family reductions only keep x (`g·dc`) and y (`g`) in BUF 1.
    fn group_rows(&self, dc: u64) -> u64 {
        if self.softmax {
            5 * dc + 2
        } else {
            dc + 1
        }
    }
}

/// Residency profile of one window node (pool / depthwise conv).
#[derive(Debug, Clone, Copy)]
struct WinShape {
    k: u64,
    stride: u64,
    oh: u64,
    w_t: u64,
    ow_t: u64,
    w_tiles: u64,
    ch_tiles: u64,
    spatial_fold: u64,
    /// Largest strip height that fits — the baseline (greedy) choice.
    oh_cap: u64,
    /// Interim BUF 2 rows of depthwise weights (`k²`) and bias (1); 0
    /// for pools.
    weight_rows: u64,
}

/// One non-GEMM node's operator family with its residency shape: the
/// only place a node's kind picks a template. [`Tiler::lower`] and
/// [`Tiler::choices`] both read it.
#[derive(Debug, Clone, Copy)]
enum Family {
    /// Pure metadata: free on the Tandem Processor, no program.
    Metadata,
    /// Reductions over the last axis, and global average pooling.
    Reduce(RedShape),
    /// Window operators: channels across lanes, one output-row strip per
    /// tile.
    Window(WinShape),
    /// Layout movement through the Permute Engine.
    Permute {
        /// Total output rows to move.
        rows_total: u64,
    },
    /// Everything element-wise (math, activations, casts, Where).
    Elementwise(EwShape),
}

impl Tiler {
    /// Creates the policy for `lanes` lanes and `interim_rows` rows per
    /// Interim BUF, of which it plans with the rows a
    /// [`crate::TileProgramBuilder`] can address (at most `u16::MAX`).
    pub fn new(lanes: usize, interim_rows: usize) -> Self {
        Tiler {
            lanes,
            interim_rows: usize::from(crate::codegen::usable_rows(interim_rows)),
        }
    }

    /// Rows of one of the equal tiles that split `total_rows` into tiles
    /// of at most `budget_rows`.
    fn plan(&self, total_rows: u64, budget_rows: u64) -> u16 {
        total_rows
            .min(budget_rows.max(1))
            .max(1)
            .min(u64::from(u16::MAX)) as u16
    }

    /// The family of `node`, with its residency shape.
    ///
    /// # Errors
    ///
    /// [`CompileError::Unsupported`] for GEMM-class nodes (they run on
    /// the systolic array); [`CompileError::OutOfScratchpad`] for a
    /// window whose one-row strip does not fit.
    fn family(&self, graph: &Graph, node: &Node) -> Result<Family, CompileError> {
        let rows_total = || {
            let out_elems = graph.tensor(node.outputs[0]).shape.elements() as u64;
            out_elems.div_ceil(self.lanes as u64)
        };
        Ok(match node.kind {
            kind if kind.class() == OpClass::Gemm => {
                return Err(CompileError::Unsupported { kind });
            }
            OpKind::Reshape | OpKind::Flatten | OpKind::Squeeze | OpKind::Unsqueeze => {
                Family::Metadata
            }
            OpKind::Softmax | OpKind::ReduceMean | OpKind::GlobalAveragePool => {
                Family::Reduce(self.red_shape(graph, node))
            }
            OpKind::MaxPool | OpKind::AveragePool | OpKind::DepthwiseConv => {
                Family::Window(self.win_shape(graph, node)?)
            }
            OpKind::Transpose
            | OpKind::Concat
            | OpKind::Split
            | OpKind::Slice
            | OpKind::Gather
            | OpKind::Resize => Family::Permute {
                rows_total: rows_total(),
            },
            kind => Family::Elementwise(EwShape {
                rows_total: rows_total().max(1),
                io_in: 1 + u64::from(needs_x2(kind)),
                io_bufs: 1 + node.inputs.len().min(2) as u64,
                temps: temp_buffers(kind) as u64,
            }),
        })
    }

    /// The family's hand-rolled choice (`None` for metadata, which has no
    /// tile).
    ///
    /// # Errors
    ///
    /// [`CompileError::OutOfScratchpad`] when the baseline fails the
    /// family's own legality test: the scratchpads cannot hold even the
    /// family's smallest tile, so neither can they hold any other.
    fn baseline(&self, family: &Family) -> Result<Option<TileChoice>, CompileError> {
        let ir = self.interim_rows as u64;
        let choice = match *family {
            Family::Metadata => return Ok(None),
            Family::Reduce(s) => {
                let (dc, g) = self.red_baseline(&s);
                TileChoice::Reduce {
                    d_chunk: dc as u16,
                    groups: g as u16,
                }
            }
            Family::Window(ws) => TileChoice::Window {
                out_rows: ws.oh_cap as u16,
                swap_kernel_loops: false,
            },
            Family::Permute { rows_total } => TileChoice::Permute {
                rows: self.plan(rows_total, ir / 2),
            },
            Family::Elementwise(s) => TileChoice::Elementwise {
                rows: self.plan(s.rows_total, self.ew_cap(&s, false)),
                split: 1,
                y_in_interim2: false,
            },
        };
        if self.admits(family, choice) {
            return Ok(Some(choice));
        }
        // The scratchpad the smallest tile overflows, and its rows there.
        let (ns, requested) = match *family {
            Family::Reduce(s) if s.softmax => (Namespace::Interim2, s.group_rows(1)),
            Family::Window(ws) => (Namespace::Interim2, ws.weight_rows),
            Family::Elementwise(s) if s.temps > s.io_bufs => (Namespace::Interim2, s.temps),
            Family::Elementwise(s) => (Namespace::Interim1, s.io_bufs),
            Family::Reduce(s) => (Namespace::Interim1, s.group_rows(1)),
            Family::Metadata | Family::Permute { .. } => (Namespace::Interim1, 1),
        };
        Err(CompileError::OutOfScratchpad {
            ns,
            requested: requested as usize,
            available: self.interim_rows,
        })
    }

    /// The legality test: whether `choice` is one of `family`'s and its
    /// tile fits the scratchpads — the capacity predicates the templates
    /// allocate under.
    // Inlined (with `ew_cap`) so that the baseline's own fit check folds
    // into its construction: lowering repeats no division for it.
    #[inline(always)]
    fn admits(&self, family: &Family, choice: TileChoice) -> bool {
        let ir = self.interim_rows as u64;
        match (*family, choice) {
            (Family::Reduce(s), TileChoice::Reduce { d_chunk, groups }) => {
                let dc = u64::from(d_chunk);
                dc >= 1 && dc <= s.d && groups >= 1 && u64::from(groups) <= self.red_g_cap(&s, dc)
            }
            (Family::Window(ws), TileChoice::Window { out_rows, .. }) => {
                let oh_t = u64::from(out_rows);
                ws.weight_rows <= ir
                    && oh_t >= 1
                    && oh_t <= ws.oh
                    && win_fits(ir, ws.k, ws.stride, oh_t, ws.w_t, ws.ow_t)
            }
            (Family::Permute { rows_total }, TileChoice::Permute { rows }) => {
                rows >= 1 && u64::from(rows) <= self.perm_cap(rows_total)
            }
            (
                Family::Elementwise(s),
                TileChoice::Elementwise {
                    rows,
                    split,
                    y_in_interim2,
                },
            ) => {
                rows >= 1
                    && split >= 1
                    && rows.is_multiple_of(split)
                    && u64::from(rows) <= self.ew_cap(&s, y_in_interim2)
            }
            _ => false,
        }
    }

    // ----- element-wise family --------------------------------------

    /// The largest legal tile for an element-wise node. Baseline layout
    /// shares Interim BUF 1 between inputs and output; `y_in_interim2`
    /// moves the output above the template temps in Interim BUF 2,
    /// trading temp headroom for input-side row budget.
    #[inline(always)]
    fn ew_cap(&self, s: &EwShape, y_in_interim2: bool) -> u64 {
        let ir = self.interim_rows as u64;
        let cap = if y_in_interim2 {
            (ir / s.io_in).min(ir / (s.temps + 1))
        } else {
            ir / s.io_bufs.max(s.temps)
        };
        cap.min(s.rows_total).min(u16::MAX as u64)
    }

    fn build_elementwise(
        &self,
        lowering: &OpLowering,
        node: &Node,
        s: &EwShape,
        rows: u16,
        split: u16,
        y_in_interim2: bool,
    ) -> Result<(Program, u64), CompileError> {
        let kind = node.kind;
        let r = rows;
        let x = View {
            ns: Namespace::Interim1,
            base: 0,
            rows: r,
        };
        let x2 = needs_x2(kind).then_some(View {
            ns: Namespace::Interim1,
            base: r,
            rows: r,
        });
        let y = if y_in_interim2 {
            View {
                ns: Namespace::Interim2,
                base: s.temps as u16 * r,
                rows: r,
            }
        } else {
            View {
                ns: Namespace::Interim1,
                base: r * s.io_bufs.min(3) as u16 - r,
                rows: r,
            }
        };
        let prog = lowering.elementwise_tile_nested(
            kind,
            node.attrs.alpha,
            (node.attrs.clip_min, node.attrs.clip_max),
            r,
            split,
            x,
            x2,
            y,
        )?;
        Ok((prog, s.rows_total.div_ceil(u64::from(r))))
    }

    // ----- reduction family -----------------------------------------

    fn red_shape(&self, graph: &Graph, node: &Node) -> RedShape {
        let s = &graph.tensor(node.inputs[0]).shape;
        if node.kind == OpKind::GlobalAveragePool {
            RedShape {
                d: (s.dim(2) * s.dim(3)) as u64,
                groups_total: (s.dim(1) as u64).div_ceil(self.lanes as u64),
                softmax: false,
                gap: true,
            }
        } else {
            let d = s.dim(-1) as u64;
            let instances = (s.elements() as u64 / d.max(1)).max(1);
            RedShape {
                d,
                groups_total: instances.div_ceil(self.lanes as u64).max(1),
                softmax: node.kind == OpKind::Softmax,
                gap: false,
            }
        }
    }

    /// The largest legal group count for a `dc`-row reduction chunk
    /// ([`RedShape::group_rows`] rows per group).
    fn red_g_cap(&self, s: &RedShape, dc: u64) -> u64 {
        (self.interim_rows as u64 / s.group_rows(dc))
            .min(s.groups_total)
            .min(u16::MAX as u64)
    }

    /// The hand-rolled `(d_chunk, groups)` heuristic — deliberately more
    /// conservative than [`Tiler::red_g_cap`], which is part of the
    /// tuner's headroom.
    fn red_baseline(&self, s: &RedShape) -> (u64, u64) {
        let ir = self.interim_rows as u64;
        if s.gap {
            let dc = s.d.min(ir / 4).max(1);
            let g = (ir / (dc + 2)).clamp(1, s.groups_total);
            (dc, g)
        } else {
            let d_cap = if s.softmax {
                (ir.saturating_sub(4) / 5).max(1)
            } else {
                (ir / 2).max(1)
            };
            let dc = s.d.min(d_cap).max(1).min(u16::MAX as u64);
            let per_group = if s.softmax { 5 * dc + 4 } else { dc + 2 };
            let g = (ir / per_group)
                .min(ir / (2 * dc))
                .clamp(1, s.groups_total)
                .min(u16::MAX as u64);
            (dc, g)
        }
    }

    fn build_reduce(
        &self,
        lowering: &OpLowering,
        s: &RedShape,
        dc: u64,
        g: u64,
    ) -> Result<(Program, u64), CompileError> {
        let x = View {
            ns: Namespace::Interim1,
            base: 0,
            rows: (g * dc) as u16,
        };
        let y_rows = if s.softmax { (g * dc) as u16 } else { g as u16 };
        let y = View {
            ns: Namespace::Interim1,
            base: x.rows,
            rows: y_rows,
        };
        let prog = if s.softmax {
            lowering.softmax_tile(g as u16, dc as u16, x, y)?
        } else {
            lowering.reduce_mean_tile(g as u16, dc as u16, s.d as i32, x, y)?
        };
        let reps = s.groups_total.div_ceil(g) * s.d.div_ceil(dc);
        Ok((prog, reps))
    }

    // ----- window family --------------------------------------------

    fn win_shape(&self, graph: &Graph, node: &Node) -> Result<WinShape, CompileError> {
        let s = &graph.tensor(node.inputs[0]).shape;
        let out_shape = &graph.tensor(node.outputs[0]).shape;
        let (c, w) = (s.dim(1) as u64, s.dim(3) as u64);
        let k = node.attrs.kernel.max(1) as u64;
        let stride = node.attrs.stride.max(1) as u64;
        let (oh, ow) = (out_shape.dim(2) as u64, out_shape.dim(3) as u64);
        let ir = self.interim_rows as u64;
        let ch_tiles = c.div_ceil(self.lanes as u64);
        // When the machine has far more lanes than channels (the
        // iso-TOPs scale-up), the compiler folds output columns into the
        // spare lanes.
        let spatial_fold = (self.lanes as u64 / c.max(1)).clamp(1, ow);
        // Width split only when even a one-row output strip spills.
        let (w_t, ow_t, w_tiles) = if win_fits(ir, k, stride, 1, w, ow) {
            (w, ow, 1)
        } else {
            let mut wt = (ir / (k + 1)).clamp(1, w);
            loop {
                let owt = (wt / stride).max(1);
                if wt == 1 || win_fits(ir, k, stride, 1, wt, owt) {
                    break (wt, owt, w.div_ceil(wt));
                }
                wt -= 1;
            }
        };
        if !win_fits(ir, k, stride, 1, w_t, ow_t) {
            return Err(CompileError::OutOfScratchpad {
                ns: Namespace::Interim1,
                requested: (k * w_t + ow_t) as usize,
                available: ir as usize,
            });
        }
        let mut oh_cap = 1u64;
        while oh_cap < oh.min(u16::MAX as u64) && win_fits(ir, k, stride, oh_cap + 1, w_t, ow_t) {
            oh_cap += 1;
        }
        Ok(WinShape {
            k,
            stride,
            oh,
            w_t,
            ow_t,
            w_tiles,
            ch_tiles,
            spatial_fold,
            oh_cap,
            weight_rows: if node.kind == OpKind::DepthwiseConv {
                k * k + 1
            } else {
                0
            },
        })
    }

    fn build_window(
        &self,
        lowering: &OpLowering,
        kind: OpKind,
        ws: &WinShape,
        oh_t: u64,
        swap_kernel_loops: bool,
    ) -> Result<(Program, u64), CompileError> {
        let strips = ws.oh.div_ceil(oh_t);
        let in_rows = (((oh_t - 1) * ws.stride + ws.k) * ws.w_t) as u16;
        let x = View {
            ns: Namespace::Interim1,
            base: 0,
            rows: in_rows,
        };
        let y = View {
            ns: Namespace::Interim1,
            base: in_rows,
            rows: (oh_t * ws.ow_t) as u16,
        };
        let (wv, bv) = if kind == OpKind::DepthwiseConv {
            let wv = View {
                ns: Namespace::Interim2,
                base: 0,
                rows: (ws.k * ws.k) as u16,
            };
            let bv = View {
                ns: Namespace::Interim2,
                base: wv.rows,
                rows: 1,
            };
            (Some(wv), Some(bv))
        } else {
            (None, None)
        };
        let prog = lowering.window_tile_ordered(
            kind,
            ws.w_t as u16,
            oh_t as u16,
            ws.ow_t as u16,
            ws.k as u16,
            ws.stride as u16,
            swap_kernel_loops,
            x,
            wv,
            bv,
            y,
        )?;
        let reps = (ws.ch_tiles * strips * ws.w_tiles).div_ceil(ws.spatial_fold);
        Ok((prog, reps))
    }

    // ----- permute family -------------------------------------------

    /// Both scratchpads hold one `rows`-tall tile (source in BUF 1,
    /// destination in BUF 2), so the legal cap is a full Interim BUF —
    /// the baseline's `ir/2` budget is pure headroom for the tuner.
    fn perm_cap(&self, rows_total: u64) -> u64 {
        (self.interim_rows as u64)
            .min(rows_total.max(1))
            .min(u16::MAX as u64)
    }

    fn build_permute(
        &self,
        lowering: &OpLowering,
        kind: OpKind,
        rows_total: u64,
        tile_rows: u16,
    ) -> Result<(Program, u64), CompileError> {
        let src = View {
            ns: Namespace::Interim1,
            base: 0,
            rows: tile_rows,
        };
        let dst = View {
            ns: Namespace::Interim2,
            base: 0,
            rows: tile_rows,
        };
        let cross = kind == OpKind::Transpose;
        let words = tile_rows.max(1);
        let prog = lowering.permute_tile(
            src,
            dst,
            &[words, self.lanes as u16],
            &[self.lanes as i16, 1],
            &[
                if cross { 1 } else { self.lanes as i16 },
                if cross { words as i16 } else { 1 },
            ],
            cross,
        )?;
        Ok((prog, rows_total.div_ceil(u64::from(words))))
    }

    // ----- entry points ---------------------------------------------

    /// Lowers one node into its tile program, honoring `choice` — the
    /// [`TileChoice`] the lowering's [`crate::Schedule`] pins at this
    /// node's site ([`OpLowering::choice_for`]) — when it is legal.
    /// GEMM-class nodes are rejected (they run on the systolic array).
    ///
    /// # Errors
    ///
    /// [`CompileError`] on unsupported nodes or resource exhaustion,
    /// including a machine too small for the node's family.
    pub fn lower(
        &self,
        lowering: &OpLowering,
        graph: &Graph,
        node: &Node,
        choice: Option<TileChoice>,
    ) -> Result<CompiledOp, CompileError> {
        let family = self.family(graph, node)?;
        let Some(baseline) = self.baseline(&family)? else {
            return Ok(CompiledOp {
                kind: node.kind,
                tiles: None,
            });
        };
        let choice = choice
            .filter(|&c| self.admits(&family, c))
            .unwrap_or(baseline);
        let tile = match (family, choice) {
            (Family::Reduce(s), TileChoice::Reduce { d_chunk, groups }) => {
                self.build_reduce(lowering, &s, d_chunk.into(), groups.into())
            }
            (
                Family::Window(ws),
                TileChoice::Window {
                    out_rows,
                    swap_kernel_loops,
                },
            ) => self.build_window(lowering, node.kind, &ws, out_rows.into(), swap_kernel_loops),
            (Family::Permute { rows_total }, TileChoice::Permute { rows }) => {
                self.build_permute(lowering, node.kind, rows_total, rows)
            }
            (
                Family::Elementwise(s),
                TileChoice::Elementwise {
                    rows,
                    split,
                    y_in_interim2,
                },
            ) => self.build_elementwise(lowering, node, &s, rows, split, y_in_interim2),
            _ => unreachable!("{choice:?} is not a choice of {family:?}"),
        };
        Ok(CompiledOp {
            kind: node.kind,
            tiles: Some(tile?),
        })
    }

    /// The tuning site of `node`: the hand-rolled baseline decision and
    /// the legal alternatives (baseline included, deduplicated, in
    /// `TileChoice`'s total order). Returns `None` for GEMM-class and
    /// metadata nodes, nodes that fail to lower at all, and sites with no
    /// alternative worth exploring.
    pub fn choices(
        &self,
        lowering: &OpLowering,
        graph: &Graph,
        node: &Node,
    ) -> Option<(TileChoice, Vec<TileChoice>)> {
        let family = self.family(graph, node).ok()?;
        let Ok(Some(baseline)) = self.baseline(&family) else {
            return None;
        };
        // Only nodes the compiler can actually lower are tuning sites.
        self.lower(lowering, graph, node, lowering.choice_for(graph, node))
            .ok()?;

        // The family's candidate tiles, kept where the family admits them.
        let mut set = BTreeSet::from([baseline]);
        let ir = self.interim_rows as u64;
        match family {
            Family::Metadata => {}
            Family::Reduce(s) => {
                // Chunk extents: the full axis, its divisors, the legal
                // cap, the baseline — exact division on both axes kills
                // the partial-tile overcharge.
                let dc_cap = if s.softmax {
                    ir.saturating_sub(2) / 5
                } else {
                    ir.saturating_sub(1)
                }
                .min(s.d)
                .min(u16::MAX as u64);
                let mut dcs = BTreeSet::from([self.red_baseline(&s).0]);
                if dc_cap >= 1 {
                    dcs.insert(dc_cap);
                    dcs.extend(divisors_le(s.d, dc_cap, 2));
                }
                for dc in dcs {
                    let g_max = self.red_g_cap(&s, dc);
                    for g in divisors_le(s.groups_total, g_max, 1)
                        .into_iter()
                        .chain([g_max])
                    {
                        set.insert(TileChoice::Reduce {
                            d_chunk: dc as u16,
                            groups: g as u16,
                        });
                    }
                }
            }
            Family::Window(ws) => {
                for oh_t in tile_options(ws.oh, ws.oh_cap) {
                    for swap in [false, true] {
                        set.insert(TileChoice::Window {
                            out_rows: oh_t as u16,
                            swap_kernel_loops: swap,
                        });
                    }
                }
            }
            Family::Permute { rows_total } => {
                for r in tile_options(rows_total, self.perm_cap(rows_total)) {
                    set.insert(TileChoice::Permute { rows: r as u16 });
                }
            }
            Family::Elementwise(s) => {
                for ns2 in [false, true] {
                    for r in tile_options(s.rows_total, self.ew_cap(&s, ns2)) {
                        // A split equal to the whole tile degenerates to
                        // the flat loop — skip the duplicate.
                        for split in [1u16, 2]
                            .into_iter()
                            .filter(|&sp| sp == 1 || r / u64::from(sp) > 1)
                        {
                            set.insert(TileChoice::Elementwise {
                                rows: r as u16,
                                split,
                                y_in_interim2: ns2,
                            });
                        }
                    }
                }
            }
        }
        set.retain(|&c| self.admits(&family, c));
        (set.len() >= 2).then(|| (baseline, set.into_iter().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tune_space::Schedule;
    use std::collections::BTreeMap;

    #[test]
    fn plan_splits_evenly() {
        let t = Tiler::new(32, 512);
        assert_eq!(t.plan(1000, 512), 512);
        assert_eq!(t.plan(100, 512), 100);
    }

    #[test]
    fn plan_never_zero() {
        let t = Tiler::new(32, 512);
        assert_eq!(t.plan(1, 0), 1);
        assert_eq!(t.plan(0, 512), 1);
    }

    #[test]
    fn every_enumerated_candidate_lowers() {
        let g = tandem_model::zoo::resnet50();
        let lowering = OpLowering::new(32, 512);
        let t = Tiler::new(32, 512);
        let mut sites = 0usize;
        for node in g.nodes() {
            let Some((baseline, candidates)) = t.choices(&lowering, &g, node) else {
                continue;
            };
            sites += 1;
            assert!(
                candidates.contains(&baseline),
                "baseline missing for {}",
                node.name
            );
            let key = lowering.site_key(&g, node);
            for c in candidates {
                let sched = Schedule::new(BTreeMap::from([(key, c)]));
                let pinned = lowering.clone().with_schedule(sched);
                pinned
                    .lower_node(&g, node)
                    .unwrap_or_else(|e| panic!("{} with {}: {e:?}", node.name, c.render()));
            }
        }
        assert!(sites > 0, "ResNet-50 must expose tuning sites");
    }

    #[test]
    fn illegal_override_falls_back_to_baseline() {
        let g = tandem_model::zoo::resnet50();
        let lowering = OpLowering::new(32, 512);
        let node = g
            .nodes()
            .iter()
            .find(|n| n.kind == OpKind::Relu)
            .expect("ResNet has ReLU");
        let key = lowering.site_key(&g, node);
        let bad = Schedule::new(BTreeMap::from([(
            key,
            TileChoice::Elementwise {
                rows: u16::MAX,
                split: 3,
                y_in_interim2: false,
            },
        )]));
        let pinned = lowering.clone().with_schedule(bad);
        let with_bad = pinned.lower_node(&g, node).expect("falls back");
        let base = lowering.lower_node(&g, node).expect("baseline");
        assert_eq!(with_bad, base);
    }
}
