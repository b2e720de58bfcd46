//! Tile-size selection (paper §6 "Tiling optimization"): tiles must be
//! "big enough to encompass all the adjacent elements of an input tensor
//! for the non-GEMM operation, while small enough to fit on the limited
//! on-chip scratchpads". This module decides per-operator tile shapes and
//! drives [`crate::OpLowering`]'s templates to produce `(program,
//! repetition)` pairs.
//!
//! Layout convention: SIMD lanes carry the *independent* dimension
//! (channels for image operators, token/head instances for transformer
//! reductions); scratchpad rows carry the walked dimension. Reduction
//! extents are never split across tiles when they fit on chip — when a
//! reduction is larger than the Interim BUF (e.g. the 112×112 global pools
//! of EfficientNet's first SE block), it is chunked into partial
//! reductions, mirroring what the paper's compiler must do.
//!
//! Every decision is a point in an explicit per-family search space: the
//! hand-rolled heuristic supplies the *baseline* [`TileChoice`], a
//! [`crate::Schedule`] carried by the lowering may pin an alternative, and
//! [`Tiler::choices`] enumerates the legal alternatives the `tandem-tune`
//! search may explore. Overrides are validated against the same capacity
//! predicates the lowering templates allocate under (and `tandem-verify`
//! re-checks); an illegal or wrong-family override silently falls back to
//! the baseline, so a mutated schedule can never make compilation fail
//! where the baseline would succeed.

use crate::codegen::View;
use crate::lower::{CompileError, CompiledOp, OpLowering};
use crate::tune_space::TileChoice;
use std::collections::BTreeSet;
use tandem_isa::{Namespace, Program};
use tandem_model::{Graph, Node, OpClass, OpKind};

/// A chosen tile decomposition for one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePlan {
    /// Rows of one tile (per lane-group).
    pub tile_rows: u16,
    /// Number of tile executions.
    pub tiles: u64,
}

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

    /// Splits `total_rows` into equal tiles of at most `budget_rows`.
    pub fn plan(&self, total_rows: u64, budget_rows: u64) -> TilePlan {
        let budget = budget_rows.max(1);
        let tile_rows = total_rows.min(budget).max(1);
        TilePlan {
            tile_rows: tile_rows.min(u16::MAX as u64) as u16,
            tiles: total_rows.div_ceil(tile_rows),
        }
    }

    fn rows_for(&self, elems: u64) -> u64 {
        elems.div_ceil(self.lanes as u64)
    }

    // ----- element-wise family --------------------------------------

    fn ew_shape(&self, graph: &Graph, node: &Node) -> EwShape {
        let out_elems = graph.tensor(node.outputs[0]).shape.elements() as u64;
        EwShape {
            rows_total: self.rows_for(out_elems).max(1),
            io_in: 1 + u64::from(needs_x2(node.kind)),
            io_bufs: 1 + node.inputs.len().min(2) as u64,
            temps: temp_buffers(node.kind) as u64,
        }
    }

    /// The largest legal tile for an element-wise node. Baseline layout
    /// shares Interim BUF 1 between inputs and output; `y_in_interim2`
    /// moves the output above the template temps in Interim BUF 2,
    /// trading temp headroom for input-side row budget.
    fn ew_cap(&self, s: &EwShape, y_in_interim2: bool) -> u64 {
        let ir = self.interim_rows as u64;
        let cap = if y_in_interim2 {
            (ir / s.io_in).min(ir / (s.temps + 1))
        } else {
            ir / s.io_bufs.max(s.temps)
        };
        cap.min(s.rows_total).min(u16::MAX as u64)
    }

    fn ew_legal(&self, s: &EwShape, rows: u16, split: u16, y_in_interim2: bool) -> bool {
        rows >= 1
            && split >= 1
            && rows.is_multiple_of(split)
            && u64::from(rows) <= self.ew_cap(s, y_in_interim2)
    }

    fn build_elementwise(
        &self,
        lowering: &OpLowering,
        node: &Node,
        s: &EwShape,
        rows: u16,
        split: u16,
        y_in_interim2: bool,
    ) -> Result<Vec<(Program, u64)>, CompileError> {
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
        Ok(vec![(prog, s.rows_total.div_ceil(u64::from(r)))])
    }

    // ----- reduction family -----------------------------------------

    fn red_shape(&self, graph: &Graph, node: &Node) -> RedShape {
        if node.kind == OpKind::GlobalAveragePool {
            let s = &graph.tensor(node.inputs[0]).shape;
            RedShape {
                d: (s.dim(2) * s.dim(3)) as u64,
                groups_total: (s.dim(1) as u64).div_ceil(self.lanes as u64),
                softmax: false,
                gap: true,
            }
        } else {
            let d = out_shapes_last_input_axis(graph, node) as u64;
            let instances = (input_elems(graph, node) / d.max(1)).max(1);
            RedShape {
                d,
                groups_total: instances.div_ceil(self.lanes as u64).max(1),
                softmax: node.kind == OpKind::Softmax,
                gap: false,
            }
        }
    }

    /// The largest legal group count for a `d_chunk`-row reduction chunk.
    /// Softmax allocates `m(g) + s(g·dc) + e(g·dc) + sum(g)` plus the 3
    /// `g·dc`-row `i-exp` temps in Interim BUF 2 (`g·(5dc+2) ≤ ir`, which
    /// also covers the `2·g·dc` x+y residency in BUF 1); mean-family
    /// reductions only keep x (`g·dc`) and y (`g`) in BUF 1
    /// (`g·(dc+1) ≤ ir`).
    fn red_g_cap(&self, s: &RedShape, dc: u64) -> u64 {
        let ir = self.interim_rows as u64;
        let per_group = if s.softmax { 5 * dc + 2 } else { dc + 1 };
        (ir / per_group).min(s.groups_total).min(u16::MAX as u64)
    }

    fn red_legal(&self, s: &RedShape, dc: u64, g: u64) -> bool {
        dc >= 1 && dc <= s.d.min(u16::MAX as u64) && g >= 1 && g <= self.red_g_cap(s, dc)
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
    ) -> Result<Vec<(Program, u64)>, CompileError> {
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
        Ok(vec![(prog, reps)])
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
        })
    }

    fn win_legal(&self, ws: &WinShape, oh_t: u64) -> bool {
        oh_t >= 1
            && oh_t <= ws.oh.min(u16::MAX as u64)
            && win_fits(
                self.interim_rows as u64,
                ws.k,
                ws.stride,
                oh_t,
                ws.w_t,
                ws.ow_t,
            )
    }

    fn build_window(
        &self,
        lowering: &OpLowering,
        kind: OpKind,
        ws: &WinShape,
        oh_t: u64,
        swap_kernel_loops: bool,
    ) -> Result<Vec<(Program, u64)>, CompileError> {
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
        Ok(vec![(prog, reps)])
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
    ) -> Result<Vec<(Program, u64)>, CompileError> {
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
        Ok(vec![(prog, rows_total.div_ceil(u64::from(words)))])
    }

    // ----- lowering entry point -------------------------------------

    /// Lowers one node into tile programs, honoring `choice` — the
    /// [`TileChoice`] the lowering's [`crate::Schedule`] pins at this
    /// node's site ([`OpLowering::choice_for`]) — when it is legal.
    /// GEMM-class nodes are rejected (they run on the systolic array).
    ///
    /// # Errors
    ///
    /// [`CompileError`] on unsupported nodes or resource exhaustion.
    pub fn lower(
        &self,
        lowering: &OpLowering,
        graph: &Graph,
        node: &Node,
        choice: Option<TileChoice>,
    ) -> Result<CompiledOp, CompileError> {
        let kind = node.kind;
        if kind.class() == OpClass::Gemm {
            return Err(CompileError::Unsupported { kind });
        }

        let tiles = match kind {
            // pure metadata — free on the Tandem Processor
            OpKind::Reshape | OpKind::Flatten | OpKind::Squeeze | OpKind::Unsqueeze => Vec::new(),

            // reductions over the last axis (and global average pooling)
            OpKind::Softmax | OpKind::ReduceMean | OpKind::GlobalAveragePool => {
                let s = self.red_shape(graph, node);
                let (dc, g) = match choice {
                    Some(TileChoice::Reduce { d_chunk, groups })
                        if self.red_legal(&s, u64::from(d_chunk), u64::from(groups)) =>
                    {
                        (u64::from(d_chunk), u64::from(groups))
                    }
                    _ => self.red_baseline(&s),
                };
                self.build_reduce(lowering, &s, dc, g)?
            }

            // window operators: channels across lanes, one output-row
            // strip per tile
            OpKind::MaxPool | OpKind::AveragePool | OpKind::DepthwiseConv => {
                let ws = self.win_shape(graph, node)?;
                let (oh_t, swap) = match choice {
                    Some(TileChoice::Window {
                        out_rows,
                        swap_kernel_loops,
                    }) if self.win_legal(&ws, u64::from(out_rows)) => {
                        (u64::from(out_rows), swap_kernel_loops)
                    }
                    _ => (ws.oh_cap, false),
                };
                self.build_window(lowering, kind, &ws, oh_t, swap)?
            }

            // layout movement through the Permute Engine
            OpKind::Transpose
            | OpKind::Concat
            | OpKind::Split
            | OpKind::Slice
            | OpKind::Gather
            | OpKind::Resize => {
                let out_elems = graph.tensor(node.outputs[0]).shape.elements() as u64;
                let rows_total = self.rows_for(out_elems);
                let tile_rows = match choice {
                    Some(TileChoice::Permute { rows })
                        if rows >= 1 && u64::from(rows) <= self.perm_cap(rows_total) =>
                    {
                        rows
                    }
                    _ => {
                        self.plan(rows_total, self.interim_rows as u64 / 2)
                            .tile_rows
                    }
                };
                self.build_permute(lowering, kind, rows_total, tile_rows)?
            }

            // everything element-wise (math, activations, casts, Where)
            _ => {
                let s = self.ew_shape(graph, node);
                let (rows, split, ns2) = match choice {
                    Some(TileChoice::Elementwise {
                        rows,
                        split,
                        y_in_interim2,
                    }) if self.ew_legal(&s, rows, split, y_in_interim2) => {
                        (rows, split, y_in_interim2)
                    }
                    _ => (
                        self.plan(s.rows_total, self.ew_cap(&s, false)).tile_rows,
                        1,
                        false,
                    ),
                };
                self.build_elementwise(lowering, node, &s, rows, split, ns2)?
            }
        };
        Ok(CompiledOp { kind, tiles })
    }

    // ----- search-space enumeration ---------------------------------

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
        let kind = node.kind;
        if kind.class() == OpClass::Gemm
            || matches!(
                kind,
                OpKind::Reshape | OpKind::Flatten | OpKind::Squeeze | OpKind::Unsqueeze
            )
        {
            return None;
        }
        // Only nodes the compiler can actually lower are tuning sites.
        self.lower(lowering, graph, node, lowering.choice_for(graph, node))
            .ok()?;

        let mut set: BTreeSet<TileChoice> = BTreeSet::new();
        let baseline = match kind {
            OpKind::Softmax | OpKind::ReduceMean | OpKind::GlobalAveragePool => {
                let s = self.red_shape(graph, node);
                let (bdc, bg) = self.red_baseline(&s);
                let baseline = TileChoice::Reduce {
                    d_chunk: bdc as u16,
                    groups: bg as u16,
                };
                set.insert(baseline);
                // Chunk extents: the full axis, its divisors, the legal
                // cap, the baseline — exact division on both axes kills
                // the partial-tile overcharge.
                let ir = self.interim_rows as u64;
                let dc_cap = if s.softmax {
                    ir.saturating_sub(2) / 5
                } else {
                    ir.saturating_sub(1)
                }
                .min(s.d)
                .min(u16::MAX as u64);
                let mut dcs: BTreeSet<u64> = BTreeSet::new();
                dcs.insert(bdc);
                if dc_cap >= 1 {
                    dcs.insert(dc_cap);
                    dcs.extend(divisors_le(s.d, dc_cap, 2));
                }
                for &dc in &dcs {
                    let g_max = self.red_g_cap(&s, dc);
                    if g_max == 0 {
                        continue;
                    }
                    let mut gs: BTreeSet<u64> = BTreeSet::new();
                    gs.insert(g_max);
                    gs.extend(divisors_le(s.groups_total, g_max, 1));
                    if dc == bdc {
                        gs.insert(bg);
                    }
                    for &g in &gs {
                        if self.red_legal(&s, dc, g) {
                            set.insert(TileChoice::Reduce {
                                d_chunk: dc as u16,
                                groups: g as u16,
                            });
                        }
                    }
                }
                baseline
            }

            OpKind::MaxPool | OpKind::AveragePool | OpKind::DepthwiseConv => {
                let ws = self.win_shape(graph, node).ok()?;
                let baseline = TileChoice::Window {
                    out_rows: ws.oh_cap as u16,
                    swap_kernel_loops: false,
                };
                let mut strips: BTreeSet<u64> = BTreeSet::new();
                strips.insert(ws.oh_cap);
                strips.extend(divisors_le(ws.oh, ws.oh_cap, 2));
                if ws.oh_cap >= 2 {
                    strips.insert(ws.oh_cap / 2);
                }
                for &oh_t in &strips {
                    if !self.win_legal(&ws, oh_t) {
                        continue;
                    }
                    for swap in [false, true] {
                        set.insert(TileChoice::Window {
                            out_rows: oh_t as u16,
                            swap_kernel_loops: swap,
                        });
                    }
                }
                baseline
            }

            OpKind::Transpose
            | OpKind::Concat
            | OpKind::Split
            | OpKind::Slice
            | OpKind::Gather
            | OpKind::Resize => {
                let out_elems = graph.tensor(node.outputs[0]).shape.elements() as u64;
                let rows_total = self.rows_for(out_elems);
                let cap = self.perm_cap(rows_total);
                let baseline = TileChoice::Permute {
                    rows: self
                        .plan(rows_total, self.interim_rows as u64 / 2)
                        .tile_rows,
                };
                set.insert(baseline);
                let mut rows: BTreeSet<u64> = BTreeSet::new();
                rows.insert(cap);
                if cap >= 2 {
                    rows.insert(cap / 2);
                }
                rows.extend(divisors_le(rows_total, cap, 2));
                for &r in &rows {
                    if r >= 1 {
                        set.insert(TileChoice::Permute { rows: r as u16 });
                    }
                }
                baseline
            }

            _ => {
                let s = self.ew_shape(graph, node);
                let baseline = TileChoice::Elementwise {
                    rows: self.plan(s.rows_total, self.ew_cap(&s, false)).tile_rows,
                    split: 1,
                    y_in_interim2: false,
                };
                set.insert(baseline);
                for ns2 in [false, true] {
                    let cap = self.ew_cap(&s, ns2);
                    if cap == 0 {
                        continue;
                    }
                    let mut rows: BTreeSet<u64> = BTreeSet::new();
                    rows.insert(cap);
                    if cap >= 2 {
                        rows.insert(cap / 2);
                    }
                    rows.extend(divisors_le(s.rows_total, cap, 2));
                    for &r in &rows {
                        for split in [1u16, 2] {
                            if !self.ew_legal(&s, r as u16, split, ns2) {
                                continue;
                            }
                            // A split equal to the whole tile degenerates
                            // to the flat loop — skip the duplicate.
                            if split > 1 && r / u64::from(split) <= 1 {
                                continue;
                            }
                            set.insert(TileChoice::Elementwise {
                                rows: r as u16,
                                split,
                                y_in_interim2: ns2,
                            });
                        }
                    }
                }
                baseline
            }
        };
        let candidates: Vec<TileChoice> = set.into_iter().collect();
        if candidates.len() < 2 {
            return None;
        }
        Some((baseline, candidates))
    }
}

fn input_elems(graph: &Graph, node: &Node) -> u64 {
    graph.tensor(node.inputs[0]).shape.elements() as u64
}

fn out_shapes_last_input_axis(graph: &Graph, node: &Node) -> usize {
    graph.tensor(node.inputs[0]).shape.dim(-1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tune_space::Schedule;
    use std::collections::BTreeMap;

    #[test]
    fn plan_splits_evenly() {
        let t = Tiler::new(32, 512);
        let p = t.plan(1000, 512);
        assert_eq!(p.tile_rows, 512);
        assert_eq!(p.tiles, 2);
        let small = t.plan(100, 512);
        assert_eq!(small.tile_rows, 100);
        assert_eq!(small.tiles, 1);
    }

    #[test]
    fn plan_never_zero() {
        let t = Tiler::new(32, 512);
        let p = t.plan(1, 0);
        assert_eq!(p.tile_rows, 1);
        assert_eq!(p.tiles, 1);
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
