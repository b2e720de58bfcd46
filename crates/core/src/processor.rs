//! The Tandem Processor pipeline (paper §4.1, Figure 9): fetch with the
//! Code Repeater, decode with the Iterator Tables, strided address
//! calculation, scratchpad read, SIMD ALU, scratchpad write.
//!
//! There is **no register file and no branch logic**: operands are
//! ⟨namespace, iterator⟩ references resolved by the front-end, and loops are
//! replayed by the Code Repeater at an initiation interval of one
//! instruction per cycle with zero bookkeeping overhead — the two
//! specializations Figures 6b/6c attribute 59%/70% of non-GEMM runtime to.

use crate::alu::{alu_binary, alu_is_unary, calculus, compare, saturate_to};
use crate::config::TandemConfig;
use crate::dae::{DataAccessEngine, Dram};
use crate::error::SimError;
use crate::iterator_table::IteratorTable;
use crate::permute::PermuteEngine;
use crate::report::RunReport;
use crate::scratchpad::Scratchpad;
use tandem_isa::{
    Instruction, LoopBindings, Namespace, Operand, Program, TileFunc, MAX_LOOP_LEVELS,
};
use tandem_trace::{NullSink, TraceSink, Track};

/// Simulation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Execute every lane operation on real scratchpad/DRAM data (slow,
    /// bit-exact; used for kernel validation).
    #[default]
    Functional,
    /// Count cycles and events in closed form without touching data
    /// (fast; produces identical [`RunReport`]s for the same program).
    /// A processor built in this mode holds no data: its scratchpads
    /// have no rows, and it needs no DRAM words (`Dram::new(0)` serves).
    Performance,
}

/// One configured Code Repeater level.
#[derive(Debug, Clone, Copy, Default)]
struct LoopLevel {
    count: u32,
    bindings: LoopBindings,
}

/// The simulated processor.
#[derive(Debug, Clone)]
pub struct TandemProcessor {
    cfg: TandemConfig,
    mode: Mode,
    spads: [Scratchpad; 4],
    iters: [IteratorTable; 4],
    imm: Vec<i32>,
    dae: DataAccessEngine,
    permute: PermuteEngine,
}

impl TandemProcessor {
    /// Creates a processor in [`Mode::Functional`].
    pub fn new(cfg: TandemConfig) -> Self {
        Self::with_mode(cfg, Mode::Functional)
    }

    /// Creates a processor in the given mode, fixed for its lifetime. A
    /// [`Mode::Performance`] processor allocates no scratchpad storage.
    pub fn with_mode(cfg: TandemConfig, mode: Mode) -> Self {
        let rows = |rows: usize| if mode == Mode::Functional { rows } else { 0 };
        let spads = [
            Scratchpad::new(Namespace::Interim1, rows(cfg.interim_rows), cfg.lanes),
            Scratchpad::new(Namespace::Interim2, rows(cfg.interim_rows), cfg.lanes),
            // The IMM namespace is scalar slots, not a banked pad; this
            // placeholder keeps namespace indexing uniform for the permute
            // engine (which never targets IMM in compiled code).
            Scratchpad::new(Namespace::Imm, rows(1), cfg.lanes),
            Scratchpad::new(Namespace::Obuf, rows(cfg.obuf_rows), cfg.lanes),
        ];
        let imm = vec![0; cfg.imm_slots];
        TandemProcessor {
            cfg,
            mode,
            spads,
            iters: [
                IteratorTable::new(),
                IteratorTable::new(),
                IteratorTable::new(),
                IteratorTable::new(),
            ],
            imm,
            dae: DataAccessEngine::new(),
            permute: PermuteEngine::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TandemConfig {
        &self.cfg
    }

    /// Borrows a namespace's scratchpad (test / NPU integration access;
    /// on the real chip the Output BUF is filled by the GEMM unit). A
    /// [`Mode::Performance`] processor's scratchpads have no rows.
    pub fn scratchpad(&self, ns: Namespace) -> &Scratchpad {
        &self.spads[ns as usize]
    }

    /// Mutably borrows a namespace's scratchpad.
    pub fn scratchpad_mut(&mut self, ns: Namespace) -> &mut Scratchpad {
        &mut self.spads[ns as usize]
    }

    /// Reads IMM BUF slot `slot`.
    pub fn imm(&self, slot: usize) -> i32 {
        self.imm[slot]
    }

    /// Runs a program to completion.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] raised by an architectural violation (bad
    /// addresses, malformed loop bodies, unconfigured engines, IMM-BUF
    /// destinations).
    pub fn run(&mut self, program: &Program, dram: &mut Dram) -> Result<RunReport, SimError> {
        self.run_traced(program, dram, &mut NullSink)
    }

    /// Runs a program while emitting timeline spans into `sink`
    /// (coalesced configuration runs, Code Repeater nests, permutes and
    /// DMA bursts as spans; syncs as instants). The span clock is the
    /// program-local compute-cycle counter; DMA bursts live on their own
    /// [`Track::Dae`] clock. With a [`NullSink`] this is exactly
    /// [`run`](Self::run) — the sink is consulted through one
    /// `enabled()` test per event site.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run).
    pub fn run_traced(
        &mut self,
        program: &Program,
        dram: &mut Dram,
        sink: &mut dyn TraceSink,
    ) -> Result<RunReport, SimError> {
        let mut report = RunReport::default();
        let mut levels: Vec<LoopLevel> = Vec::new();
        let instrs = program.as_slice();
        let mut pc = 0usize;
        let trace = sink.enabled();
        // Coalesced run of configuration cycles: (start cycle, length).
        // Configuration instructions are emitted as one span per
        // contiguous run, not one span each, to keep traces readable.
        let mut cfg_run: Option<(u64, u64)> = None;
        while pc < instrs.len() {
            let instr = instrs[pc];
            match instr {
                Instruction::IterConfigBase { ns, index, addr } => {
                    self.iters[ns as usize].set_offset(index, addr);
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::IterConfigStride { ns, index, stride } => {
                    self.iters[ns as usize].set_stride(index, stride);
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::ImmWriteLow { index, value } => {
                    self.imm[index as usize] = value as i32;
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::ImmWriteHigh { index, value } => {
                    let slot = &mut self.imm[index as usize];
                    *slot = (*slot & 0xffff) | ((value as i32) << 16);
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::DatatypeConfig { .. } => {
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::Sync(info) => {
                    report.counters.sync_events += 1;
                    report.counters.instructions += 1;
                    report.compute_cycles += 1;
                    report.breakdown.sync += 1;
                    if trace {
                        flush_config_span(sink, &mut cfg_run);
                        sink.instant(
                            Track::Ops,
                            sync_event_name(info),
                            "sync",
                            report.compute_cycles - 1,
                            &[("group", info.group as u64)],
                        );
                    }
                }
                Instruction::LoopSetIter { loop_id, count } => {
                    let id = loop_id as usize;
                    if id >= MAX_LOOP_LEVELS {
                        return Err(SimError::TooManyLoopLevels { requested: id + 1 });
                    }
                    if id < levels.len() {
                        // Reconfiguration truncates deeper levels.
                        levels.truncate(id);
                    } else if id > levels.len() {
                        // Levels must be configured outermost-first.
                        return Err(SimError::TooManyLoopLevels { requested: id + 1 });
                    }
                    levels.push(LoopLevel {
                        count: count as u32,
                        bindings: LoopBindings::none(),
                    });
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::LoopSetIndex { bindings } => {
                    let level = levels.last_mut().ok_or(SimError::IndexWithoutLoop)?;
                    level.bindings = bindings;
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::LoopSetNumInst { count, .. } => {
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                    let body_start = pc + 1;
                    let body_end = body_start + count as usize;
                    if body_end > instrs.len()
                        || !instrs[body_start..body_end].iter().all(|i| i.is_compute())
                    {
                        return Err(SimError::MalformedLoopBody { pc });
                    }
                    let before = report.compute_cycles;
                    self.execute_nest(&levels, &instrs[body_start..body_end], &mut report)?;
                    if trace {
                        flush_config_span(sink, &mut cfg_run);
                        let iterations: u64 = levels.iter().map(|l| l.count as u64).product();
                        sink.span(
                            Track::Ops,
                            "nest",
                            "compute",
                            before,
                            report.compute_cycles - before,
                            &[("body_len", count as u64), ("iterations", iterations)],
                        );
                    }
                    levels.clear();
                    pc = body_end;
                    continue;
                }
                Instruction::PermuteSetBase { is_dst, ns, addr } => {
                    self.permute.set_base(is_dst, ns, addr);
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::PermuteSetIter { dim, count } => {
                    self.permute.set_extent(dim, count);
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::PermuteSetStride {
                    is_dst,
                    dim,
                    stride,
                } => {
                    self.permute.set_stride(is_dst, dim, stride);
                    self.config_cycle(&mut report, trace, &mut cfg_run);
                }
                Instruction::PermuteStart { cross_lane } => {
                    let functional = self.mode == Mode::Functional;
                    let (words, cycles) = self.permute.start(
                        cross_lane,
                        self.cfg.lanes,
                        &mut self.spads,
                        functional,
                    )?;
                    report.counters.permute_words += words;
                    report.counters.instructions += 1;
                    let busy = cycles.max(1);
                    report.compute_cycles += busy;
                    report.breakdown.permute += busy;
                    if trace {
                        flush_config_span(sink, &mut cfg_run);
                        sink.span(
                            Track::Ops,
                            "permute",
                            "compute",
                            report.compute_cycles - busy,
                            busy,
                            &[("words", words), ("cross_lane", cross_lane as u64)],
                        );
                    }
                }
                Instruction::TileLdSt {
                    dir,
                    func,
                    buf,
                    loop_idx,
                    imm,
                } => {
                    match func {
                        TileFunc::ConfigBaseAddr => {
                            self.dae.config_base_addr(dir, loop_idx, imm);
                            self.dae.plan_mut(dir).buf = buf;
                        }
                        TileFunc::ConfigBaseLoopIter => {
                            self.dae.config_loop(dir, false, false, loop_idx, imm);
                        }
                        TileFunc::ConfigBaseLoopStride => {
                            self.dae.config_loop(dir, false, true, loop_idx, imm);
                        }
                        TileFunc::ConfigTileLoopIter => {
                            self.dae.config_loop(dir, true, false, loop_idx, imm);
                        }
                        TileFunc::ConfigTileLoopStride => {
                            self.dae.config_loop(dir, true, true, loop_idx, imm);
                        }
                        TileFunc::Start => {
                            let functional = self.mode == Mode::Functional;
                            let target = self.dae.plan_mut(dir).buf;
                            let spad = &mut self.spads[match target {
                                tandem_isa::TileBuffer::Interim1 => 0,
                                tandem_isa::TileBuffer::Interim2 => 1,
                            }];
                            let (rows, cycles) =
                                self.dae.start(dir, &self.cfg, dram, spad, functional)?;
                            report.counters.dram_words += rows * self.cfg.lanes as u64;
                            report.counters.dma_bursts += 1;
                            report.dma_cycles += cycles;
                            if trace {
                                flush_config_span(sink, &mut cfg_run);
                                sink.span(
                                    Track::Dae,
                                    match dir {
                                        tandem_isa::TileDirection::Load => "dma load",
                                        tandem_isa::TileDirection::Store => "dma store",
                                    },
                                    "dma",
                                    report.dma_cycles - cycles,
                                    cycles,
                                    &[
                                        ("rows", rows),
                                        ("words", rows * self.cfg.lanes as u64),
                                        // Compute-clock position of the burst
                                        // kickoff: lets a viewer line the DAE
                                        // track up against the compute track
                                        // and read the overlap window.
                                        ("issued_at_compute_cycle", report.compute_cycles),
                                    ],
                                );
                            }
                        }
                    }
                    report.counters.instructions += 1;
                    report.compute_cycles += 1;
                    report.breakdown.tile_issue += 1;
                }
                // Bare compute instruction outside any declared loop body:
                // a single-issue nest.
                _ if instr.is_compute() => {
                    let before = report.compute_cycles;
                    self.execute_nest(&levels, &instrs[pc..pc + 1], &mut report)?;
                    if trace {
                        flush_config_span(sink, &mut cfg_run);
                        let iterations: u64 = levels.iter().map(|l| l.count as u64).product();
                        sink.span(
                            Track::Ops,
                            "nest",
                            "compute",
                            before,
                            report.compute_cycles - before,
                            &[("body_len", 1), ("iterations", iterations)],
                        );
                    }
                    levels.clear();
                }
                _ => unreachable!("all instruction kinds handled"),
            }
            pc += 1;
        }
        if trace {
            flush_config_span(sink, &mut cfg_run);
        }
        Ok(report)
    }

    fn config_cycle(&self, report: &mut RunReport, trace: bool, cfg_run: &mut Option<(u64, u64)>) {
        report.counters.instructions += 1;
        report.compute_cycles += 1;
        report.breakdown.config += 1;
        if trace {
            match cfg_run {
                Some((_, len)) => *len += 1,
                None => *cfg_run = Some((report.compute_cycles - 1, 1)),
            }
        }
    }

    /// Executes one loop nest over `body`, charging cycles/events and (in
    /// functional mode) computing results.
    fn execute_nest(
        &mut self,
        levels: &[LoopLevel],
        body: &[Instruction],
        report: &mut RunReport,
    ) -> Result<(), SimError> {
        let total: u64 = levels.iter().map(|l| l.count as u64).product();
        if total == 0 {
            return Ok(());
        }

        // Static per-iteration event profile (identical in both modes).
        let mut spad_reads = 0u64;
        let mut imm_reads = 0u64;
        let mut addr_calcs = 0u64;
        let mut bank_conflicts = 0u64;
        for instr in body {
            let dst = instr.destination().expect("compute has dst");
            if dst.namespace() == Namespace::Imm {
                return Err(SimError::ImmDestination);
            }
            addr_calcs += 1; // dst address
                             // Reads per scratchpad namespace in this issue; a second read
                             // of the same namespace uses the pad's second port.
            let mut ns_reads = [0u64; 4];
            let (src1, src2) = instr.sources().expect("compute has sources");
            for src in std::iter::once(src1).chain(src2) {
                if src.namespace() == Namespace::Imm {
                    imm_reads += 1;
                } else {
                    spad_reads += 1;
                    addr_calcs += 1;
                    ns_reads[src.namespace() as usize] += 1;
                }
            }
            if instr.reads_destination() {
                spad_reads += 1;
                ns_reads[dst.namespace() as usize] += 1;
            }
            bank_conflicts += ns_reads.iter().map(|&n| n.saturating_sub(1)).sum::<u64>();
        }
        let body_len = body.len() as u64;
        let c = &mut report.counters;
        c.instructions += total * body_len;
        c.compute_issues += total * body_len;
        c.alu_lane_ops += total * body_len * self.cfg.lanes as u64;
        c.spad_row_reads += total * spad_reads;
        c.spad_row_writes += total * body_len;
        c.imm_reads += total * imm_reads;
        c.addr_calcs += total * addr_calcs;
        c.loop_steps += total;
        c.spad_bank_conflicts += total * bank_conflicts;
        report.compute_cycles += total * body_len + self.cfg.pipeline_depth;
        report.breakdown.issue += total * body_len;
        report.breakdown.fill += self.cfg.pipeline_depth;

        if self.mode == Mode::Performance {
            return Ok(());
        }

        // Functional execution: odometer over the loop space, innermost =
        // last configured level.
        let mut counters = vec![0u32; levels.len()];
        loop {
            for instr in body {
                self.execute_one(instr, levels, &counters)?;
            }
            // advance odometer
            let mut done = true;
            for i in (0..levels.len()).rev() {
                counters[i] += 1;
                if counters[i] < levels[i].count {
                    done = false;
                    break;
                }
                counters[i] = 0;
            }
            if done || levels.is_empty() {
                break;
            }
        }
        Ok(())
    }

    /// Strided address of `op` in operand slot `slot` under the live loop
    /// counters: `offset(op) + Σ_L counter[L] × stride(binding[L][slot])`.
    fn address(&self, op: Operand, slot: usize, levels: &[LoopLevel], counters: &[u32]) -> i64 {
        let base = self.iters[op.namespace() as usize].entry(op.index()).offset as i64;
        let mut addr = base;
        for (level, &count) in levels.iter().zip(counters.iter()) {
            let binding = match slot {
                0 => level.bindings.dst,
                1 => level.bindings.src1,
                _ => level.bindings.src2,
            };
            if let Some(b) = binding {
                let stride = self.iters[b.namespace() as usize].entry(b.index()).stride as i64;
                addr += count as i64 * stride;
            }
        }
        addr
    }

    fn read_operand(
        &self,
        op: Operand,
        slot: usize,
        levels: &[LoopLevel],
        counters: &[u32],
    ) -> Result<Vec<i32>, SimError> {
        if op.namespace() == Namespace::Imm {
            Ok(vec![self.imm[op.index() as usize]; self.cfg.lanes])
        } else {
            let row = self.address(op, slot, levels, counters);
            Ok(self.spads[op.namespace() as usize].row(row)?.to_vec())
        }
    }

    fn execute_one(
        &mut self,
        instr: &Instruction,
        levels: &[LoopLevel],
        counters: &[u32],
    ) -> Result<(), SimError> {
        let dst = instr.destination().expect("compute has dst");
        let dst_row = self.address(dst, 0, levels, counters);
        let lanes = self.cfg.lanes;
        let result: Vec<i32> = match *instr {
            Instruction::Alu {
                func, src1, src2, ..
            } => {
                let a = self.read_operand(src1, 1, levels, counters)?;
                let b = if alu_is_unary(func) {
                    a.clone()
                } else {
                    self.read_operand(src2, 2, levels, counters)?
                };
                let d = if instr.reads_destination() {
                    self.spads[dst.namespace() as usize].row(dst_row)?.to_vec()
                } else {
                    vec![0; lanes]
                };
                (0..lanes)
                    .map(|i| alu_binary(func, a[i], b[i], d[i]))
                    .collect()
            }
            Instruction::Calculus { func, src1, .. } => {
                let a = self.read_operand(src1, 1, levels, counters)?;
                a.iter().map(|&x| calculus(func, x)).collect()
            }
            Instruction::Comparison {
                func, src1, src2, ..
            } => {
                let a = self.read_operand(src1, 1, levels, counters)?;
                let b = self.read_operand(src2, 2, levels, counters)?;
                (0..lanes).map(|i| compare(func, a[i], b[i])).collect()
            }
            Instruction::DatatypeCast { target, src1, .. } => {
                let a = self.read_operand(src1, 1, levels, counters)?;
                a.iter().map(|&x| saturate_to(target, x)).collect()
            }
            _ => unreachable!("non-compute in body"),
        };
        self.spads[dst.namespace() as usize]
            .row_mut(dst_row)?
            .copy_from_slice(&result);
        Ok(())
    }
}

/// Emits the pending coalesced configuration span, if any.
fn flush_config_span(sink: &mut dyn TraceSink, cfg_run: &mut Option<(u64, u64)>) {
    if let Some((start, len)) = cfg_run.take() {
        sink.span(
            Track::Ops,
            "config",
            "frontend",
            start,
            len,
            &[("instructions", len)],
        );
    }
}

/// Stable trace-event name for a sync instruction.
fn sync_event_name(info: tandem_isa::SyncInfo) -> &'static str {
    use tandem_isa::{SyncEdge, SyncKind};
    match (info.kind, info.edge) {
        (SyncKind::Exec, SyncEdge::Start) => "sync exec start",
        (SyncKind::Exec, SyncEdge::End) => "sync exec end",
        (SyncKind::Buf, SyncEdge::Start) => "sync buf start",
        (SyncKind::Buf, SyncEdge::End) => "sync buf release",
    }
}
