//! End-to-end processor tests: Code-Repeater-driven nests, DMA, permutes,
//! and the functional ≡ performance mode equivalence.

use tandem_core::{Dram, Mode, SimError, TandemConfig, TandemProcessor, TraceSink, Track};
use tandem_isa::{AluFunc, ComparisonFunc, Instruction, LoopBindings, Namespace, Operand, Program};

const IB1: Namespace = Namespace::Interim1;

fn op(ns: Namespace, i: u8) -> Operand {
    Operand::new(ns, i)
}

/// Configures iterator `idx` of `ns` with (base, stride).
fn iter_cfg(p: &mut Program, ns: Namespace, idx: u8, base: u16, stride: i16) {
    p.push(Instruction::IterConfigBase {
        ns,
        index: idx,
        addr: base,
    });
    p.push(Instruction::IterConfigStride {
        ns,
        index: idx,
        stride,
    });
}

/// `y[r] = a[r] + b[r]` for `rows` rows via a 1-deep nest.
fn vector_add_program(rows: u16, a_base: u16, b_base: u16, y_base: u16) -> Program {
    let mut p = Program::new();
    let a = op(IB1, 0);
    let b = op(IB1, 1);
    let y = op(IB1, 2);
    iter_cfg(&mut p, IB1, 0, a_base, 1);
    iter_cfg(&mut p, IB1, 1, b_base, 1);
    iter_cfg(&mut p, IB1, 2, y_base, 1);
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: rows,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(y),
            src1: Some(a),
            src2: Some(b),
        },
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 1,
    });
    p.push(Instruction::alu(AluFunc::Add, y, a, b));
    p
}

#[test]
fn code_repeater_drives_vector_add() {
    let cfg = TandemConfig::tiny();
    let lanes = cfg.lanes;
    let mut proc = TandemProcessor::new(cfg);
    let mut dram = Dram::new(64);
    let rows = 4;
    let a: Vec<i32> = (0..rows * lanes).map(|i| i as i32).collect();
    let b: Vec<i32> = (0..rows * lanes).map(|i| 10 * i as i32).collect();
    proc.scratchpad_mut(IB1).load_rows(0, &a).unwrap();
    proc.scratchpad_mut(IB1).load_rows(8, &b).unwrap();

    let p = vector_add_program(rows as u16, 0, 8, 16);
    let report = proc.run(&p, &mut dram).unwrap();

    let y = proc.scratchpad(IB1).dump_rows(16, rows * lanes).unwrap();
    for (i, &v) in y.iter().enumerate() {
        assert_eq!(v, 11 * i as i32);
    }
    // 7 config (3×2 iter + 1 set_iter… actually 6 iter cfg + 3 loop cfg)
    // + 4 compute issues.
    assert_eq!(report.counters.compute_issues, 4);
    assert_eq!(report.counters.alu_lane_ops, (4 * lanes) as u64);
    assert_eq!(report.counters.spad_row_reads, 8);
    assert_eq!(report.counters.spad_row_writes, 4);
    assert_eq!(report.counters.loop_steps, 4);
}

#[test]
fn two_level_nest_with_stride_zero_accumulator() {
    // sum[r] += x[r*4 + c] over c in 0..4 — a row-wise reduction using a
    // stride-0 iterator for the accumulator at the inner level.
    let cfg = TandemConfig::tiny();
    let lanes = cfg.lanes;
    let mut proc = TandemProcessor::new(cfg);
    let mut dram = Dram::new(64);

    let x: Vec<i32> = (0..8 * lanes).map(|i| i as i32).collect();
    proc.scratchpad_mut(IB1).load_rows(0, &x).unwrap();

    let xop = op(IB1, 0);
    let acc = op(IB1, 1);
    let one = op(Namespace::Imm, 0);
    let mut p = Program::new();
    iter_cfg(&mut p, IB1, 0, 0, 1); // x walks rows 0..8
    iter_cfg(&mut p, IB1, 1, 16, 1); // acc: row 16 + r
                                     // iterator 2: stride 4 for x at the outer (row) level
    iter_cfg(&mut p, IB1, 2, 0, 4);
    // iterator 3: stride 0 (the accumulator does not move inner)
    iter_cfg(&mut p, IB1, 3, 0, 0);
    for i in Instruction::imm_write(0, 1) {
        p.push(i);
    }
    // outer loop: 2 rows; x advances by 4 rows, acc advances by 1.
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(op(IB1, 1)),
            src1: Some(op(IB1, 2)),
            src2: None,
        },
    });
    // inner loop: 4 columns; x advances by 1 row, acc stays.
    p.push(Instruction::LoopSetIter {
        loop_id: 1,
        count: 4,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(op(IB1, 3)),
            src1: Some(op(IB1, 0)),
            src2: None,
        },
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 1,
        count: 1,
    });
    p.push(Instruction::alu(AluFunc::Macc, acc, xop, one));

    proc.run(&p, &mut dram).unwrap();

    // acc row 16 = sum of rows 0..4; row 17 = sum of rows 4..8 (per lane)
    for lane in 0..lanes {
        let expect0: i32 = (0..4).map(|r| (r * lanes + lane) as i32).sum();
        let expect1: i32 = (4..8).map(|r| (r * lanes + lane) as i32).sum();
        assert_eq!(proc.scratchpad(IB1).element(16, lane).unwrap(), expect0);
        assert_eq!(proc.scratchpad(IB1).element(17, lane).unwrap(), expect1);
    }
}

#[test]
fn comparison_plus_cond_move_implements_relu() {
    let cfg = TandemConfig::tiny();
    let lanes = cfg.lanes;
    let mut proc = TandemProcessor::new(cfg);
    let mut dram = Dram::new(64);
    let x: Vec<i32> = (0..2 * lanes).map(|i| i as i32 - 8).collect();
    proc.scratchpad_mut(IB1).load_rows(0, &x).unwrap();

    let xop = op(IB1, 0);
    let pred = op(IB1, 1);
    let zero = op(Namespace::Imm, 0);
    let mut p = Program::new();
    iter_cfg(&mut p, IB1, 0, 0, 1);
    iter_cfg(&mut p, IB1, 1, 8, 1);
    for i in Instruction::imm_write(0, 0) {
        p.push(i);
    }
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(pred),
            src1: Some(xop),
            src2: Some(xop),
        },
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 2,
    });
    // pred = (x < 0); x = cond_move(0, pred) i.e. x = 0 where pred
    p.push(Instruction::comparison(ComparisonFunc::Lt, pred, xop, zero));
    p.push(Instruction::alu(AluFunc::CondMove, xop, zero, pred));
    proc.run(&p, &mut dram).unwrap();

    let y = proc.scratchpad(IB1).dump_rows(0, 2 * lanes).unwrap();
    for (i, &v) in y.iter().enumerate() {
        assert_eq!(v, (i as i32 - 8).max(0), "lane {i}");
    }
}

#[test]
fn imm_destination_is_rejected() {
    let cfg = TandemConfig::tiny();
    let mut proc = TandemProcessor::new(cfg);
    let mut dram = Dram::new(16);
    let mut p = Program::new();
    p.push(Instruction::alu(
        AluFunc::Add,
        op(Namespace::Imm, 0),
        op(IB1, 0),
        op(IB1, 0),
    ));
    assert_eq!(proc.run(&p, &mut dram), Err(SimError::ImmDestination));
}

#[test]
fn loop_body_must_be_compute() {
    let cfg = TandemConfig::tiny();
    let mut proc = TandemProcessor::new(cfg);
    let mut dram = Dram::new(16);
    let mut p = Program::new();
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 1,
    });
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    }); // not compute
    assert!(matches!(
        proc.run(&p, &mut dram),
        Err(SimError::MalformedLoopBody { .. })
    ));
}

#[test]
fn set_index_requires_a_level() {
    let cfg = TandemConfig::tiny();
    let mut proc = TandemProcessor::new(cfg);
    let mut dram = Dram::new(16);
    let mut p = Program::new();
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings::none(),
    });
    assert_eq!(proc.run(&p, &mut dram), Err(SimError::IndexWithoutLoop));
}

#[test]
fn out_of_range_address_is_reported_not_wrapped() {
    let cfg = TandemConfig::tiny();
    let mut proc = TandemProcessor::new(cfg.clone());
    let mut dram = Dram::new(16);
    let mut p = Program::new();
    // base at the last row, stride 1, 2 iterations → second is off the end
    iter_cfg(&mut p, IB1, 0, (cfg.interim_rows - 1) as u16, 1);
    p.push(Instruction::LoopSetIter {
        loop_id: 0,
        count: 2,
    });
    p.push(Instruction::LoopSetIndex {
        bindings: LoopBindings {
            dst: Some(op(IB1, 0)),
            src1: Some(op(IB1, 0)),
            src2: Some(op(IB1, 0)),
        },
    });
    p.push(Instruction::LoopSetNumInst {
        loop_id: 0,
        count: 1,
    });
    p.push(Instruction::alu(
        AluFunc::Add,
        op(IB1, 0),
        op(IB1, 0),
        op(IB1, 0),
    ));
    assert!(matches!(
        proc.run(&p, &mut dram),
        Err(SimError::AddressOutOfRange { .. })
    ));
}

/// The performance model must charge exactly the cycles/events the
/// functional model does — the paper validates its simulator against
/// RTL the same way (§7). Swept over the loop-shape grid the old
/// property test sampled from.
#[test]
fn functional_and_performance_reports_match() {
    for rows in [1u16, 2, 3, 5, 8, 13, 21, 31] {
        for body_len in 1usize..4 {
            let cfg = TandemConfig::tiny();
            let mut p = Program::new();
            let a = op(IB1, 0);
            let y = op(IB1, 2);
            iter_cfg(&mut p, IB1, 0, 0, 1);
            iter_cfg(&mut p, IB1, 2, 32, 1);
            p.push(Instruction::LoopSetIter {
                loop_id: 0,
                count: rows,
            });
            p.push(Instruction::LoopSetIndex {
                bindings: LoopBindings {
                    dst: Some(y),
                    src1: Some(a),
                    src2: Some(a),
                },
            });
            p.push(Instruction::LoopSetNumInst {
                loop_id: 0,
                count: body_len as u16,
            });
            for _ in 0..body_len {
                p.push(Instruction::alu(AluFunc::Add, y, a, a));
            }

            let mut dram = Dram::new(16);
            let mut f = TandemProcessor::with_mode(cfg.clone(), Mode::Functional);
            let mut perf = TandemProcessor::with_mode(cfg, Mode::Performance);
            let rf = f.run(&p, &mut dram).unwrap();
            let rp = perf.run(&p, &mut dram).unwrap();
            assert_eq!(rf, rp, "rows {rows} body_len {body_len}");
        }
    }
}

/// A sink that keeps each span's name and arguments and each instant's
/// category.
#[derive(Default)]
struct Recorder {
    spans: Vec<(String, Vec<(String, u64)>)>,
    instants: Vec<String>,
}

impl TraceSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn span(&mut self, _: Track, name: &str, _: &str, _: u64, _: u64, args: &[(&str, u64)]) {
        let args = args.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        self.spans.push((name.to_string(), args));
    }

    fn instant(&mut self, _: Track, _: &str, cat: &str, _: u64, _: &[(&str, u64)]) {
        self.instants.push(cat.to_string());
    }

    fn counter(&mut self, _: &str, _: u64, _: &[(&str, u64)]) {}
}

#[test]
fn trace_records_nests_config_and_sync() {
    let cfg = TandemConfig::tiny();
    let mut p = vector_add_program(4, 0, 8, 16);
    p.push(Instruction::sync(
        tandem_isa::SyncUnit::Simd,
        tandem_isa::SyncEdge::End,
        tandem_isa::SyncKind::Exec,
        1,
    ));
    let mut sink = Recorder::default();
    let traced = TandemProcessor::new(cfg.clone())
        .run_traced(&p, &mut Dram::new(64), &mut sink)
        .unwrap();
    let plain = TandemProcessor::new(cfg)
        .run(&p, &mut Dram::new(64))
        .unwrap();
    assert_eq!(traced, plain, "tracing changed the report");
    let nests: Vec<_> = sink
        .spans
        .iter()
        .filter(|(name, _)| name == "nest")
        .map(|(_, args)| args.clone())
        .collect();
    assert_eq!(
        nests,
        vec![vec![
            ("body_len".to_string(), 1),
            ("iterations".to_string(), 4)
        ]]
    );
    assert!(sink.spans.iter().any(|(name, _)| name == "config"));
    assert!(sink.instants.iter().any(|cat| cat == "sync"));
}
