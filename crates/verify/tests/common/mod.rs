//! Shared random-program harness for the verifier's property tests:
//! seeded xorshift64* generation and shrinking by instruction deletion,
//! with zero external dependencies (the same hand-rolled style as
//! `tandem-isa`'s encode/decode properties).

use tandem_isa::{
    AluFunc, Instruction, LoopBindings, Namespace, Operand, Program, SyncEdge, SyncKind, SyncUnit,
};
use tandem_verify::Verifier;

/// xorshift64* — deterministic, dependency-free randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

fn arb_namespace(rng: &mut Rng) -> Namespace {
    Namespace::ALL[rng.below(4) as usize]
}

/// A small operand pool (indices 0..8) so random programs actually
/// collide on iterators, rows and IMM slots.
fn arb_operand(rng: &mut Rng) -> Operand {
    Operand::new(arb_namespace(rng), rng.below(8) as u8)
}

/// One instruction of a random verification workload. Loop counts stay
/// ≤ 6 and level ids ≤ 2 (at most 3 live levels, ≤ 216 iterations per
/// nest) so the exact oracle's per-iteration walk stays cheap even over
/// thousands of generated programs.
fn arb_instruction(rng: &mut Rng) -> Instruction {
    match rng.below(16) {
        0 | 1 => Instruction::IterConfigBase {
            ns: arb_namespace(rng),
            index: rng.below(8) as u8,
            // tiny machine: 64 Interim rows — bases past capacity are
            // generated on purpose so the bounds rules fire.
            addr: rng.below(96) as u16,
        },
        2 | 3 => Instruction::IterConfigStride {
            ns: arb_namespace(rng),
            index: rng.below(8) as u8,
            stride: rng.below(9) as i16 - 4,
        },
        4 => Instruction::ImmWriteLow {
            index: rng.below(8) as u8,
            value: rng.next_u64() as i16,
        },
        5 => Instruction::ImmWriteHigh {
            index: rng.below(8) as u8,
            value: rng.next_u64() as u16,
        },
        6 | 7 => Instruction::LoopSetIter {
            loop_id: rng.below(3) as u8,
            count: rng.below(7) as u16,
        },
        8 => Instruction::LoopSetIndex {
            bindings: LoopBindings {
                dst: rng.bool().then(|| arb_operand(rng)),
                src1: rng.bool().then(|| arb_operand(rng)),
                src2: rng.bool().then(|| arb_operand(rng)),
            },
        },
        9 => Instruction::LoopSetNumInst {
            loop_id: rng.below(3) as u8,
            count: rng.below(4) as u16,
        },
        10 => Instruction::sync(
            if rng.bool() {
                SyncUnit::Simd
            } else {
                SyncUnit::Gemm
            },
            if rng.bool() {
                SyncEdge::End
            } else {
                SyncEdge::Start
            },
            if rng.bool() {
                SyncKind::Buf
            } else {
                SyncKind::Exec
            },
            rng.below(4) as u8,
        ),
        11 => Instruction::PermuteSetBase {
            is_dst: rng.bool(),
            ns: arb_namespace(rng),
            addr: rng.below(700) as u16,
        },
        12 => Instruction::PermuteStart {
            cross_lane: rng.bool(),
        },
        _ => {
            let func = AluFunc::ALL[rng.below(AluFunc::ALL.len() as u64) as usize];
            let dst = arb_operand(rng);
            let src1 = arb_operand(rng);
            let src2 = if matches!(func, AluFunc::Not | AluFunc::Move) {
                src1
            } else {
                arb_operand(rng)
            };
            Instruction::alu(func, dst, src1, src2)
        }
    }
}

pub fn arb_program(rng: &mut Rng) -> Program {
    let mut p = Program::new();
    for _ in 0..4 + rng.below(28) {
        p.push(arb_instruction(rng));
    }
    p
}

/// Runs `prop` over `cases` programs drawn by `generate`; on failure,
/// shrinks the program by deleting instructions (one at a time, to a
/// local fixpoint) and panics with the minimal counterexample followed
/// by `describe(minimal)`.
pub fn forall_programs(
    seed: u64,
    cases: usize,
    generate: impl Fn(&mut Rng) -> Program,
    prop: impl Fn(&Program) -> bool,
    describe: impl Fn(&Program) -> String,
) {
    let mut rng = Rng::new(seed);
    for case in 0..cases {
        let program = generate(&mut rng);
        if prop(&program) {
            continue;
        }
        let mut minimal = program.clone();
        'shrinking: loop {
            for skip in 0..minimal.len() {
                let mut candidate = Program::new();
                for (i, instr) in minimal.iter().enumerate() {
                    if i != skip {
                        candidate.push(*instr);
                    }
                }
                if !prop(&candidate) {
                    minimal = candidate;
                    continue 'shrinking;
                }
            }
            break;
        }
        panic!(
            "property failed (seed {seed}, case {case}, {} instrs)\n  minimal program:\n{}\n{}",
            minimal.len(),
            minimal,
            describe(&minimal),
        );
    }
}

/// Whether `verifier`'s gate and prior entry points agree with its full
/// report on `p`: `is_clean` with the report's verdict and
/// `wasted_words` with its wasted-traffic total.
pub fn entry_points_agree(verifier: &Verifier, p: &Program) -> bool {
    let report = verifier.verify(p);
    (verifier.is_clean(p), verifier.wasted_words(p)) == (report.is_clean(), report.wasted_words())
}
