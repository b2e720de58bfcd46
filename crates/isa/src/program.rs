//! [`Program`] — an ordered sequence of instructions.

use crate::error::DecodeError;
use crate::instr::Instruction;
use std::fmt;
use std::ops::Index;

/// An ordered sequence of Tandem Processor instructions, e.g. the contents
/// of the Inst. BUF for one execution block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    instructions: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty program with room for `capacity` instructions, so
    /// that pushing up to that many reallocates nothing.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            instructions: Vec::with_capacity(capacity),
        }
    }

    /// Appends one instruction.
    pub fn push(&mut self, instr: Instruction) {
        self.instructions.push(instr);
    }

    /// Appends every instruction from `iter`.
    pub fn extend<I: IntoIterator<Item = Instruction>>(&mut self, iter: I) {
        self.instructions.extend(iter);
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` when the program holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates over the instructions in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Borrows the instructions as a slice.
    pub fn as_slice(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Encodes the whole program into 32-bit words.
    pub fn encode(&self) -> Vec<u32> {
        self.instructions.iter().map(Instruction::encode).collect()
    }

    /// Decodes a program from raw 32-bit words.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] encountered.
    pub fn decode(words: &[u32]) -> Result<Self, DecodeError> {
        words
            .iter()
            .map(|&w| Instruction::decode(w))
            .collect::<Result<Vec<_>, _>>()
            .map(|instructions| Self { instructions })
    }

    /// Number of compute-class instructions (repeated per loop iteration).
    pub fn compute_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.is_compute()).count()
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Self {
            instructions: iter.into_iter().collect(),
        }
    }
}

impl From<Vec<Instruction>> for Program {
    fn from(instructions: Vec<Instruction>) -> Self {
        Self { instructions }
    }
}

impl Index<usize> for Program {
    type Output = Instruction;

    fn index(&self, index: usize) -> &Instruction {
        &self.instructions[index]
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl IntoIterator for Program {
    type Item = Instruction;
    type IntoIter = std::vec::IntoIter<Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.into_iter()
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (pc, instr) in self.instructions.iter().enumerate() {
            writeln!(f, "{pc:04}: {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::AluFunc;
    use crate::operand::{Namespace, Operand};

    fn sample() -> Program {
        let a = Operand::new(Namespace::Interim1, 0);
        let b = Operand::new(Namespace::Obuf, 1);
        let c = Operand::new(Namespace::Imm, 2);
        Program::from(vec![
            Instruction::LoopSetIter {
                loop_id: 0,
                count: 16,
            },
            Instruction::alu(AluFunc::Add, a, b, c),
            Instruction::alu(AluFunc::Mul, a, a, c),
        ])
    }

    #[test]
    fn program_encode_decode_roundtrip() {
        let p = sample();
        let words = p.encode();
        assert_eq!(Program::decode(&words).unwrap(), p);
    }

    #[test]
    fn compute_count_excludes_config() {
        assert_eq!(sample().compute_count(), 2);
    }

    #[test]
    fn display_lists_every_instruction() {
        let text = sample().to_string();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("0001: add"));
    }
}
