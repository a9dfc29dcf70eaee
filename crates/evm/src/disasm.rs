//! Linear-sweep disassembler for EVM runtime bytecode.
//!
//! EVM bytecode is a flat byte string; the only variable-length instructions
//! are `PUSH1`–`PUSH32`, whose immediate follows the opcode byte. The
//! disassembler performs a linear sweep (the strategy Geth's disassembler
//! uses, which SigRec builds on), producing one [`Instruction`] per opcode
//! with its program counter and any push immediate. The same sweep fills
//! a dense `pc → instruction index` table, so [`Disassembly::at`],
//! [`Disassembly::index_of`] and [`Disassembly::is_jumpdest`] are O(1)
//! for every caller: the symbolic executor looks one up per step.

use crate::opcode::Opcode;
use crate::u256::U256;
use std::fmt;

/// One disassembled instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Instruction {
    /// Byte offset of the opcode within the bytecode.
    pub pc: usize,
    /// The decoded opcode.
    pub opcode: Opcode,
    /// The pushed word for `PUSH*` (zero otherwise), decoded once by the
    /// sweep so every later read is a copy.
    value: U256,
    /// Immediate bytes present in the code. Below the opcode's nominal
    /// immediate length only for a `PUSH` cut short by the end of the code.
    immediate_len: u8,
}

impl Instruction {
    /// The push immediate as a 256-bit word, or `None` for non-push
    /// instructions. A truncated trailing `PUSH` follows EVM semantics:
    /// code bytes past the end read as zero, so the *missing low* bytes
    /// are zero-filled (`PUSH4 aa bb <eof>` pushes `0xaabb0000`, not
    /// `0x0000aabb`).
    pub fn push_value(&self) -> Option<U256> {
        match self.opcode {
            Opcode::Push(_) => Some(self.value),
            _ => None,
        }
    }

    /// True if this is a `PUSH` whose immediate was cut short by the end
    /// of the code (the only instruction a linear sweep can truncate).
    pub fn is_truncated_push(&self) -> bool {
        (self.immediate_len as usize) < self.opcode.immediate_len()
    }

    /// Total encoded size in bytes (opcode + immediate).
    pub fn size(&self) -> usize {
        1 + self.opcode.immediate_len()
    }

    /// The pc of the next instruction in linear order.
    pub fn next_pc(&self) -> usize {
        self.pc + self.size()
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}: {}", self.pc, self.opcode)?;
        if let Some(v) = self.push_value() {
            write!(f, " 0x{:x}", v)?;
        }
        Ok(())
    }
}

/// Slot of [`Disassembly`]'s pc table for bytes that do not start an
/// instruction (push immediates).
const NO_INSTRUCTION: u32 = u32::MAX;

/// A disassembled program: instructions in address order with O(1) pc
/// lookup.
#[derive(Clone, Debug, Default)]
pub struct Disassembly {
    instructions: Vec<Instruction>,
    /// `pc → index` into `instructions`, one slot per code byte;
    /// [`NO_INSTRUCTION`] inside push immediates. Indices fit in `u32`:
    /// 4 Gi instructions would need 4 GiB of code and far more for
    /// `instructions` itself, whose allocation fails first.
    pc_index: Vec<u32>,
}

impl Disassembly {
    /// Disassembles runtime bytecode with a linear sweep.
    ///
    /// Never fails: unassigned bytes become [`Opcode::Invalid`] and a
    /// truncated trailing `PUSH` keeps whatever immediate bytes exist.
    pub fn new(code: &[u8]) -> Self {
        let mut instructions = Vec::new();
        let mut pc_index = vec![NO_INSTRUCTION; code.len()];
        let mut pc = 0;
        while pc < code.len() {
            pc_index[pc] = instructions.len() as u32;
            let opcode = Opcode::from_byte(code[pc]);
            let imm_len = opcode.immediate_len();
            let present = &code[pc + 1..(pc + 1 + imm_len).min(code.len())];
            let value = if imm_len == 0 {
                U256::ZERO
            } else {
                // A `PUSHn` immediate fills the word's low `n` bytes, high
                // byte first; bytes past the end of the code read as zero.
                let mut word = [0u8; 32];
                word[32 - imm_len..][..present.len()].copy_from_slice(present);
                U256::from_be_bytes(&word)
            };
            instructions.push(Instruction {
                pc,
                opcode,
                value,
                immediate_len: present.len() as u8,
            });
            pc += 1 + imm_len;
        }
        Disassembly {
            instructions,
            pc_index,
        }
    }

    /// The instructions in address order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Finds the instruction starting at `pc`, if any. O(1).
    #[inline]
    pub fn at(&self, pc: usize) -> Option<&Instruction> {
        self.index_of(pc).map(|idx| &self.instructions[idx])
    }

    /// Index (in [`Self::instructions`]) of the instruction at `pc`. O(1).
    #[inline]
    pub fn index_of(&self, pc: usize) -> Option<usize> {
        match self.pc_index.get(pc) {
            Some(&idx) if idx != NO_INSTRUCTION => Some(idx as usize),
            _ => None,
        }
    }

    /// True if `pc` holds a `JUMPDEST` — the only legal jump target. O(1).
    #[inline]
    pub fn is_jumpdest(&self, pc: usize) -> bool {
        matches!(self.at(pc), Some(i) if i.opcode == Opcode::JumpDest)
    }

    /// The byte length of the code that was disassembled (the sweep keeps
    /// truncated immediates, so this is the real input length, not the
    /// sum of nominal instruction sizes).
    pub fn code_len(&self) -> usize {
        self.pc_index.len()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True if the bytecode was empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Re-encodes the disassembly back to bytecode (inverse of [`Self::new`]).
    pub fn assemble(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for ins in &self.instructions {
            out.push(ins.opcode.to_byte());
            let word = ins.value.to_be_bytes();
            let start = 32 - ins.opcode.immediate_len();
            out.extend_from_slice(&word[start..start + ins.immediate_len as usize]);
        }
        out
    }
}

impl fmt::Display for Disassembly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for ins in &self.instructions {
            writeln!(f, "{}", ins)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disassembles_push_and_simple_ops() {
        // PUSH1 0x80 PUSH1 0x40 MSTORE
        let code = [0x60, 0x80, 0x60, 0x40, 0x52];
        let d = Disassembly::new(&code);
        assert_eq!(d.len(), 3);
        assert_eq!(d.instructions()[0].opcode, Opcode::Push(1));
        assert_eq!(d.instructions()[0].push_value(), Some(U256::from(0x80u64)));
        assert_eq!(d.instructions()[1].pc, 2);
        assert_eq!(d.instructions()[2].opcode, Opcode::MStore);
    }

    #[test]
    fn truncated_push_keeps_partial_immediate() {
        // PUSH4 with only 2 immediate bytes present.
        let code = [0x63, 0xaa, 0xbb];
        let d = Disassembly::new(&code);
        assert_eq!(d.len(), 1);
        assert_eq!(d.instructions()[0].immediate_len, 2);
        assert_eq!(
            d.instructions()[0].push_value(),
            Some(U256::from(0xaabb_0000u64))
        );
        assert!(d.instructions()[0].is_truncated_push());
        assert_eq!(d.code_len(), 3);
    }

    #[test]
    fn truncated_push_value_zero_fills_low_bytes() {
        // The EVM reads code bytes past the end as zero, so the missing
        // bytes sit at the *low* end of the word.
        let d = Disassembly::new(&[0x63, 0xaa, 0xbb]);
        assert_eq!(
            d.instructions()[0].push_value(),
            Some(U256::from(0xaabb_0000u64))
        );
        // PUSH32 with one byte present: value is byte << 248.
        let d = Disassembly::new(&[0x7f, 0x01]);
        assert_eq!(d.instructions()[0].push_value(), Some(U256::ONE << 248u32));
        // A complete push is unaffected.
        let d = Disassembly::new(&[0x63, 0xaa, 0xbb, 0xcc, 0xdd]);
        assert_eq!(
            d.instructions()[0].push_value(),
            Some(U256::from(0xaabb_ccddu64))
        );
        assert!(!d.instructions()[0].is_truncated_push());
    }

    #[test]
    fn push_data_not_decoded_as_instructions() {
        // PUSH2 0x5b5b: the 0x5b bytes are data, not JUMPDESTs.
        let code = [0x61, 0x5b, 0x5b, 0x00];
        let d = Disassembly::new(&code);
        assert_eq!(d.len(), 2);
        assert!(!d.is_jumpdest(1));
        assert!(!d.is_jumpdest(2));
    }

    #[test]
    fn pc_lookup() {
        let code = [0x60, 0x01, 0x5b, 0x00];
        let d = Disassembly::new(&code);
        assert!(d.at(0).is_some());
        assert!(d.at(1).is_none()); // inside push immediate
        assert!(d.is_jumpdest(2));
        assert_eq!(d.index_of(3), Some(2));
    }

    #[test]
    fn assemble_round_trip() {
        let code = [0x60, 0x80, 0x60, 0x40, 0x52, 0x5b, 0x35, 0x00];
        let d = Disassembly::new(&code);
        assert_eq!(d.assemble(), code);
    }

    #[test]
    fn display_format() {
        let code = [0x63, 0xa9, 0x05, 0x9c, 0xbb];
        let d = Disassembly::new(&code);
        assert_eq!(
            format!("{}", d.instructions()[0]),
            "0x0000: PUSH4 0xa9059cbb"
        );
    }

    #[test]
    fn empty_code() {
        let d = Disassembly::new(&[]);
        assert!(d.is_empty());
        assert_eq!(d.assemble(), Vec::<u8>::new());
    }

    /// Byte strings of 0–599 bytes, half of them `PUSH` opcodes, and in
    /// half the cases ending in a `PUSH` followed by 0–31 immediate bytes,
    /// so truncated tails of every length are common.
    fn push_heavy_code() -> impl Strategy<Value = Vec<u8>> {
        (
            proptest::collection::vec(prop_oneof![any::<u8>(), 0x60u8..=0x7f], 0..568),
            any::<bool>(),
            0x60u8..=0x7f,
            proptest::collection::vec(any::<u8>(), 0..32),
        )
            .prop_map(|(mut code, with_tail, push, tail)| {
                if with_tail {
                    code.push(push);
                    code.extend(tail);
                }
                code
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sweep_round_trips_and_decodes_every_push(code in push_heavy_code()) {
            let d = Disassembly::new(&code);
            prop_assert_eq!(d.assemble(), code.clone());
            prop_assert_eq!(d.code_len(), code.len());
            // The sweep's pc table answers like a linear search, on
            // opcode bytes, push immediates, truncated tails and pcs past
            // the end alike.
            for pc in 0..code.len() + 33 {
                let linear = d.instructions().iter().position(|i| i.pc == pc);
                prop_assert_eq!(d.index_of(pc), linear);
                prop_assert_eq!(d.at(pc), linear.map(|i| &d.instructions()[i]));
                prop_assert_eq!(
                    d.is_jumpdest(pc),
                    linear.is_some_and(|i| d.instructions()[i].opcode == Opcode::JumpDest)
                );
            }
            for (i, ins) in d.instructions().iter().enumerate() {
                let Opcode::Push(n) = ins.opcode else {
                    prop_assert_eq!(ins.push_value(), None);
                    continue;
                };
                let present = &code[ins.pc + 1..(ins.pc + 1 + n as usize).min(code.len())];
                let missing = n as u32 - present.len() as u32;
                prop_assert_eq!(ins.immediate_len as usize, present.len());
                prop_assert_eq!(
                    ins.push_value(),
                    Some(U256::from_be_bytes(present) << (8 * missing))
                );
                prop_assert!(!ins.is_truncated_push() || i + 1 == d.len());
            }
        }
    }
}
