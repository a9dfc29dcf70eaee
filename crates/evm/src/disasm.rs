//! Linear-sweep disassembler for EVM runtime bytecode.
//!
//! EVM bytecode is a flat byte string; the only variable-length instructions
//! are `PUSH1`–`PUSH32`, whose immediate follows the opcode byte. The
//! disassembler performs a linear sweep (the strategy Geth's disassembler
//! uses, which SigRec builds on), producing one [`Instruction`] per opcode
//! with its program counter and any push immediate. The same sweep fills
//! a dense `pc → instruction index` table, so [`Disassembly::at`],
//! [`Disassembly::index_of`] and [`Disassembly::is_jumpdest`] are O(1)
//! for every caller: the symbolic executor looks one up per step. It also
//! finds the contract's loop heads ([`Disassembly::loop_exit`]), the one
//! thing a function exploration needs that depends on the whole contract,
//! so a contract is read once per plan.
//!
//! Every table is recycled per thread: dropping a disassembly clears
//! them and keeps them for the thread's next [`Disassembly::new`], unless
//! one grew past [`MAX_POOLED_NODES`](crate::pool::MAX_POOLED_NODES).

use crate::opcode::Opcode;
use crate::pool::recycle;
use crate::u256::U256;
use std::cell::Cell;
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

/// Every byte's opcode, decoded at compile time: the sweep reads one
/// entry per instruction instead of matching the byte.
static OPCODES: [Opcode; 256] = {
    let mut table = [Opcode::Stop; 256];
    let mut b = 0;
    while b < table.len() {
        table[b] = Opcode::from_byte(b as u8);
        b += 1;
    }
    table
};

/// The tables of a dropped disassembly, cleared for the next one.
#[derive(Default)]
struct Tables {
    instructions: Vec<Instruction>,
    pc_index: Vec<u32>,
    loop_exits: Vec<(usize, usize)>,
    back_jumps: Vec<(usize, usize)>,
}

thread_local! {
    /// The cleared tables of the last disassembly dropped on this thread.
    static POOL: Cell<Option<Tables>> = const { Cell::new(None) };
}

/// A disassembled program: instructions in address order with O(1) pc
/// lookup, and its loop heads.
#[derive(Clone, Debug, Default)]
pub struct Disassembly {
    instructions: Vec<Instruction>,
    /// `pc → index` into `instructions`, one slot per code byte;
    /// [`NO_INSTRUCTION`] inside push immediates. Indices fit in `u32`:
    /// 4 Gi instructions would need 4 GiB of code and far more for
    /// `instructions` itself, whose allocation fails first.
    pc_index: Vec<u32>,
    /// `(guard pc, exit pc)` of every loop-head guard, in pc order.
    loop_exits: Vec<(usize, usize)>,
    /// `(jump pc, target)` of every constant backward jump, in pc order:
    /// the sweep's scratch, kept only so that it is recycled too.
    back_jumps: Vec<(usize, usize)>,
}

impl Disassembly {
    /// Disassembles runtime bytecode with a linear sweep, finding its
    /// loop heads on the way (see [`Disassembly::loop_exit`]).
    ///
    /// Never fails: unassigned bytes become [`Opcode::Invalid`] and a
    /// truncated trailing `PUSH` keeps whatever immediate bytes exist.
    pub fn new(code: &[u8]) -> Self {
        let Tables {
            mut instructions,
            mut pc_index,
            mut loop_exits,
            mut back_jumps,
        } = POOL.with(Cell::take).unwrap_or_default();
        // A recycled pc table keeps none of the last code's slots: every
        // slot is rewritten, so a shorter code never sees stale indices.
        instructions.clear();
        pc_index.clear();
        pc_index.resize(code.len(), NO_INSTRUCTION);
        loop_exits.clear();
        back_jumps.clear();
        let mut pc = 0;
        while pc < code.len() {
            pc_index[pc] = instructions.len() as u32;
            let opcode = OPCODES[code[pc] as usize];
            let imm_len = opcode.immediate_len();
            let mut value = U256::ZERO;
            let mut present = 0;
            if imm_len > 0 {
                // A `PUSHn` immediate fills the word's low `n` bytes, high
                // byte first; bytes past the end of the code read as zero.
                let imm = &code[pc + 1..(pc + 1 + imm_len).min(code.len())];
                present = imm.len();
                for (k, &b) in imm.iter().enumerate() {
                    let at = imm_len - 1 - k;
                    value.0[at / 8] |= u64::from(b) << (at % 8 * 8);
                }
            } else if matches!(opcode, Opcode::Jump | Opcode::JumpI) {
                // A jump is constant when the instruction just before it
                // pushes the target.
                if let Some(t) = instructions.last().and_then(|p| p.push_value()?.as_usize()) {
                    if t <= pc {
                        back_jumps.push((pc, t));
                    } else if opcode == Opcode::JumpI {
                        loop_exits.push((pc, t));
                    }
                }
            }
            instructions.push(Instruction {
                pc,
                opcode,
                value,
                immediate_len: present as u8,
            });
            pc += 1 + imm_len;
        }
        // Of the forward `JUMPI`s, keep those that enclose a backward jump
        // to at or before them. Real code has few backward jumps, so
        // checking each guard against those inside its span stays near
        // linear even on adversarial dispatchers with thousands of
        // forward guards.
        loop_exits.retain(|&(g, e)| {
            let first = back_jumps.partition_point(|&(j, _)| j <= g);
            back_jumps[first..]
                .iter()
                .take_while(|&&(j, _)| j < e)
                .any(|&(_, t)| t <= g)
        });
        Disassembly {
            instructions,
            pc_index,
            loop_exits,
            back_jumps,
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

    /// The loop exit of the guard `JUMPI` at `pc`, if it heads a loop.
    ///
    /// A loop-head guard is a `JUMPI` whose constant forward target `e`
    /// encloses (strictly between the guard and `e`) a constant backward
    /// jump to at or before the guard; the symbolic executor records `e`
    /// as the guard's loop exit. Constant jumps are the ones whose target
    /// is pushed by the instruction just before them.
    pub fn loop_exit(&self, pc: usize) -> Option<usize> {
        self.loop_exits
            .binary_search_by_key(&pc, |&(g, _)| g)
            .ok()
            .map(|i| self.loop_exits[i].1)
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

impl Drop for Disassembly {
    /// Clears the tables and keeps them for the thread's next
    /// disassembly, unless they never grew (an unused default must not
    /// displace a warm set) or outgrew the cap.
    fn drop(&mut self) {
        let mut tables = Tables {
            instructions: std::mem::take(&mut self.instructions),
            pc_index: std::mem::take(&mut self.pc_index),
            loop_exits: std::mem::take(&mut self.loop_exits),
            back_jumps: std::mem::take(&mut self.back_jumps),
        };
        if tables.pc_index.capacity() == 0 && tables.instructions.capacity() == 0 {
            return;
        }
        recycle(&mut tables.instructions);
        recycle(&mut tables.pc_index);
        recycle(&mut tables.loop_exits);
        recycle(&mut tables.back_jumps);
        // Thread teardown may already have destroyed the pool.
        let _ = POOL.try_with(|p| p.set(Some(tables)));
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
    fn oversized_tables_are_not_kept() {
        use crate::pool::MAX_POOLED_NODES;
        // One STOP per byte: both tables grow past the cap.
        drop(Disassembly::new(&vec![0x00; MAX_POOLED_NODES + 1]));
        let d = Disassembly::new(&[0x00]);
        assert!(d.instructions.capacity() <= MAX_POOLED_NODES);
        assert!(d.pc_index.capacity() <= MAX_POOLED_NODES);
        // `PUSH1 0; JUMP; PUSH3 0xffffff; JUMPI` repeated: past the cap in
        // backward jumps and in loop-head guards.
        let loops = [0x60, 0x00, 0x56, 0x62, 0xff, 0xff, 0xff, 0x57].repeat(MAX_POOLED_NODES + 1);
        let big = Disassembly::new(&loops);
        assert!(big.back_jumps.capacity() > MAX_POOLED_NODES);
        assert!(big.loop_exits.capacity() > MAX_POOLED_NODES);
        drop(big);
        let d = Disassembly::new(&[0x00]);
        assert!(d.loop_exits.capacity() <= MAX_POOLED_NODES);
        assert!(d.back_jumps.capacity() <= MAX_POOLED_NODES);
        // A table under the cap is kept for the next code.
        drop(d);
        drop(Disassembly::new(&[0x5b; 64]));
        assert!(Disassembly::new(&[]).pc_index.capacity() >= 64);
    }

    #[test]
    fn guards_over_a_back_edge_are_loop_heads() {
        use crate::asm::Assembler;
        // i = 0; head: if !(i < 3) goto exit; i += 1; goto head; exit: STOP
        let mut a = Assembler::new();
        let head = a.fresh_label();
        let exit = a.fresh_label();
        let skip = a.fresh_label();
        a.push_u64(0);
        a.jumpdest(head);
        a.op(Opcode::Dup(1)).push_u64(3).op(Opcode::Gt);
        a.op(Opcode::IsZero).push_label(exit).op(Opcode::JumpI);
        a.push_u64(1).op(Opcode::Add);
        a.push_label(head).op(Opcode::Jump);
        a.jumpdest(exit);
        // A forward guard with no back edge inside is not a loop head.
        a.push_u64(0).push_label(skip).op(Opcode::JumpI);
        a.jumpdest(skip).op(Opcode::Stop);
        let d = Disassembly::new(&a.assemble());
        let jumpis: Vec<usize> = d
            .instructions()
            .iter()
            .filter(|i| i.opcode == Opcode::JumpI)
            .map(|i| i.pc)
            .collect();
        assert_eq!(d.loop_exits.len(), 1);
        let (guard, exit_pc) = d.loop_exits[0];
        assert_eq!(guard, jumpis[0]);
        assert!(d.is_jumpdest(exit_pc));
        assert_eq!(d.loop_exit(jumpis[0]), Some(exit_pc));
        assert_eq!(d.loop_exit(jumpis[1]), None);
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

    /// [`push_heavy_code`] behind 0–79 loop-shaped pieces (`JUMPDEST`s,
    /// constant forward and backward jumps, and stray bytes), so most
    /// codes have loop heads as well as guards that head none.
    fn looping_code() -> impl Strategy<Value = Vec<u8>> {
        let piece = (0u8..6, any::<u8>()).prop_map(|(kind, t)| match kind {
            0 => vec![0x5b],
            1 => vec![0x60, t, 0x57],
            2 => vec![0x60, t, 0x56],
            3 => vec![0x61, 0x00, t, 0x57],
            4 => vec![0x80, 0x57],
            _ => vec![t],
        });
        (proptest::collection::vec(piece, 0..80), push_heavy_code()).prop_map(|(pieces, tail)| {
            let mut code = pieces.concat();
            code.extend(tail);
            code
        })
    }

    /// The loop-head rule as a second pass over a finished disassembly,
    /// the way it was computed before the sweep found loop heads itself:
    /// the guard's loop exit for every guard pc.
    fn two_pass_loop_exits(d: &Disassembly) -> Vec<(usize, usize)> {
        let mut guards = Vec::new();
        let mut back_jumps = Vec::new();
        let mut prev: Option<&Instruction> = None;
        for ins in d.instructions() {
            if matches!(ins.opcode, Opcode::Jump | Opcode::JumpI) {
                if let Some(t) = prev.and_then(|p| p.push_value()?.as_usize()) {
                    if t <= ins.pc {
                        back_jumps.push((ins.pc, t));
                    } else if ins.opcode == Opcode::JumpI {
                        guards.push((ins.pc, t));
                    }
                }
            }
            prev = Some(ins);
        }
        guards
            .into_iter()
            .filter(|&(g, e)| back_jumps.iter().any(|&(j, t)| g < j && j < e && t <= g))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sweep_finds_the_loop_heads_of_the_two_pass_rule(
            pushes in push_heavy_code(),
            loops in looping_code(),
        ) {
            for code in [pushes, loops] {
                let d = Disassembly::new(&code);
                let oracle = two_pass_loop_exits(&d);
                for pc in 0..code.len() + 33 {
                    let want = oracle.iter().find(|&&(g, _)| g == pc).map(|&(_, e)| e);
                    prop_assert_eq!(d.loop_exit(pc), want);
                }
            }
        }

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

        #[test]
        fn recycled_tables_equal_a_fresh_disassembly(
            first in looping_code(),
            second in looping_code(),
            cut in 0usize..64,
        ) {
            // Half the cases follow a longer code with a prefix of it, so
            // the recycled pc table shrinks over slots it filled before.
            let second = if cut % 2 == 0 {
                first[..first.len().saturating_sub(cut)].to_vec()
            } else {
                second
            };
            drop(Disassembly::new(&first));
            let recycled = Disassembly::new(&second);
            let code = second.clone();
            let fresh = std::thread::spawn(move || Disassembly::new(&code))
                .join()
                .expect("fresh disassembly");
            prop_assert_eq!(recycled.instructions(), fresh.instructions());
            prop_assert_eq!(recycled.code_len(), fresh.code_len());
            for pc in 0..first.len().max(second.len()) + 33 {
                prop_assert_eq!(recycled.index_of(pc), fresh.index_of(pc));
                prop_assert_eq!(recycled.is_jumpdest(pc), fresh.is_jumpdest(pc));
                prop_assert_eq!(recycled.loop_exit(pc), fresh.loop_exit(pc));
            }
        }
    }
}
