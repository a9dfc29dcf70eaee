//! The per-contract facts the symbolic executor shares across a
//! contract's dispatch entries.
//!
//! TASE interprets a [`Disassembly`] one instruction at a time, and the
//! disassembler's pc table already makes every lookup O(1). The one
//! thing an explore needs beyond the instructions is the set of loop-head
//! guards, which depends on the whole contract rather than on the
//! function being explored. A [`Program`] finds them in one linear pass,
//! once per contract, and every function explore of that contract reads
//! the shared result.

use crate::disasm::{Disassembly, Instruction};
use crate::opcode::Opcode;

/// The loop-head guards of one contract. Build once per distinct
/// bytecode ([`Program::new`]), share via `Arc`.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// `(guard pc, exit pc)` in ascending guard-pc order.
    loop_exits: Vec<(usize, usize)>,
    /// Basic blocks counted by the same pass.
    blocks: usize,
}

impl Program {
    /// Scans `disasm` once. A loop-head guard is a `JUMPI` whose constant
    /// forward target `e` encloses (strictly between the guard and `e`) a
    /// constant backward jump to at or before the guard; the executor
    /// records `e` as the guard's loop exit. Constant jumps are the ones
    /// whose target is pushed by the instruction just before them.
    pub fn new(disasm: &Disassembly) -> Program {
        let instrs = disasm.instructions();
        // Forward `JUMPI`s `(guard, exit)` and backward jumps
        // `(jump, target)`, both in pc order.
        let mut guards = Vec::new();
        let mut back_jumps = Vec::new();
        let mut blocks = 0;
        let mut prev: Option<&Instruction> = None;
        for ins in instrs {
            // Blocks start at the first instruction, at every JUMPDEST,
            // and after every JUMPI or terminator.
            if prev.is_none_or(|p| p.opcode.is_terminator() || p.opcode == Opcode::JumpI)
                || ins.opcode == Opcode::JumpDest
            {
                blocks += 1;
            }
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
        // Real code has few backward jumps, so checking each guard
        // against those inside its span stays near linear even on
        // adversarial dispatchers with thousands of forward guards.
        let loop_exits = guards
            .into_iter()
            .filter(|&(g, e)| {
                let first = back_jumps.partition_point(|&(j, _)| j <= g);
                back_jumps[first..]
                    .iter()
                    .take_while(|&&(j, _)| j < e)
                    .any(|&(_, t)| t <= g)
            })
            .collect();
        Program { loop_exits, blocks }
    }

    /// The loop exit of the guard `JUMPI` at `pc`, if it heads a loop.
    pub fn loop_exit(&self, pc: usize) -> Option<usize> {
        self.loop_exits
            .binary_search_by_key(&pc, |&(g, _)| g)
            .ok()
            .map(|i| self.loop_exits[i].1)
    }

    /// The basic blocks counted while building. Kept only for
    /// `perfbench/src/trace.rs`, which reports it as
    /// `program.blocks_compiled`.
    pub fn compiled_block_count(&self) -> usize {
        self.blocks
    }

    /// Always 0. Kept only for `perfbench/src/trace.rs`, which reports it
    /// as `program.blocks_skipped`.
    pub fn uncompiled_block_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    #[test]
    fn guards_over_a_back_edge_are_loop_heads() {
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
        let p = Program::new(&d);
        let jumpis: Vec<usize> = d
            .instructions()
            .iter()
            .filter(|i| i.opcode == Opcode::JumpI)
            .map(|i| i.pc)
            .collect();
        assert_eq!(p.loop_exits.len(), 1);
        let (guard, exit_pc) = p.loop_exits[0];
        assert_eq!(guard, jumpis[0]);
        assert!(d.is_jumpdest(exit_pc));
        assert_eq!(p.loop_exit(jumpis[0]), Some(exit_pc));
        assert_eq!(p.loop_exit(jumpis[1]), None);
    }

    #[test]
    fn counts_blocks_at_jumpdests_jumpis_and_terminators() {
        // PUSH1 6; JUMPI | PUSH1 0; STOP | JUMPDEST; STOP
        let p = Program::new(&Disassembly::new(&[
            0x60, 0x06, 0x57, 0x60, 0x00, 0x00, 0x5b, 0x00,
        ]));
        assert_eq!(p.compiled_block_count(), 3);
        assert_eq!(p.uncompiled_block_count(), 0);
        assert!(p.loop_exits.is_empty());
        let empty = Program::new(&Disassembly::new(&[]));
        assert_eq!(empty.compiled_block_count(), 0);
    }
}
