//! An empty stand-in for the per-contract loop-head table.
//!
//! The disassembler finds a contract's loop heads in its own sweep
//! ([`Disassembly::loop_exit`]), so nothing is left to build per
//! contract. [`Program`] is kept only for `perfbench/src/trace.rs`, whose
//! traced driver builds one per cold plan (through
//! `RecoveryCache::program_for`), hands it to `Tase::with_program` and
//! reports its block counts.

use crate::disasm::Disassembly;

/// Nothing: kept only for `perfbench/src/trace.rs` (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Program;

impl Program {
    /// An empty program; scans nothing. Kept only for
    /// `perfbench/src/trace.rs`.
    pub fn new(_disasm: &Disassembly) -> Program {
        Program
    }

    /// Always 0. Kept only for `perfbench/src/trace.rs`, which reports it
    /// as `program.blocks_compiled`.
    pub fn compiled_block_count(&self) -> usize {
        0
    }

    /// Always 0. Kept only for `perfbench/src/trace.rs`, which reports it
    /// as `program.blocks_skipped`.
    pub fn uncompiled_block_count(&self) -> usize {
        0
    }
}
