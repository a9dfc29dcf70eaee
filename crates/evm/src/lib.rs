//! # sigrec-evm
//!
//! The Ethereum-virtual-machine substrate of the SigRec reproduction:
//!
//! - [`U256`] — 256-bit EVM words with full unsigned *and* signed arithmetic;
//! - [`Opcode`] — the complete instruction set with stack-arity metadata;
//! - [`Disassembly`] — a linear-sweep disassembler (PUSH-immediate aware);
//! - [`Cfg`] — basic-block recognition and control-flow edges;
//! - [`Assembler`] — a label-aware bytecode builder used by the Solidity- and
//!   Vyper-pattern code generators;
//! - [`Interpreter`] — a concrete, gas-free EVM used by the fuzzing
//!   experiment and for differential-testing generated code;
//! - [`keccak256`] — Keccak-256 from scratch (function selectors).
//!
//! Everything here is self-contained: no external EVM, big-integer, or
//! hashing crates. The SigRec core (`sigrec-core`) builds its type-aware
//! symbolic execution on top of these primitives.

#![warn(missing_docs)]

pub mod asm;
pub mod cfg;
pub mod disasm;
pub mod dom;
pub mod gas;
pub mod interp;
pub mod keccak;
pub mod opcode;
pub mod pool;
pub mod program;
pub mod u256;

pub use asm::{emit_junk_block, Assembler, Label};
pub use cfg::{BasicBlock, BlockId, Cfg};
pub use disasm::{Disassembly, Instruction};
pub use dom::{natural_loops, Dominators, NaturalLoop};
pub use interp::{Env, Execution, HaltReason, Interpreter, Outcome, STACK_LIMIT};
pub use keccak::{keccak256, selector};
pub use opcode::Opcode;
pub use program::Program;
pub use u256::U256;
