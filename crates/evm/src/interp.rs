//! A concrete EVM interpreter.
//!
//! Gas-free, single-contract execution: enough of the EVM to run the
//! calldata-decoding prologues our code generators emit, drive the fuzzing
//! experiment (§6.2), and differential-test the generators against the ABI
//! encoder. External calls succeed vacuously; environment reads come from an
//! [`Env`] the caller controls.

use crate::disasm::Disassembly;
use crate::gas;
use crate::keccak::keccak256;
use crate::opcode::Opcode;
use crate::u256::U256;
use std::collections::BTreeMap;

/// Maximum EVM stack depth.
pub const STACK_LIMIT: usize = 1024;

/// Execution environment: the message and block context visible to the
/// contract.
#[derive(Clone, Debug)]
pub struct Env {
    /// The call data (selector + ABI-encoded arguments).
    pub calldata: Vec<u8>,
    /// `CALLVALUE`.
    pub callvalue: U256,
    /// `CALLER`.
    pub caller: U256,
    /// `ADDRESS` of the executing contract.
    pub address: U256,
    /// `ORIGIN`.
    pub origin: U256,
    /// `TIMESTAMP`.
    pub timestamp: U256,
    /// `NUMBER` (block height).
    pub block_number: U256,
}

impl Default for Env {
    fn default() -> Self {
        Env {
            calldata: Vec::new(),
            callvalue: U256::ZERO,
            caller: U256::from_hex("cafe000000000000000000000000000000000001").unwrap(),
            address: U256::from_hex("c0de000000000000000000000000000000000002").unwrap(),
            origin: U256::from_hex("cafe000000000000000000000000000000000001").unwrap(),
            timestamp: U256::from(1_700_000_000u64),
            block_number: U256::from(17_000_000u64),
        }
    }
}

impl Env {
    /// An environment with the given calldata and defaults elsewhere.
    pub fn with_calldata(calldata: Vec<u8>) -> Self {
        Env {
            calldata,
            ..Env::default()
        }
    }
}

/// How an execution ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// `STOP` or running off the end of the code.
    Stop,
    /// `RETURN` with the returned bytes.
    Return(Vec<u8>),
    /// `REVERT` with the revert payload.
    Revert(Vec<u8>),
    /// Exceptional halt: `INVALID`, bad jump destination, stack
    /// underflow/overflow. Solidity compiles `assert` to `INVALID`, so the
    /// fuzzer treats this outcome as a bug signal.
    InvalidHalt(HaltReason),
    /// The step budget ran out (infinite or very long loop).
    OutOfSteps,
    /// The gas limit (when set) was exhausted.
    OutOfGas,
}

/// Why an execution halted exceptionally.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HaltReason {
    /// Executed `INVALID` (0xfe) or an unassigned opcode.
    InvalidOpcode,
    /// `JUMP`/`JUMPI` to a non-`JUMPDEST` target.
    BadJumpDestination,
    /// Popped from an empty stack.
    StackUnderflow,
    /// Pushed past [`STACK_LIMIT`].
    StackOverflow,
}

/// The result of a contract execution.
#[derive(Clone, Debug)]
pub struct Execution {
    /// Terminal state.
    pub outcome: Outcome,
    /// Instructions executed.
    pub steps: usize,
    /// Storage after execution (only slots ever written).
    pub storage: BTreeMap<U256, U256>,
    /// Program counters of executed `INVALID` instructions (at most one —
    /// execution halts there — but kept as a list for uniform accounting).
    pub invalid_pcs: Vec<usize>,
    /// Every pc executed at least once, in first-visit order. Used as
    /// coverage feedback by the fuzzer.
    pub visited_pcs: Vec<usize>,
    /// Gas consumed (tracked whether or not a limit was set).
    pub gas_used: u64,
}

impl Execution {
    /// True if the run ended in an exceptional halt caused by `INVALID` —
    /// the fuzzing oracle for seeded bugs.
    pub fn hit_invalid(&self) -> bool {
        matches!(
            self.outcome,
            Outcome::InvalidHalt(HaltReason::InvalidOpcode)
        )
    }

    /// True if the run completed without exceptional halt or revert.
    pub fn succeeded(&self) -> bool {
        matches!(self.outcome, Outcome::Stop | Outcome::Return(_))
    }
}

/// A concrete EVM interpreter over one contract's runtime bytecode.
///
/// # Examples
///
/// ```
/// use sigrec_evm::{Interpreter, Env, Outcome};
///
/// // PUSH1 0x2a PUSH1 0x00 MSTORE PUSH1 0x20 PUSH1 0x00 RETURN
/// let code = [0x60, 0x2a, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3];
/// let exec = Interpreter::new(&code).run(&Env::default());
/// match exec.outcome {
///     Outcome::Return(data) => assert_eq!(data[31], 0x2a),
///     other => panic!("unexpected outcome {:?}", other),
/// }
/// ```
pub struct Interpreter {
    disasm: Disassembly,
    step_limit: usize,
    gas_limit: Option<u64>,
}

impl Interpreter {
    /// Creates an interpreter with the default step limit (1 M instructions)
    /// and no gas limit.
    pub fn new(code: &[u8]) -> Self {
        Interpreter {
            disasm: Disassembly::new(code),
            step_limit: 1_000_000,
            gas_limit: None,
        }
    }

    /// Overrides the instruction budget.
    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// Sets a gas limit (simplified Istanbul schedule; see [`crate::gas`]).
    pub fn with_gas_limit(mut self, limit: u64) -> Self {
        self.gas_limit = Some(limit);
        self
    }

    /// Runs the contract to completion under `env`.
    pub fn run(&self, env: &Env) -> Execution {
        Machine::new(&self.disasm, env, self.step_limit, self.gas_limit).run()
    }
}

struct Machine<'a> {
    disasm: &'a Disassembly,
    env: &'a Env,
    stack: Vec<U256>,
    memory: Vec<u8>,
    storage: BTreeMap<U256, U256>,
    steps: usize,
    step_limit: usize,
    visited: Vec<usize>,
    seen: std::collections::HashSet<usize>,
    gas_used: u64,
    gas_limit: Option<u64>,
}

enum Step {
    Continue(usize),
    Halt(Outcome),
}

impl<'a> Machine<'a> {
    fn new(
        disasm: &'a Disassembly,
        env: &'a Env,
        step_limit: usize,
        gas_limit: Option<u64>,
    ) -> Self {
        Machine {
            disasm,
            env,
            stack: Vec::with_capacity(64),
            memory: Vec::new(),
            storage: BTreeMap::new(),
            steps: 0,
            step_limit,
            visited: Vec::new(),
            seen: std::collections::HashSet::new(),
            gas_used: 0,
            gas_limit,
        }
    }

    /// Charges gas; true if the budget (when set) is exhausted.
    fn charge(&mut self, amount: u64) -> bool {
        self.gas_used = self.gas_used.saturating_add(amount);
        matches!(self.gas_limit, Some(limit) if self.gas_used > limit)
    }

    fn run(mut self) -> Execution {
        let mut pc = 0usize;
        let mut invalid_pcs = Vec::new();
        let outcome = loop {
            if self.steps >= self.step_limit {
                break Outcome::OutOfSteps;
            }
            let Some(ins) = self.disasm.at(pc) else {
                // Running off the end (or into push data) is a STOP.
                break Outcome::Stop;
            };
            self.steps += 1;
            if self.charge(gas::static_cost(ins.opcode)) {
                break Outcome::OutOfGas;
            }
            if self.seen.insert(pc) {
                self.visited.push(pc);
            }
            if matches!(ins.opcode, Opcode::Invalid(_)) {
                invalid_pcs.push(pc);
            }
            match self.step(pc, ins.opcode, ins.push_value()) {
                Step::Continue(next) => pc = next,
                Step::Halt(outcome) => break outcome,
            }
        };
        Execution {
            outcome,
            steps: self.steps,
            storage: self.storage,
            invalid_pcs,
            visited_pcs: self.visited,
            gas_used: self.gas_used,
        }
    }

    fn pop(&mut self) -> Result<U256, HaltReason> {
        self.stack.pop().ok_or(HaltReason::StackUnderflow)
    }

    fn push(&mut self, v: U256) -> Result<(), HaltReason> {
        if self.stack.len() >= STACK_LIMIT {
            return Err(HaltReason::StackOverflow);
        }
        self.stack.push(v);
        Ok(())
    }

    fn mem_grow(&mut self, end: usize) {
        if end > self.memory.len() {
            // EVM memory grows in 32-byte words.
            let old_words = (self.memory.len() / 32) as u64;
            let new_len = end.div_ceil(32) * 32;
            let _ = self.charge(gas::memory_expansion_cost(old_words, (new_len / 32) as u64));
            self.memory.resize(new_len, 0);
        }
    }

    fn mem_read_word(&mut self, offset: usize) -> U256 {
        self.mem_grow(offset + 32);
        U256::from_be_bytes(&self.memory[offset..offset + 32])
    }

    fn mem_write_word(&mut self, offset: usize, value: U256) {
        self.mem_grow(offset + 32);
        self.memory[offset..offset + 32].copy_from_slice(&value.to_be_bytes());
    }

    fn mem_slice(&mut self, offset: usize, len: usize) -> &[u8] {
        self.mem_grow(offset + len);
        &self.memory[offset..offset + len]
    }

    fn calldata_word(&self, offset: U256) -> U256 {
        let mut buf = [0u8; 32];
        if let Some(off) = offset.as_usize() {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = self.env.calldata.get(off + i).copied().unwrap_or(0);
            }
        }
        U256::from_be_bytes(&buf)
    }

    fn step(&mut self, pc: usize, op: Opcode, push: Option<U256>) -> Step {
        use Opcode::*;
        let next = match self.disasm.at(pc) {
            Some(i) => i.next_pc(),
            None => pc + 1,
        };
        macro_rules! try_halt {
            ($e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(r) => return Step::Halt(Outcome::InvalidHalt(r)),
                }
            };
        }
        macro_rules! binop {
            (|$a:ident, $b:ident| $body:expr) => {{
                let $a = try_halt!(self.pop());
                let $b = try_halt!(self.pop());
                try_halt!(self.push($body));
            }};
        }
        match op {
            Stop => return Step::Halt(Outcome::Stop),
            Add => binop!(|a, b| a + b),
            Mul => binop!(|a, b| a * b),
            Sub => binop!(|a, b| a - b),
            Div => binop!(|a, b| a / b),
            SDiv => binop!(|a, b| a.signed_div(b)),
            Mod => binop!(|a, b| a % b),
            SMod => binop!(|a, b| a.signed_rem(b)),
            AddMod => {
                let a = try_halt!(self.pop());
                let b = try_halt!(self.pop());
                let m = try_halt!(self.pop());
                try_halt!(self.push(a.add_mod(b, m)));
            }
            MulMod => {
                let a = try_halt!(self.pop());
                let b = try_halt!(self.pop());
                let m = try_halt!(self.pop());
                try_halt!(self.push(a.mul_mod(b, m)));
            }
            Exp => {
                let a = try_halt!(self.pop());
                let b = try_halt!(self.pop());
                let _ = self.charge(gas::exp_cost(b.bits().div_ceil(8) as u64));
                try_halt!(self.push(a.wrapping_pow(b)));
            }
            SignExtend => binop!(|a, b| b.sign_extend(a)),
            Lt => binop!(|a, b| if a < b { U256::ONE } else { U256::ZERO }),
            Gt => binop!(|a, b| if a > b { U256::ONE } else { U256::ZERO }),
            SLt => binop!(|a, b| if a.signed_cmp(&b).is_lt() {
                U256::ONE
            } else {
                U256::ZERO
            }),
            SGt => binop!(|a, b| if a.signed_cmp(&b).is_gt() {
                U256::ONE
            } else {
                U256::ZERO
            }),
            Eq => binop!(|a, b| if a == b { U256::ONE } else { U256::ZERO }),
            IsZero => {
                let a = try_halt!(self.pop());
                try_halt!(self.push(if a.is_zero() { U256::ONE } else { U256::ZERO }));
            }
            And => binop!(|a, b| a & b),
            Or => binop!(|a, b| a | b),
            Xor => binop!(|a, b| a ^ b),
            Not => {
                let a = try_halt!(self.pop());
                try_halt!(self.push(!a));
            }
            Byte => binop!(|a, b| b.byte(a)),
            Shl => binop!(|a, b| b << a),
            Shr => binop!(|a, b| b >> a),
            Sar => binop!(|a, b| b.sar(a)),
            Keccak256 => {
                let offset = try_halt!(self.pop());
                let len = try_halt!(self.pop());
                let (Some(o), Some(l)) = (offset.as_usize(), len.as_usize()) else {
                    return Step::Halt(Outcome::InvalidHalt(HaltReason::InvalidOpcode));
                };
                let _ = self.charge(gas::keccak_cost(l as u64));
                let data = self.mem_slice(o, l).to_vec();
                try_halt!(self.push(U256::from_be_bytes(&keccak256(&data))));
            }
            Address => try_halt!(self.push(self.env.address)),
            Balance | ExtCodeSize | ExtCodeHash | BlockHash => {
                try_halt!(self.pop());
                try_halt!(self.push(U256::ZERO));
            }
            Origin => try_halt!(self.push(self.env.origin)),
            Caller => try_halt!(self.push(self.env.caller)),
            CallValue => try_halt!(self.push(self.env.callvalue)),
            CallDataLoad => {
                let off = try_halt!(self.pop());
                let v = self.calldata_word(off);
                try_halt!(self.push(v));
            }
            CallDataSize => try_halt!(self.push(U256::from(self.env.calldata.len()))),
            CallDataCopy => {
                let dst = try_halt!(self.pop());
                let src = try_halt!(self.pop());
                let len = try_halt!(self.pop());
                let (Some(d), Some(l)) = (dst.as_usize(), len.as_usize()) else {
                    return Step::Halt(Outcome::InvalidHalt(HaltReason::InvalidOpcode));
                };
                let _ = self.charge(gas::copy_cost(l as u64));
                self.mem_grow(d + l);
                let s = src.as_usize();
                for i in 0..l {
                    let byte = s
                        .and_then(|s| self.env.calldata.get(s + i))
                        .copied()
                        .unwrap_or(0);
                    self.memory[d + i] = byte;
                }
            }
            CodeSize => try_halt!(self.push(U256::from(self.disasm.code_len()))),
            CodeCopy | ReturnDataCopy | ExtCodeCopy => {
                let pops = op.stack_in();
                for _ in 0..pops {
                    try_halt!(self.pop());
                }
            }
            GasPrice | ReturnDataSize | Coinbase | Difficulty | GasLimit | ChainId
            | SelfBalance | BaseFee => try_halt!(self.push(U256::ZERO)),
            Timestamp => try_halt!(self.push(self.env.timestamp)),
            Number => try_halt!(self.push(self.env.block_number)),
            Pop => {
                try_halt!(self.pop());
            }
            MLoad => {
                let off = try_halt!(self.pop());
                let Some(o) = off.as_usize() else {
                    return Step::Halt(Outcome::InvalidHalt(HaltReason::InvalidOpcode));
                };
                let v = self.mem_read_word(o);
                try_halt!(self.push(v));
            }
            MStore => {
                let off = try_halt!(self.pop());
                let val = try_halt!(self.pop());
                let Some(o) = off.as_usize() else {
                    return Step::Halt(Outcome::InvalidHalt(HaltReason::InvalidOpcode));
                };
                self.mem_write_word(o, val);
            }
            MStore8 => {
                let off = try_halt!(self.pop());
                let val = try_halt!(self.pop());
                let Some(o) = off.as_usize() else {
                    return Step::Halt(Outcome::InvalidHalt(HaltReason::InvalidOpcode));
                };
                self.mem_grow(o + 1);
                self.memory[o] = val.low_u64() as u8;
            }
            SLoad => {
                let key = try_halt!(self.pop());
                let v = self.storage.get(&key).copied().unwrap_or(U256::ZERO);
                try_halt!(self.push(v));
            }
            SStore => {
                let key = try_halt!(self.pop());
                let val = try_halt!(self.pop());
                self.storage.insert(key, val);
            }
            Jump => {
                let target = try_halt!(self.pop());
                return self.jump_to(target);
            }
            JumpI => {
                let target = try_halt!(self.pop());
                let cond = try_halt!(self.pop());
                if !cond.is_zero() {
                    return self.jump_to(target);
                }
            }
            Pc => try_halt!(self.push(U256::from(pc))),
            MSize => try_halt!(self.push(U256::from(self.memory.len()))),
            Gas => try_halt!(self.push(U256::from(u64::MAX))),
            JumpDest => {}
            Push(_) => try_halt!(self.push(push.unwrap_or(U256::ZERO))),
            Dup(n) => {
                let n = n as usize;
                if self.stack.len() < n {
                    return Step::Halt(Outcome::InvalidHalt(HaltReason::StackUnderflow));
                }
                let v = self.stack[self.stack.len() - n];
                try_halt!(self.push(v));
            }
            Swap(n) => {
                let n = n as usize;
                if self.stack.len() < n + 1 {
                    return Step::Halt(Outcome::InvalidHalt(HaltReason::StackUnderflow));
                }
                let top = self.stack.len() - 1;
                self.stack.swap(top, top - n);
            }
            Log(n) => {
                for _ in 0..(2 + n as usize) {
                    try_halt!(self.pop());
                }
            }
            Create | Create2 => {
                for _ in 0..op.stack_in() {
                    try_halt!(self.pop());
                }
                try_halt!(self.push(U256::ZERO));
            }
            Call | CallCode | DelegateCall | StaticCall => {
                for _ in 0..op.stack_in() {
                    try_halt!(self.pop());
                }
                // External calls succeed vacuously.
                try_halt!(self.push(U256::ONE));
            }
            Return => {
                let off = try_halt!(self.pop());
                let len = try_halt!(self.pop());
                let data = match (off.as_usize(), len.as_usize()) {
                    (Some(o), Some(l)) => self.mem_slice(o, l).to_vec(),
                    _ => Vec::new(),
                };
                return Step::Halt(Outcome::Return(data));
            }
            Revert => {
                let off = try_halt!(self.pop());
                let len = try_halt!(self.pop());
                let data = match (off.as_usize(), len.as_usize()) {
                    (Some(o), Some(l)) => self.mem_slice(o, l).to_vec(),
                    _ => Vec::new(),
                };
                return Step::Halt(Outcome::Revert(data));
            }
            SelfDestruct => {
                let _ = self.pop();
                return Step::Halt(Outcome::Stop);
            }
            Invalid(_) => {
                return Step::Halt(Outcome::InvalidHalt(HaltReason::InvalidOpcode));
            }
        }
        Step::Continue(next)
    }

    fn jump_to(&mut self, target: U256) -> Step {
        match target.as_usize() {
            Some(t) if self.disasm.is_jumpdest(t) => Step::Continue(t),
            _ => Step::Halt(Outcome::InvalidHalt(HaltReason::BadJumpDestination)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(code: &[u8], calldata: &[u8]) -> Execution {
        Interpreter::new(code).run(&Env::with_calldata(calldata.to_vec()))
    }

    #[test]
    fn arithmetic_and_return() {
        // PUSH1 2 PUSH1 3 MUL PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN
        let code = [
            0x60, 0x02, 0x60, 0x03, 0x02, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let e = run(&code, &[]);
        match e.outcome {
            Outcome::Return(d) => assert_eq!(U256::from_be_bytes(&d), U256::from(6u64)),
            o => panic!("{:?}", o),
        }
    }

    #[test]
    fn calldataload_reads_words() {
        // PUSH1 0 CALLDATALOAD PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN
        let code = [
            0x60, 0x00, 0x35, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let mut cd = vec![0u8; 32];
        cd[0] = 0xa9;
        cd[31] = 0x01;
        let e = run(&code, &cd);
        match e.outcome {
            Outcome::Return(d) => assert_eq!(d, cd),
            o => panic!("{:?}", o),
        }
    }

    #[test]
    fn calldataload_past_end_zero_fills() {
        let code = [
            0x60, 0x10, 0x35, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let e = run(&code, &[0xff; 16]);
        match e.outcome {
            Outcome::Return(d) => assert_eq!(d, vec![0u8; 32]),
            o => panic!("{:?}", o),
        }
    }

    #[test]
    fn calldatacopy_into_memory() {
        // CALLDATACOPY(dst=0, src=4, len=32) then return memory[0..32].
        let code = [
            0x60, 0x20, // len
            0x60, 0x04, // src
            0x60, 0x00, // dst
            0x37, // CALLDATACOPY
            0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let mut cd = vec![0xaa; 4];
        cd.extend(std::iter::repeat_n(0x42, 32));
        let e = run(&code, &cd);
        match e.outcome {
            Outcome::Return(d) => assert_eq!(d, vec![0x42; 32]),
            o => panic!("{:?}", o),
        }
    }

    #[test]
    fn invalid_opcode_halts() {
        let code = [0xfe];
        let e = run(&code, &[]);
        assert!(e.hit_invalid());
        assert_eq!(e.invalid_pcs, vec![0]);
    }

    #[test]
    fn bad_jump_halts() {
        let code = [0x60, 0x01, 0x56]; // JUMP to pc1 (not a JUMPDEST)
        let e = run(&code, &[]);
        assert_eq!(
            e.outcome,
            Outcome::InvalidHalt(HaltReason::BadJumpDestination)
        );
    }

    #[test]
    fn conditional_jump_taken_and_not_taken() {
        // JUMPI over an INVALID: PUSH1 cond PUSH1 7 JUMPI INVALID STOP JUMPDEST STOP
        let mut code = vec![0x60, 0x01, 0x60, 0x07, 0x57, 0xfe, 0x00, 0x5b, 0x00];
        let taken = run(&code, &[]);
        assert_eq!(taken.outcome, Outcome::Stop);
        code[1] = 0x00; // cond = 0 → falls through into INVALID
        let fell = run(&code, &[]);
        assert!(fell.hit_invalid());
    }

    #[test]
    fn stack_underflow_detected() {
        let code = [0x01]; // ADD on empty stack
        let e = run(&code, &[]);
        assert_eq!(e.outcome, Outcome::InvalidHalt(HaltReason::StackUnderflow));
    }

    #[test]
    fn loop_hits_step_limit() {
        // JUMPDEST PUSH1 0 JUMP — infinite loop.
        let code = [0x5b, 0x60, 0x00, 0x56];
        let e = Interpreter::new(&code)
            .with_step_limit(100)
            .run(&Env::default());
        assert_eq!(e.outcome, Outcome::OutOfSteps);
    }

    #[test]
    fn storage_round_trip() {
        // SSTORE(5, 42); return SLOAD(5).
        let code = [
            0x60, 0x2a, 0x60, 0x05, 0x55, // SSTORE
            0x60, 0x05, 0x54, // SLOAD
            0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let e = run(&code, &[]);
        assert_eq!(e.storage.get(&U256::from(5u64)), Some(&U256::from(42u64)));
        match e.outcome {
            Outcome::Return(d) => assert_eq!(U256::from_be_bytes(&d), U256::from(42u64)),
            o => panic!("{:?}", o),
        }
    }

    #[test]
    fn keccak_opcode_hashes_memory() {
        // MSTORE8(0, 'a'); hash memory[0..1]; return it.
        let code = [
            0x60, 0x61, 0x60, 0x00, 0x53, // MSTORE8
            0x60, 0x01, 0x60, 0x00, 0x20, // KECCAK256(0,1)
            0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let e = run(&code, &[]);
        match e.outcome {
            Outcome::Return(d) => {
                assert_eq!(d.as_slice(), &keccak256(b"a"));
            }
            o => panic!("{:?}", o),
        }
    }

    #[test]
    fn revert_carries_payload() {
        // MSTORE8(0, 0x99); REVERT(0, 1)
        let code = [0x60, 0x99, 0x60, 0x00, 0x53, 0x60, 0x01, 0x60, 0x00, 0xfd];
        let e = run(&code, &[]);
        assert_eq!(e.outcome, Outcome::Revert(vec![0x99]));
        assert!(!e.succeeded());
    }

    #[test]
    fn signextend_and_sar_concrete() {
        // SIGNEXTEND(0, 0xff) == -1, then SAR(shift=8, value=-1) == -1.
        let code = [
            0x60, 0xff, 0x60, 0x00, 0x0b, // SIGNEXTEND
            0x60, 0x08, 0x1d, // PUSH shift, SAR
            0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3,
        ];
        let e = run(&code, &[]);
        match e.outcome {
            Outcome::Return(d) => assert_eq!(U256::from_be_bytes(&d), U256::MAX),
            o => panic!("{:?}", o),
        }
    }

    #[test]
    fn gas_tracked_without_limit() {
        let code = [0x60, 0x01, 0x60, 0x02, 0x01, 0x50, 0x00]; // 3+3+3+2+0
        let e = run(&code, &[]);
        assert_eq!(e.outcome, Outcome::Stop);
        assert_eq!(e.gas_used, 11);
    }

    #[test]
    fn gas_limit_halts_loop() {
        // Infinite loop: JUMPDEST PUSH1 0 JUMP.
        let code = [0x5b, 0x60, 0x00, 0x56];
        let e = Interpreter::new(&code)
            .with_gas_limit(10_000)
            .run(&Env::default());
        assert_eq!(e.outcome, Outcome::OutOfGas);
        assert!(e.gas_used >= 10_000);
    }

    #[test]
    fn memory_expansion_charged() {
        // MSTORE at a high offset: expansion dominates.
        let code = [0x60, 0x01, 0x61, 0x40, 0x00, 0x52, 0x00]; // MSTORE(0x4000, 1)
        let e = run(&code, &[]);
        // 0x4000+32 bytes = 513 words: 3·513 + 513²/512 = 1539 + 513 = 2052.
        assert!(e.gas_used > 2000, "gas {}", e.gas_used);
    }

    #[test]
    fn huge_copy_runs_out_of_gas() {
        // CALLDATACOPY(0, 0, 1MB) under a tight gas limit.
        let code = [
            0x62, 0x10, 0x00, 0x00, // len = 1 MiB
            0x60, 0x00, 0x60, 0x00, 0x37, 0x00,
        ];
        let e = Interpreter::new(&code)
            .with_gas_limit(50_000)
            .run(&Env::default());
        assert_eq!(e.outcome, Outcome::OutOfGas);
    }

    #[test]
    fn codesize_pushes_the_input_length() {
        // CODESIZE PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN: 9 bytes.
        let plain = vec![0x38, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3];
        // The same, then a PUSH4 with two of its four immediate bytes: 12
        // bytes, not the 14 its nominal instruction sizes add to.
        let mut truncated = plain.clone();
        truncated.extend_from_slice(&[0x63, 0xaa, 0xbb]);
        for code in [plain, truncated] {
            match run(&code, &[]).outcome {
                Outcome::Return(d) => {
                    assert_eq!(U256::from_be_bytes(&d), U256::from(code.len() as u64))
                }
                o => panic!("{:?}", o),
            }
        }
    }

    #[test]
    fn coverage_tracks_first_visit_order() {
        let code = [0x60, 0x01, 0x50, 0x00]; // PUSH1 1 POP STOP
        let e = run(&code, &[]);
        assert_eq!(e.visited_pcs, vec![0, 2, 3]);
    }
}
