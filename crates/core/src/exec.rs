//! The type-aware symbolic executor (TASE).
//!
//! §4.2 of the paper: TASE statically explores the paths of a function,
//! treating the call data as symbols and every environment read as a free
//! symbol, and stops a path when a jump target depends on the input. On the
//! way it gathers the [`FunctionFacts`] the rules consume.
//!
//! Loop discipline: symbolic branch conditions fork the path, but each block
//! forks at most a few times, after which the executor takes the
//! larger-target branch (compilers place loop exits after bodies, so this
//! exits loops). Concrete conditions never fork; runaway concrete loops are
//! cut by a per-block visit cap. Loop *heads* are detected statically (a
//! forward conditional jump over a region containing a backward jump), which
//! lets the inference engine scope loop bounds to the facts inside the loop
//! body by pc range.

use crate::expr::{binop_of, BinOp, ExprArena, ExprId, ExprKind, UnOp, MAX_POOLED_NODES};
use crate::facts::{self, CopyFact, FunctionFacts, GuardFact, LoadFact, Usage, UseFact};
use crate::infer::InferEngine;
use crate::memory::SymMemory;
use crate::outcome::{BudgetKind, DelegateTarget};
use sigrec_evm::{Disassembly, Instruction, Opcode, Program, STACK_LIMIT, U256};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Multiply-shift hasher for `usize` pc keys. The visit counters are
/// probed on every jump and cloned on every fork; a Fibonacci multiply
/// spreads the small, dense pcs well without paying SipHash per probe.
#[derive(Default)]
struct PcHasher(u64);

impl std::hash::Hasher for PcHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("pc keys hash through write_usize")
    }
    fn write_usize(&mut self, v: usize) {
        self.0 = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A pc-keyed hash map with the cheap [`PcHasher`].
type PcMap<V> = HashMap<usize, V, std::hash::BuildHasherDefault<PcHasher>>;

/// Exploration budgets.
#[derive(Clone, Copy, Debug)]
pub struct TaseConfig {
    /// Maximum paths explored per function.
    pub max_paths: usize,
    /// Maximum instructions per path.
    pub max_steps_per_path: usize,
    /// Maximum instructions across all paths of one function.
    pub max_total_steps: usize,
    /// Which matcher runs the R1–R31 rules over the gathered facts.
    pub infer_engine: InferEngine,
    /// Collect per-fork [`ExecStats`] counters (off by default: the
    /// fork-cost probes are skipped entirely when disabled).
    pub collect_stats: bool,
    /// Per-contract wall-clock budget. The pipeline stamps a deadline
    /// when it plans a contract and every function exploration checks it
    /// cooperatively (every 1 024 steps), recording [`BudgetKind::Deadline`]
    /// and stopping. `None` (the default) never
    /// cuts on time. Deadline-truncated results are nondeterministic and
    /// are therefore never memoised.
    pub max_wall_time: Option<Duration>,
    /// Test-only fault injection: the pipeline panics when it is about to
    /// explore the function whose selector (big-endian `u32`) matches.
    /// Exercises the batch scheduler's panic isolation without planting a
    /// real bug; `None` (the default) injects nothing.
    #[doc(hidden)]
    pub panic_on_selector: Option<u32>,
    /// Test-only fault injection: the pipeline appends a phantom `bool`
    /// parameter to the function whose selector matches, but only on the
    /// cache-using paths (`recover`, `explain`, the deduplicating batch),
    /// never on `recover_cold` — a deliberate disagreement for proving
    /// the differential oracle, whose reference is `recover_cold`,
    /// actually catches one. `None` (the default) injects nothing.
    #[doc(hidden)]
    pub disagree_on_selector: Option<u32>,
}

/// How many times one `JUMPI` may fork on a symbolic condition per path;
/// past it the path takes the larger-pc side (the loop exit) and records
/// [`BudgetKind::ForkCap`].
pub const FORK_LIMIT_PER_BLOCK: u32 = 3;

/// How many times one block may be entered per path (concrete loops);
/// past it the path ends and records [`BudgetKind::VisitCap`].
pub const BLOCK_VISIT_LIMIT: u32 = 600;

/// The deadline is polled when `total_steps & DEADLINE_CHECK_MASK == 0`:
/// cheap enough to keep in the hot loop, frequent enough (every 1024
/// steps, plus once on entry) that overshoot stays in the microseconds.
pub(crate) const DEADLINE_CHECK_MASK: usize = 0x3ff;

impl Default for TaseConfig {
    fn default() -> Self {
        TaseConfig {
            max_paths: 512,
            max_steps_per_path: 60_000,
            max_total_steps: 400_000,
            infer_engine: InferEngine::Tree,
            collect_stats: false,
            max_wall_time: None,
            panic_on_selector: None,
            disagree_on_selector: None,
        }
    }
}

/// Executor counters for one `explore` call.
///
/// `steps` and `paths` fall out of the budget accounting and are always
/// exact; the fork-cost fields are only collected when
/// [`TaseConfig::collect_stats`] is set (they cost a probe per fork).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed across all paths.
    pub steps: u64,
    /// Paths explored.
    pub paths: u64,
    /// Symbolic-branch forks taken.
    pub forks: u64,
    /// Units copied by forks: a fork clones the path state, so each adds
    /// its stack length plus its memory-journal length.
    pub fork_units_copied: u64,
    /// High-water mark of the pending-path worklist.
    pub worklist_peak: u64,
}

impl ExecStats {
    /// Accumulates another run's counters (peaks take the max).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.steps += other.steps;
        self.paths += other.paths;
        self.forks += other.forks;
        self.fork_units_copied += other.fork_units_copied;
        self.worklist_peak = self.worklist_peak.max(other.worklist_peak);
    }
}

#[derive(Default)]
struct PathState {
    pc: usize,
    stack: Vec<ExprId>,
    memory: SymMemory,
    visits: PcMap<u32>,
    steps: usize,
}

impl PathState {
    /// Makes this state a copy of `src` on its own buffers, so a fork
    /// into a spare state allocates nothing once the spare is as large.
    fn copy_from(&mut self, src: &PathState) {
        self.pc = src.pc;
        self.stack.clone_from(&src.stack);
        self.memory.clone_from(&src.memory);
        // The map is only looked up, never iterated, so a rebuilt copy
        // is as good as a clone, and keeps this map's storage where
        // `clone_from` reallocates unless the bucket counts match.
        self.visits.clear();
        self.visits
            .extend(src.visits.iter().map(|(&pc, &n)| (pc, n)));
        self.steps = src.steps;
    }

    /// What a spare state holds room for: its buffers' capacities, plus
    /// one for the state itself.
    fn units(&self) -> usize {
        1 + self.stack.capacity() + self.memory.capacity() + self.visits.capacity()
    }
}

/// The paths waiting to run, newest last, and the spare states that
/// ended paths leave for later forks.
///
/// The explore loop pops the newest state first and runs at most
/// `max_paths` paths, so at most `room` more states (`max_paths` minus
/// the paths started) can ever be popped. A state below the newest
/// `room` could never run: once that many are pending, a push drops the
/// oldest instead of keeping it. The paths that run, and therefore the
/// facts, are those of an unbounded worklist; only the memory differs.
#[derive(Default)]
struct Worklist {
    pending: VecDeque<PathState>,
    room: usize,
    /// Whether a state was dropped for want of room.
    dropped: bool,
    /// States whose paths ended, for forks to copy into. They hold at
    /// most [`MAX_POOLED_NODES`] units in total (see
    /// [`PathState::units`]); a state past that is freed.
    spare: Vec<PathState>,
    spare_units: usize,
}

impl Worklist {
    /// Readies a recycled worklist for an exploration of at most
    /// `max_paths` paths.
    fn start(&mut self, max_paths: usize) {
        debug_assert!(self.pending.is_empty(), "a kept worklist is drained");
        self.room = max_paths;
        self.dropped = false;
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn push(&mut self, state: PathState) {
        if self.pending.len() == self.room {
            self.dropped = true;
            match self.pending.pop_front() {
                Some(oldest) => self.retire(oldest),
                None => return self.retire(state),
            }
        }
        self.pending.push_back(state);
    }

    /// The newest state; popping it uses up one unit of room.
    fn pop(&mut self) -> Option<PathState> {
        let state = self.pending.pop_back()?;
        self.room -= 1;
        Some(state)
    }

    /// A spare state, or a new one; its contents are stale.
    fn spare(&mut self) -> PathState {
        match self.spare.pop() {
            Some(state) => {
                self.spare_units -= state.units();
                state
            }
            None => PathState::default(),
        }
    }

    /// The state a path starts from at `pc`, with `top` on the stack.
    fn fresh(&mut self, pc: usize, top: ExprId) -> PathState {
        let mut state = self.spare();
        state.pc = pc;
        state.stack.clear();
        state.stack.push(top);
        state.memory.clear();
        state.visits.clear();
        state.steps = 0;
        state
    }

    /// A copy of `st` for the other side of a fork.
    fn fork(&mut self, st: &PathState) -> PathState {
        let mut other = self.spare();
        other.copy_from(st);
        other
    }

    /// Keeps the state of a path that ended (or never ran) for a later
    /// fork, within the spare budget.
    fn retire(&mut self, state: PathState) {
        let units = state.units();
        if self.spare_units + units <= MAX_POOLED_NODES {
            self.spare_units += units;
            self.spare.push(state);
        }
    }

    /// Retires every pending state, leaving the worklist ready to keep.
    fn drain(&mut self) {
        while let Some(state) = self.pending.pop_back() {
            self.retire(state);
        }
        if self.pending.capacity() > MAX_POOLED_NODES {
            self.pending = VecDeque::new();
        }
    }
}

/// The scratch one exploration uses and the next one on the thread
/// reuses: the symbol map and the worklist with its spare states.
#[derive(Default)]
struct Scratch {
    syms: HashMap<SymKey, u32>,
    worklist: Worklist,
}

thread_local! {
    /// The scratch of the last exploration that finished on this thread.
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// What a free symbol stands for. Reads of one source share one symbol;
/// its id is the order in which the exploration first saw the source.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum SymKey {
    /// The selector word the dispatcher leaves on the stack.
    Residue,
    /// An environment read that is fixed for the call (`CALLER`, …).
    Env(Opcode),
    /// The result of the instruction at this pc (`GAS`, `KECCAK256`, a
    /// call, …): an instruction's pc determines its opcode.
    At(usize),
    /// Memory at a concrete address that no write covers.
    Mem(u64),
    /// Memory at a symbolic address.
    MemAt(ExprId),
    /// The storage slot at this key.
    Slot(ExprId),
}

/// The executor for one contract.
pub struct Tase<'a> {
    disasm: &'a Disassembly,
    config: TaseConfig,
    /// The exploration's expressions; handed to the facts at the end.
    arena: ExprArena,
    /// The symbol map, keyed per process: `SymKey::Mem` carries
    /// addresses that the bytecode chooses.
    syms: HashMap<SymKey, u32>,
    facts: FunctionFacts,
    /// Cleared key lists for the uses the exploration records.
    spare_keys: Vec<Vec<ExprId>>,
    total_steps: usize,
    stats: ExecStats,
    deadline: Option<Instant>,
}

impl<'a> Tase<'a> {
    /// Creates an executor over a disassembly.
    pub fn new(disasm: &'a Disassembly, config: TaseConfig) -> Self {
        let deadline = config.max_wall_time.map(|d| Instant::now() + d);
        Tase {
            disasm,
            config,
            arena: ExprArena::new(),
            syms: HashMap::new(),
            facts: FunctionFacts::default(),
            spare_keys: Vec::new(),
            total_steps: 0,
            stats: ExecStats::default(),
            deadline,
        }
    }

    /// Overrides the deadline (builder style). The pipeline uses this to
    /// share one *per-contract* deadline across every function of a plan,
    /// instead of restarting the clock per function.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Does nothing: the disassembly carries the loop heads
    /// ([`Disassembly::loop_exit`]). Kept only for
    /// `perfbench/src/trace.rs`, which passes its [`Program`] here.
    pub fn with_program(self, _program: Arc<Program>) -> Self {
        self
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Explores the function whose body starts at `entry`, returning the
    /// gathered facts. The initial stack holds one free symbol (the
    /// selector word the dispatcher leaves behind).
    pub fn explore(self, entry: usize) -> FunctionFacts {
        self.explore_stats(entry).0
    }

    /// Like [`Tase::explore`], also returning the executor counters
    /// (fork-cost fields require [`TaseConfig::collect_stats`]).
    ///
    /// The symbol map, the worklist and its spare states come from the
    /// thread's scratch and go back to it at the end, as do the spare
    /// key lists; the facts' vectors come from the buffers the pipeline
    /// recycled from earlier facts on this thread.
    pub fn explore_stats(mut self, entry: usize) -> (FunctionFacts, ExecStats) {
        let Scratch { syms, mut worklist } = SCRATCH.with(Cell::take).unwrap_or_default();
        self.syms = syms;
        self.spare_keys = self.facts.take_buffers();
        let residue = self.sym(SymKey::Residue);
        worklist.start(self.config.max_paths);
        let first = worklist.fresh(entry, residue);
        worklist.push(first);
        let mut paths = 0usize;
        while let Some(state) = worklist.pop() {
            if self.total_steps >= self.config.max_total_steps {
                self.facts.add_budget(BudgetKind::TotalSteps);
                worklist.retire(state);
                break;
            }
            if self.past_deadline() {
                self.facts.add_budget(BudgetKind::Deadline);
                worklist.retire(state);
                break;
            }
            paths += 1;
            self.run_path(state, &mut worklist);
            if self.config.collect_stats {
                self.stats.worklist_peak = self.stats.worklist_peak.max(worklist.len() as u64);
            }
        }
        // A state that could never run was dropped, so the path budget
        // genuinely cut work. A pop happens only while `paths <
        // max_paths`, so a steps or deadline break never lands here.
        if worklist.dropped && paths == self.config.max_paths {
            self.facts.add_budget(BudgetKind::Paths);
        }
        self.facts.paths_explored = paths;
        self.stats.steps = self.total_steps as u64;
        self.stats.paths = paths as u64;
        worklist.drain();
        let mut syms = std::mem::take(&mut self.syms);
        if syms.capacity() > MAX_POOLED_NODES {
            syms = HashMap::new();
        }
        syms.clear();
        // Thread teardown may already have destroyed the scratch.
        let _ = SCRATCH.try_with(|s| s.set(Some(Scratch { syms, worklist })));
        facts::keep_spare_keys(std::mem::take(&mut self.spare_keys));
        let mut facts = self.facts;
        facts.arena = self.arena;
        (facts, self.stats)
    }

    /// The free symbol of `key`'s source.
    fn sym(&mut self, key: SymKey) -> ExprId {
        let next = self.syms.len() as u32;
        let id = *self.syms.entry(key).or_insert(next);
        self.arena.free_sym(id)
    }

    /// The three per-instruction budget checks: path steps, total steps,
    /// and the masked deadline poll. Records the budget and returns
    /// `false` when the path must stop.
    fn budget_ok(&mut self, st: &PathState) -> bool {
        if st.steps >= self.config.max_steps_per_path {
            self.facts.add_budget(BudgetKind::PathSteps);
            return false;
        }
        if self.total_steps >= self.config.max_total_steps {
            self.facts.add_budget(BudgetKind::TotalSteps);
            return false;
        }
        if self.total_steps & DEADLINE_CHECK_MASK == 0 && self.past_deadline() {
            self.facts.add_budget(BudgetKind::Deadline);
            return false;
        }
        true
    }

    /// Runs one path to its end and retires its state.
    fn run_path(&mut self, mut st: PathState, worklist: &mut Worklist) {
        self.run_steps(&mut st, worklist);
        worklist.retire(st);
    }

    fn run_steps(&mut self, st: &mut PathState, worklist: &mut Worklist) {
        let disasm = self.disasm;
        loop {
            if !self.budget_ok(st) {
                return;
            }
            let Some(ins) = disasm.at(st.pc) else {
                return; // ran off the end: implicit STOP
            };
            st.steps += 1;
            self.total_steps += 1;
            match self.step(st, ins, worklist) {
                Flow::Continue(pc) => st.pc = pc,
                Flow::End => return,
            }
        }
    }

    fn step(&mut self, st: &mut PathState, ins: &Instruction, worklist: &mut Worklist) -> Flow {
        use Opcode::*;
        let pc = st.pc;
        let op = ins.opcode;
        let next_pc = ins.next_pc();
        macro_rules! pop {
            () => {
                match st.stack.pop() {
                    Some(v) => v,
                    None => return Flow::End,
                }
            };
        }
        // A push past the EVM's 1 024 entries overflows the stack and
        // halts the frame, so it ends the path; a fork therefore copies
        // at most that many stack entries.
        macro_rules! push {
            ($v:expr) => {{
                if st.stack.len() >= STACK_LIMIT {
                    return Flow::End;
                }
                st.stack.push($v);
            }};
        }
        match op {
            Stop | Return | Revert | SelfDestruct | Invalid(_) => return Flow::End,
            Push(_) => {
                let v = self.arena.constant(ins.push_value().unwrap_or(U256::ZERO));
                push!(v);
            }
            Pop => {
                pop!();
            }
            Dup(n) => {
                let Some(i) = st.stack.len().checked_sub(n as usize) else {
                    return Flow::End;
                };
                push!(st.stack[i]);
            }
            Swap(n) => {
                let len = st.stack.len();
                if len <= n as usize {
                    return Flow::End;
                }
                st.stack.swap(len - 1, len - 1 - n as usize);
            }
            JumpDest => {}
            Add | Sub | Mul | Div | SDiv | Mod | SMod | Exp | And | Or | Xor | Lt | Gt | SLt
            | SGt | Eq => {
                let a = pop!();
                let b = pop!();
                let bop = binop_of(op);
                self.record_binop_uses(pc, bop, a, b);
                let v = self.arena.bin(bop, a, b);
                push!(v);
            }
            Shl | Shr | Sar => {
                let amount = pop!();
                let value = pop!();
                let bop = binop_of(op);
                // Generalised mask rules (§7: one rule per *semantics*, not
                // per instruction sequence): a shift pair is a mask.
                //   SHR(SHL(x,k),k)  == AND(x, low_mask(256-k))
                //   SHL(SHR(x,k),k)  == AND(x, high_mask(256-k))
                //   SAR(SHL(x,k),k)  == SIGNEXTEND((256-k)/8 - 1, x)
                if let (Some(k), ExprKind::Binary(inner_op, x, k2)) =
                    (self.arena.as_const(amount), *self.arena.kind(value))
                {
                    if self.arena.as_const(k2) == Some(k) && self.arena.depends_on_calldata(x) {
                        if let Some(kk) = k.as_u64() {
                            if kk > 0 && kk < 256 && kk % 8 == 0 {
                                match (op, inner_op) {
                                    (Shr, BinOp::Shl) => self.add_use(
                                        pc,
                                        x,
                                        Usage::MaskAnd(U256::low_mask(256 - kk as u32)),
                                    ),
                                    (Shl, BinOp::Shr) => self.add_use(
                                        pc,
                                        x,
                                        Usage::MaskAnd(U256::high_mask(256 - kk as u32)),
                                    ),
                                    (Sar, BinOp::Shl) => self.add_use(
                                        pc,
                                        x,
                                        Usage::SignExtendFrom((256 - kk) / 8 - 1),
                                    ),
                                    _ => {}
                                }
                            }
                        }
                    }
                }
                if op == Sar && !matches!(self.arena.kind(value), ExprKind::Binary(BinOp::Shl, ..))
                {
                    self.record_signed_use(pc, value);
                }
                let v = self.arena.bin(bop, value, amount);
                push!(v);
            }
            Byte => {
                let idx = pop!();
                let value = pop!();
                if self.arena.depends_on_calldata(value) {
                    self.add_use(pc, value, Usage::ByteExtract);
                }
                let v = self.arena.bin(BinOp::Byte, value, idx);
                push!(v);
            }
            SignExtend => {
                let idx = pop!();
                let value = pop!();
                if let (Some(b), true) = (
                    self.arena.eval(idx).and_then(|v| v.as_u64()),
                    self.arena.depends_on_calldata(value),
                ) {
                    self.add_use(pc, value, Usage::SignExtendFrom(b));
                }
                let v = self.arena.bin(BinOp::SignExtend, value, idx);
                push!(v);
            }
            IsZero => {
                let a = pop!();
                // EQ(x, 0) is ISZERO in disguise — the generalised form of
                // the double-negation bool hint (R14).
                let ar = &self.arena;
                let zero_and_calldata = |z: ExprId, x: ExprId| {
                    ar.as_const(z) == Some(U256::ZERO) && ar.depends_on_calldata(x)
                };
                let negated_calldata = match *ar.kind(a) {
                    ExprKind::Unary(UnOp::IsZero, inner) => Some(inner),
                    ExprKind::Binary(BinOp::Eq, x, z) if zero_and_calldata(z, x) => Some(x),
                    ExprKind::Binary(BinOp::Eq, z, x) if zero_and_calldata(z, x) => Some(x),
                    _ => None,
                };
                if let Some(inner) = negated_calldata {
                    if self.arena.depends_on_calldata(inner) {
                        self.add_use(pc, inner, Usage::DoubleIsZero);
                    }
                }
                let v = self.arena.un(UnOp::IsZero, a);
                push!(v);
            }
            Not => {
                let a = pop!();
                let v = self.arena.un(UnOp::Not, a);
                push!(v);
            }
            AddMod | MulMod => {
                pop!();
                pop!();
                pop!();
                let s = self.sym(SymKey::At(pc));
                push!(s);
            }
            Keccak256 => {
                pop!();
                pop!();
                let s = self.sym(SymKey::At(pc));
                push!(s);
            }
            CallDataLoad => {
                let loc = pop!();
                let value = self.arena.calldata_word(loc);
                self.facts.add_load(LoadFact { pc, loc, value });
                push!(value);
            }
            CallDataSize => {
                let v = self.arena.calldata_size();
                push!(v);
            }
            CallDataCopy => {
                let dst = pop!();
                let src = pop!();
                let len = pop!();
                let at = self.arena.eval(dst).and_then(|v| v.as_u64());
                let n = self.arena.eval(len);
                st.memory.record_copy(&mut self.arena, at, src, n);
                self.facts.add_copy(CopyFact { pc, dst, src, len });
            }
            MLoad => {
                let addr = pop!();
                let value = match self.arena.eval(addr).and_then(|v| v.as_u64()) {
                    Some(a) => match st.memory.load_word(&mut self.arena, a) {
                        Some(v) => v,
                        None => self.sym(SymKey::Mem(a)),
                    },
                    None => self.sym(SymKey::MemAt(addr)),
                };
                push!(value);
            }
            MStore => {
                let addr = pop!();
                let value = pop!();
                let at = self.arena.eval(addr).and_then(|v| v.as_u64());
                st.memory.store_word(at, value);
            }
            MStore8 => {
                pop!();
                pop!();
            }
            SLoad => {
                let key = pop!();
                let s = self.sym(SymKey::Slot(key));
                push!(s);
            }
            SStore => {
                pop!();
                pop!();
            }
            Address | Origin | Caller | CallValue | GasPrice | Coinbase | Timestamp | Number
            | Difficulty | GasLimit | ChainId | SelfBalance | BaseFee | ReturnDataSize => {
                let s = self.sym(SymKey::Env(op));
                push!(s);
            }
            MSize | Gas | Pc => {
                let s = self.sym(SymKey::At(pc));
                push!(s);
            }
            Balance | ExtCodeSize | ExtCodeHash | BlockHash => {
                pop!();
                let s = self.sym(SymKey::At(pc));
                push!(s);
            }
            CodeSize => {
                let v = self.arena.zero();
                push!(v);
            }
            CodeCopy | ReturnDataCopy | ExtCodeCopy => {
                for _ in 0..op.stack_in() {
                    pop!();
                }
            }
            Log(n) => {
                for _ in 0..(2 + n as usize) {
                    pop!();
                }
            }
            Create | Create2 | Call | CallCode | DelegateCall | StaticCall => {
                if matches!(op, DelegateCall) {
                    // gas, address, args_off, args_len, ret_off, ret_len —
                    // the second operand names where execution forwards.
                    // The body is a router, not a real function: record
                    // the target so the pipeline can surface
                    // `UnresolvedIndirection` (or resolve it when the
                    // implementation code is supplied).
                    pop!();
                    let addr = pop!();
                    self.facts.add_delegate(delegate_target(&self.arena, addr));
                    for _ in 0..(op.stack_in() - 2) {
                        pop!();
                    }
                } else {
                    for _ in 0..op.stack_in() {
                        pop!();
                    }
                }
                let s = self.sym(SymKey::At(pc));
                push!(s);
            }
            Jump => {
                let target = pop!();
                return self.take_jump(st, target);
            }
            JumpI => {
                let target = pop!();
                let cond = pop!();
                self.record_guard(pc, cond);
                let Some(t) = self.arena.eval(target).and_then(|v| v.as_usize()) else {
                    self.facts.hit_symbolic_jump = true;
                    return Flow::End;
                };
                if !self.disasm.is_jumpdest(t) {
                    // Taking the jump would fault; only fallthrough is viable.
                    return Flow::Continue(next_pc);
                }
                return self.branch(st, pc, t, next_pc, cond, worklist);
            }
        }
        Flow::Continue(next_pc)
    }

    /// Resolves a conditional branch with a valid constant target `t`:
    /// concrete conditions follow one side, symbolic conditions fork
    /// (bounded per block, keyed by the `JUMPI`'s `pc`).
    fn branch(
        &mut self,
        st: &mut PathState,
        pc: usize,
        t: usize,
        next_pc: usize,
        cond: ExprId,
        worklist: &mut Worklist,
    ) -> Flow {
        match self.arena.eval(cond) {
            Some(c) if !c.is_zero() => self.enter_block(st, t),
            Some(_) => Flow::Continue(next_pc),
            None => {
                let forks = st.visits.entry(pc).or_insert(0);
                if *forks < FORK_LIMIT_PER_BLOCK {
                    *forks += 1;
                    if self.config.collect_stats {
                        self.stats.forks += 1;
                        let units = st.stack.len() + st.memory.write_count();
                        self.stats.fork_units_copied += units as u64;
                        self.stats.worklist_peak =
                            self.stats.worklist_peak.max(worklist.len() as u64 + 2);
                    }
                    // Fork: queue the fallthrough, continue with the jump.
                    let mut other = worklist.fork(st);
                    other.pc = next_pc;
                    worklist.push(other);
                    return self.enter_block(st, t);
                }
                // Over budget: take the larger-pc branch (loop exit).
                self.facts.add_budget(BudgetKind::ForkCap);
                let chosen = t.max(next_pc);
                if chosen == next_pc {
                    Flow::Continue(next_pc)
                } else {
                    self.enter_block(st, chosen)
                }
            }
        }
    }

    fn take_jump(&mut self, st: &mut PathState, target: ExprId) -> Flow {
        match self.arena.eval(target).and_then(|v| v.as_usize()) {
            Some(t) if self.disasm.is_jumpdest(t) => self.enter_block(st, t),
            Some(_) => Flow::End,
            None => {
                self.facts.hit_symbolic_jump = true;
                Flow::End
            }
        }
    }

    fn enter_block(&mut self, st: &mut PathState, target: usize) -> Flow {
        let v = st.visits.entry(target).or_insert(0);
        *v += 1;
        if *v > BLOCK_VISIT_LIMIT {
            self.facts.add_budget(BudgetKind::VisitCap);
            return Flow::End;
        }
        Flow::Continue(target)
    }

    /// Records a comparison-shaped guard condition (ISZERO wrappers
    /// stripped), skipping calldatasize well-formedness checks.
    fn record_guard(&mut self, pc: usize, cond: ExprId) {
        let mut base = cond;
        while let ExprKind::Unary(UnOp::IsZero, inner) = *self.arena.kind(base) {
            base = inner;
        }
        if let ExprKind::Binary(op, ..) = *self.arena.kind(base) {
            if matches!(op, BinOp::Lt | BinOp::Gt | BinOp::SLt | BinOp::SGt)
                && !self.arena.depends_on_calldatasize(base)
            {
                self.facts.add_guard(GuardFact {
                    pc,
                    cond: base,
                    loop_exit_pc: self.disasm.loop_exit(pc),
                });
            }
        }
    }

    fn add_use(&mut self, pc: usize, expr: ExprId, usage: Usage) {
        let mut keys = self.spare_keys.pop().unwrap_or_default();
        self.arena.calldata_locs_into(expr, &mut keys);
        if keys.is_empty() || self.facts.has_use(pc, &usage, &keys) {
            keys.clear();
            self.spare_keys.push(keys);
            return;
        }
        self.facts.uses.push(UseFact { pc, keys, usage });
    }

    fn record_signed_use(&mut self, pc: usize, value: ExprId) {
        if self.arena.depends_on_calldata(value) {
            self.add_use(pc, value, Usage::SignedOp);
        }
    }

    fn record_binop_uses(&mut self, pc: usize, op: BinOp, a: ExprId, b: ExprId) {
        let ar = &self.arena;
        match op {
            BinOp::And => {
                if let (Some(m), true) = (ar.as_const(a), ar.depends_on_calldata(b)) {
                    self.add_use(pc, b, Usage::MaskAnd(m));
                }
                if let (Some(m), true) = (self.arena.as_const(b), self.arena.depends_on_calldata(a)) {
                    self.add_use(pc, a, Usage::MaskAnd(m));
                }
            }
            BinOp::SDiv | BinOp::SMod => {
                self.record_signed_use(pc, a);
                self.record_signed_use(pc, b);
            }
            BinOp::SLt | BinOp::SGt
                // Vyper range check shape: value (first operand) compared
                // against a constant bound.
                if ar.depends_on_calldata(a) => {
                    match ar.as_const(b) {
                        Some(c) => self.add_use(pc, a, Usage::RangeSigned(c)),
                        None => self.record_signed_use(pc, a),
                    }
                }
            BinOp::Lt | BinOp::Gt
                // Vyper range checks compare the *value* (first operand)
                // against a constant bound. The bound side of an array
                // bound check (`i < num`) is calldata-derived too but must
                // not be misread as a range check, so only the value side
                // is recorded.
                if ar.depends_on_calldata(a) && !ar.depends_on_calldatasize(a) => {
                    if let Some(c) = ar.as_const(b) {
                        self.add_use(pc, a, Usage::RangeUnsigned(c));
                    }
                }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Exp => {
                // R16's discriminator: arithmetic on a *masked* value. A raw
                // calldata word fed to ADD is usually pointer arithmetic
                // (offset + 4, base + i×32), which carries no type signal.
                let (ma, mb) = (ar.contains_masked_calldata(a), ar.contains_masked_calldata(b));
                if ma {
                    self.add_use(pc, a, Usage::Arithmetic);
                }
                if mb {
                    self.add_use(pc, b, Usage::Arithmetic);
                }
            }
            _ => {}
        }
    }
}

enum Flow {
    Continue(usize),
    End,
}

/// Classifies a `DELEGATECALL` address operand: a concrete value that
/// fits 160 bits is a compile-time-constant target (minimal proxies,
/// hand-rolled forwarders, immediate-address diamond facets); anything
/// else — storage loads, calldata, oversized constants — is only
/// resolvable at run time.
fn delegate_target(arena: &ExprArena, addr: ExprId) -> DelegateTarget {
    match arena.eval(addr) {
        Some(v) if v.bits() <= 160 => {
            let be = v.to_be_bytes();
            let mut out = [0u8; 20];
            out.copy_from_slice(&be[12..]);
            DelegateTarget::Address(out)
        }
        _ => DelegateTarget::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrec_evm::{Assembler, Opcode as Op};

    fn explore(code: &[u8], entry: usize) -> FunctionFacts {
        let d = Disassembly::new(code);
        Tase::new(&d, TaseConfig::default()).explore(entry)
    }

    /// The exploration scratch this thread kept, taken out of its pool.
    fn kept_scratch() -> Scratch {
        SCRATCH
            .with(Cell::take)
            .expect("an exploration kept its scratch")
    }

    #[test]
    fn a_fork_storm_fills_the_spare_states_to_their_cap() {
        // 500 stores, then 200 symbolic forks: every retired state
        // carries the 500-write journal, more than the pool keeps.
        let mut a = Assembler::new();
        for _ in 0..500 {
            a.push_u64(1).push_u64(0x80).op(Op::MStore);
        }
        for _ in 0..200 {
            let next = a.fresh_label();
            a.push_u64(4)
                .op(Op::CallDataLoad)
                .push_label(next)
                .op(Op::JumpI);
            a.jumpdest(next);
        }
        a.op(Op::Stop);
        let d = Disassembly::new(&a.assemble());
        let config = TaseConfig {
            max_paths: 64,
            ..TaseConfig::default()
        };
        let facts = Tase::new(&d, config).explore(0);
        assert_eq!(facts.paths_explored, 64);
        let kept = kept_scratch();
        assert!(kept.worklist.pending.is_empty());
        let held: usize = kept.worklist.spare.iter().map(PathState::units).sum();
        assert_eq!(held, kept.worklist.spare_units);
        assert!(held <= MAX_POOLED_NODES, "{held} units kept");
        assert!(
            held > MAX_POOLED_NODES / 2,
            "the storm fills the pool: {held}"
        );
    }

    #[test]
    fn oversized_scratch_is_not_kept() {
        // One path of MAX_POOLED_NODES + 1 `GAS` reads, each stored: a
        // symbol map and a memory journal past the cap.
        let mut code = [0x5a, 0x60, 0x80, 0x52].repeat(MAX_POOLED_NODES + 1);
        code.push(0x00);
        let facts = explore(&code, 0);
        assert!(facts.budgets.is_empty(), "{:?}", facts.budgets);
        let kept = kept_scratch();
        assert!(kept.syms.is_empty());
        assert!(kept.syms.capacity() <= MAX_POOLED_NODES);
        assert!(kept
            .worklist
            .spare
            .iter()
            .all(|s| s.units() <= MAX_POOLED_NODES));
        assert!(kept.worklist.spare_units <= MAX_POOLED_NODES);
    }

    #[test]
    fn a_recycled_exploration_equals_a_fresh_one() {
        // A forking body that masks unwritten memory, explored right
        // after one that stored a calldata word there, gathers the same
        // facts as on a new thread: no path starts from a stale journal.
        let mut a = Assembler::new();
        let skip = a.fresh_label();
        a.push_u64(0x40)
            .op(Op::MLoad)
            .push_u64(0xff)
            .op(Op::And)
            .op(Op::Pop);
        a.push_u64(4)
            .op(Op::CallDataLoad)
            .push_u64(0xff)
            .op(Op::And);
        a.push_label(skip).op(Op::JumpI);
        a.push_u64(36)
            .op(Op::CallDataLoad)
            .op(Op::SignExtend)
            .op(Op::Pop);
        a.jumpdest(skip).op(Op::Stop);
        let code = a.assemble();
        let shown = |f: &FunctionFacts| {
            let loads: Vec<_> = f
                .loads
                .iter()
                .map(|l| (l.pc, f.arena.eval(l.loc)))
                .collect();
            let uses: Vec<_> = f
                .uses
                .iter()
                .map(|u| (u.pc, u.keys.len(), u.usage.clone()))
                .collect();
            format!("{loads:?} {uses:?} {} {:?}", f.paths_explored, f.budgets)
        };
        let fresh = {
            let code = code.clone();
            std::thread::spawn(move || shown(&explore(&code, 0)))
                .join()
                .expect("fresh exploration")
        };
        // `(PUSH1 k; POP) × 8; PUSH1 4; CALLDATALOAD; PUSH1 0x40;
        // MSTORE; STOP`: the stored word's id is past any node the body
        // above builds.
        let mut store: Vec<u8> = (1..=8).flat_map(|k| [0x60, 0x10 + k, 0x50]).collect();
        store.extend([0x60, 0x04, 0x35, 0x60, 0x40, 0x52, 0x00]);
        explore(&store, 0).recycle();
        assert_eq!(shown(&explore(&code, 0)), fresh);
    }

    #[test]
    fn records_basic_load_and_mask() {
        // CALLDATALOAD(4); AND 0xff; POP; STOP
        let mut a = Assembler::new();
        a.push_u64(4).op(Op::CallDataLoad);
        a.push_u64(0xff).op(Op::And).op(Op::Pop).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        assert_eq!(f.loads.len(), 1);
        assert_eq!(f.arena.eval(f.loads[0].loc), Some(U256::from(4u64)));
        assert!(f
            .uses
            .iter()
            .any(|u| u.usage == Usage::MaskAnd(U256::from(0xffu64))));
    }

    #[test]
    fn forks_on_symbolic_condition() {
        // cond = CALLDATALOAD(4); JUMPI over a second load.
        let mut a = Assembler::new();
        let skip = a.fresh_label();
        a.push_u64(4).op(Op::CallDataLoad);
        a.push_label(skip).op(Op::JumpI);
        a.push_u64(36).op(Op::CallDataLoad).op(Op::Pop);
        a.jumpdest(skip).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        // Both paths explored: the load at 36 is seen on the fallthrough.
        assert_eq!(f.loads.len(), 2);
        assert!(f.paths_explored >= 2);
    }

    #[test]
    fn stops_at_symbolic_jump_target() {
        // JUMP to a calldata-derived target.
        let mut a = Assembler::new();
        a.push_u64(0).op(Op::CallDataLoad).op(Op::Jump);
        let f = explore(&a.assemble(), 0);
        assert!(f.hit_symbolic_jump);
    }

    #[test]
    fn concrete_loop_unrolls_without_fork() {
        // for (i = 0; i < 3; i++) CALLDATALOAD(4 + i*32);
        let mut a = Assembler::new();
        let head = a.fresh_label();
        let exit = a.fresh_label();
        a.push_u64(0);
        a.jumpdest(head);
        a.op(Op::Dup(1)).push_u64(3).op(Op::Swap(1)).op(Op::Lt);
        a.op(Op::IsZero).push_label(exit).op(Op::JumpI);
        a.op(Op::Dup(1))
            .push_u64(32)
            .op(Op::Mul)
            .push_u64(4)
            .op(Op::Add);
        a.op(Op::CallDataLoad).op(Op::Pop);
        a.push_u64(1).op(Op::Add);
        a.push_label(head).op(Op::Jump);
        a.jumpdest(exit).op(Op::Pop).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        // One load pc (deduplicated), structure retains the ×32.
        assert_eq!(f.loads.len(), 1);
        assert!(f.arena.contains_mul_by(f.loads[0].loc, 32));
        assert_eq!(f.paths_explored, 1);
        // The loop guard is recorded and detected as a loop head.
        assert_eq!(f.guards.len(), 1);
        assert!(f.guards[0].loop_exit_pc.is_some());
    }

    #[test]
    fn symbolic_loop_forks_bounded() {
        // while (i < CALLDATALOAD(4)) { CALLDATALOAD(36 + i*32); i++ }
        let mut a = Assembler::new();
        let head = a.fresh_label();
        let exit = a.fresh_label();
        a.push_u64(0);
        a.jumpdest(head);
        a.push_u64(4).op(Op::CallDataLoad); // bound
        a.op(Op::Dup(2)).op(Op::Lt); // i < bound
        a.op(Op::IsZero).push_label(exit).op(Op::JumpI);
        a.op(Op::Dup(1))
            .push_u64(32)
            .op(Op::Mul)
            .push_u64(36)
            .op(Op::Add);
        a.op(Op::CallDataLoad).op(Op::Pop);
        a.push_u64(1).op(Op::Add);
        a.push_label(head).op(Op::Jump);
        a.jumpdest(exit).op(Op::Pop).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        // Terminates despite the symbolic bound, records the guard with a
        // loop exit and the item load with the offsetful location.
        assert!(f.guards.iter().any(|g| g.loop_exit_pc.is_some()));
        assert!(f.loads.iter().any(|l| f.arena.contains_mul_by(l.loc, 32)));
        assert!(f.paths_explored <= TaseConfig::default().max_paths);
    }

    #[test]
    fn mload_from_copied_region_synthesises_calldata() {
        // CALLDATACOPY(0x80, 36, 64); MLOAD(0xa0); AND 0xff.
        let mut a = Assembler::new();
        a.push_u64(64)
            .push_u64(36)
            .push_u64(0x80)
            .op(Op::CallDataCopy);
        a.push_u64(0xa0).op(Op::MLoad);
        a.push_u64(0xff).op(Op::And).op(Op::Pop).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        assert_eq!(f.copies.len(), 1);
        let mask = f
            .uses
            .iter()
            .find(|u| u.usage == Usage::MaskAnd(U256::from(0xffu64)))
            .expect("mask use on copied element");
        // The use keys point at calldata position 36+32 = 68 = 0x44.
        let keys: Vec<_> = mask.keys.iter().map(|&k| f.arena.as_const(k)).collect();
        assert_eq!(keys, vec![Some(U256::from(0x44u64))]);
    }

    #[test]
    fn double_iszero_detected() {
        let mut a = Assembler::new();
        a.push_u64(4).op(Op::CallDataLoad);
        a.op(Op::IsZero).op(Op::IsZero).op(Op::Pop).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        assert!(f.uses.iter().any(|u| u.usage == Usage::DoubleIsZero));
    }

    #[test]
    fn sload_interned_per_slot() {
        // Two SLOAD(0) must be the same symbol; SLOAD(1) a different one.
        // Each pair meets in an `LT` guard, whose operands the facts keep.
        let mut a = Assembler::new();
        let (first, second) = (a.fresh_label(), a.fresh_label());
        a.push_u64(0).op(Op::SLoad);
        a.push_u64(0).op(Op::SLoad);
        a.op(Op::Lt).push_label(first).op(Op::JumpI);
        a.jumpdest(first);
        a.push_u64(1).op(Op::SLoad);
        a.push_u64(0).op(Op::SLoad);
        a.op(Op::Lt).push_label(second).op(Op::JumpI);
        a.jumpdest(second).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        assert_eq!(f.guards.len(), 2);
        let operands = |g: &GuardFact| match *f.arena.kind(g.cond) {
            ExprKind::Binary(BinOp::Lt, x, y) => (x, y),
            other => panic!("expected an LT guard, got {other:?}"),
        };
        let (zero_a, zero_b) = operands(&f.guards[0]);
        let (zero_c, one) = operands(&f.guards[1]);
        assert_eq!(zero_a, zero_b, "two SLOAD(0) are one symbol");
        assert_eq!(zero_c, zero_a, "SLOAD(0) keeps its symbol across reads");
        assert_ne!(one, zero_a, "SLOAD(1) is another symbol");
        assert!(matches!(f.arena.kind(one), ExprKind::FreeSym(_)));
    }

    #[test]
    fn calldatasize_guard_not_recorded() {
        let mut a = Assembler::new();
        let ok = a.fresh_label();
        a.push_u64(3).op(Op::CallDataSize).op(Op::Gt);
        a.push_label(ok).op(Op::JumpI);
        a.push_u64(0).push_u64(0).op(Op::Revert);
        a.jumpdest(ok).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        assert!(f.guards.is_empty());
    }

    #[test]
    fn bound_check_guard_recorded() {
        // LT(SLOAD(0), 5) guard before a load.
        let mut a = Assembler::new();
        let ok = a.fresh_label();
        a.push_u64(5);
        a.push_u64(0).op(Op::SLoad);
        a.op(Op::Lt);
        a.push_label(ok).op(Op::JumpI);
        a.push_u64(0).push_u64(0).op(Op::Revert);
        a.jumpdest(ok);
        a.push_u64(4).op(Op::CallDataLoad).op(Op::Pop).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        assert_eq!(f.guards.len(), 1);
        assert!(
            f.guards[0].loop_exit_pc.is_none(),
            "revert guard is not a loop"
        );
        assert!(matches!(
            f.arena.kind(f.guards[0].cond),
            ExprKind::Binary(BinOp::Lt, ..)
        ));
    }
}
