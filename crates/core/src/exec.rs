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

use crate::cow::CowStack;
use crate::expr::{bin, un, BinOp, Expr, ExprKind, UnOp};
use crate::facts::{CopyFact, FunctionFacts, GuardFact, LoadFact, Usage, UseFact};
use crate::infer::InferEngine;
use crate::memory::SymMemory;
use crate::outcome::{BudgetKind, DelegateTarget};
use sigrec_evm::{Disassembly, Instruction, Opcode, Program, U256};
use std::collections::HashMap;
use std::rc::Rc;
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

/// How a symbolic branch duplicates the path state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ForkMode {
    /// Freeze the mutable tails and share the frozen prefix: O(tail)
    /// per fork, independent of total stack depth / journal length.
    #[default]
    CopyOnWrite,
    /// Flat deep copy of stack and journal (the pre-CoW behaviour),
    /// O(stack + writes) per fork. Kept as the reference implementation
    /// the equivalence tests compare against.
    EagerClone,
}

/// Exploration budgets.
#[derive(Clone, Copy, Debug)]
pub struct TaseConfig {
    /// Maximum paths explored per function.
    pub max_paths: usize,
    /// Maximum instructions per path.
    pub max_steps_per_path: usize,
    /// Maximum instructions across all paths of one function.
    pub max_total_steps: usize,
    /// How many times one block may fork on a symbolic condition per path.
    pub fork_limit_per_block: u32,
    /// How many times one block may be entered per path (concrete loops).
    pub block_visit_limit: u32,
    /// How forks duplicate path state.
    pub fork_mode: ForkMode,
    /// Which matcher runs the R1–R31 rules over the gathered facts.
    pub infer_engine: InferEngine,
    /// Collect per-fork [`ExecStats`] counters (off by default: the
    /// fork-cost probes are skipped entirely when disabled).
    pub collect_stats: bool,
    /// Per-contract wall-clock budget. The pipeline stamps a deadline
    /// when it plans a contract and every function exploration checks it
    /// cooperatively (every [`DEADLINE_CHECK_MASK`]+1 steps), recording
    /// [`BudgetKind::Deadline`] and stopping. `None` (the default) never
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
    /// parameter to the function whose selector matches, but only under
    /// [`ForkMode::EagerClone`] — a deliberate engine disagreement for
    /// proving the differential oracle actually catches one. `None` (the
    /// default) injects nothing.
    #[doc(hidden)]
    pub disagree_on_selector: Option<u32>,
}

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
            fork_limit_per_block: 3,
            block_visit_limit: 600,
            fork_mode: ForkMode::CopyOnWrite,
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
    /// Units (stack elements, journal entries, segment handles) actually
    /// copied by forks — under CoW this stays near `forks × tail`, under
    /// eager cloning it grows with total path-state size.
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

struct PathState {
    pc: usize,
    stack: CowStack<Rc<Expr>>,
    memory: SymMemory,
    visits: PcMap<u32>,
    steps: usize,
}

impl PathState {
    /// Duplicates the state for the not-taken branch. CoW shares the
    /// frozen prefix with `self`; eager cloning flattens both structures.
    fn fork(&mut self, mode: ForkMode) -> PathState {
        let (stack, memory) = match mode {
            ForkMode::CopyOnWrite => (self.stack.fork(), self.memory.fork()),
            ForkMode::EagerClone => (self.stack.deep_clone(), self.memory.deep_clone()),
        };
        PathState {
            pc: self.pc,
            stack,
            memory,
            visits: self.visits.clone(),
            steps: self.steps,
        }
    }
}

/// The executor for one contract.
pub struct Tase<'a> {
    disasm: &'a Disassembly,
    config: TaseConfig,
    syms: HashMap<String, u32>,
    next_sym: u32,
    facts: FunctionFacts,
    total_steps: usize,
    min_pc: usize,
    max_pc_end: usize,
    stats: ExecStats,
    deadline: Option<Instant>,
    /// The contract's loop-head guards, shared across its entries; built
    /// at explore time when none was supplied.
    program: Option<Arc<Program>>,
}

impl<'a> Tase<'a> {
    /// Creates an executor over a disassembly.
    pub fn new(disasm: &'a Disassembly, config: TaseConfig) -> Self {
        let deadline = config.max_wall_time.map(|d| Instant::now() + d);
        Tase {
            disasm,
            config,
            syms: HashMap::new(),
            next_sym: 0,
            facts: FunctionFacts::default(),
            total_steps: 0,
            min_pc: usize::MAX,
            max_pc_end: 0,
            stats: ExecStats::default(),
            deadline,
            program: None,
        }
    }

    /// Overrides the deadline (builder style). The pipeline uses this to
    /// share one *per-contract* deadline across every function of a plan,
    /// instead of restarting the clock per function.
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Supplies the contract's [`Program`] (builder style). The pipeline
    /// builds one per contract and shares the `Arc` across all of its
    /// dispatch entries, and `perfbench/src/trace.rs` mirrors that call;
    /// without this, each explore builds its own. The program must be
    /// built from the same bytes as the disassembly.
    pub fn with_program(mut self, program: Arc<Program>) -> Self {
        self.program = Some(program);
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
    pub fn explore_stats(mut self, entry: usize) -> (FunctionFacts, ExecStats) {
        if self.program.is_none() {
            self.program = Some(Arc::new(Program::new(self.disasm)));
        }
        let residue = self.intern("dispatch-residue");
        let init = PathState {
            pc: entry,
            stack: CowStack::from_vec(vec![residue]),
            memory: SymMemory::new(),
            visits: PcMap::default(),
            steps: 0,
        };
        let mut worklist = vec![init];
        let mut paths = 0usize;
        while let Some(state) = worklist.pop() {
            // A state was pending, so stopping here genuinely drops work —
            // record which budget cut it.
            if paths >= self.config.max_paths {
                self.facts.add_budget(BudgetKind::Paths);
                break;
            }
            if self.total_steps >= self.config.max_total_steps {
                self.facts.add_budget(BudgetKind::TotalSteps);
                break;
            }
            if self.past_deadline() {
                self.facts.add_budget(BudgetKind::Deadline);
                break;
            }
            paths += 1;
            self.run_path(state, &mut worklist);
            if self.config.collect_stats {
                self.stats.worklist_peak = self.stats.worklist_peak.max(worklist.len() as u64);
            }
        }
        self.facts.paths_explored = paths;
        self.facts.visited_below_entry = self.min_pc < entry;
        self.facts.max_pc_end = self.max_pc_end;
        self.stats.steps = self.total_steps as u64;
        self.stats.paths = paths as u64;
        (self.facts, self.stats)
    }

    fn intern(&mut self, key: &str) -> Rc<Expr> {
        let id = match self.syms.get(key) {
            Some(&id) => id,
            None => {
                let id = self.next_sym;
                self.next_sym += 1;
                self.syms.insert(key.to_string(), id);
                id
            }
        };
        Expr::free_sym(id)
    }

    fn fresh(&mut self, tag: &str, pc: usize) -> Rc<Expr> {
        self.intern(&format!("{tag}:{pc}"))
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

    fn run_path(&mut self, mut st: PathState, worklist: &mut Vec<PathState>) {
        let disasm = self.disasm;
        loop {
            if !self.budget_ok(&st) {
                return;
            }
            let Some(ins) = disasm.at(st.pc) else {
                return; // ran off the end: implicit STOP
            };
            // Function-extent tracking plus the step counters.
            self.min_pc = self.min_pc.min(st.pc);
            self.max_pc_end = self.max_pc_end.max(ins.next_pc());
            st.steps += 1;
            self.total_steps += 1;
            match self.step(&mut st, ins, worklist) {
                Flow::Continue(pc) => st.pc = pc,
                Flow::End => return,
            }
        }
    }

    fn step(
        &mut self,
        st: &mut PathState,
        ins: &Instruction,
        worklist: &mut Vec<PathState>,
    ) -> Flow {
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
        match op {
            Stop | Return | Revert | SelfDestruct | Invalid(_) => return Flow::End,
            Push(_) => st
                .stack
                .push(Expr::constant(ins.push_value().unwrap_or(U256::ZERO))),
            Pop => {
                pop!();
            }
            Dup(n) => {
                let Some(v) = st.stack.peek(n as usize).cloned() else {
                    return Flow::End;
                };
                st.stack.push(v);
            }
            Swap(n) => {
                if !st.stack.swap_top(n as usize) {
                    return Flow::End;
                }
            }
            JumpDest => {}
            Add | Sub | Mul | Div | SDiv | Mod | SMod | Exp | And | Or | Xor | Lt | Gt | SLt
            | SGt | Eq => {
                let a = pop!();
                let b = pop!();
                let bop = binop_of(op);
                self.record_binop_uses(pc, bop, &a, &b);
                st.stack.push(bin(bop, a, b));
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
                    (amount.as_const(), value.kind())
                {
                    if k2.as_const() == Some(k) && x.depends_on_calldata() {
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
                if op == Sar && !matches!(value.kind(), ExprKind::Binary(BinOp::Shl, ..)) {
                    self.record_signed_use(pc, &value);
                }
                st.stack.push(bin(bop, value, amount));
            }
            Byte => {
                let idx = pop!();
                let value = pop!();
                if value.depends_on_calldata() {
                    self.add_use(pc, &value, Usage::ByteExtract);
                }
                st.stack.push(bin(BinOp::Byte, value, idx));
            }
            SignExtend => {
                let idx = pop!();
                let value = pop!();
                if let (Some(b), true) = (
                    idx.eval().and_then(|v| v.as_u64()),
                    value.depends_on_calldata(),
                ) {
                    self.add_use(pc, &value, Usage::SignExtendFrom(b));
                }
                st.stack.push(bin(BinOp::SignExtend, value, idx));
            }
            IsZero => {
                let a = pop!();
                // EQ(x, 0) is ISZERO in disguise — the generalised form of
                // the double-negation bool hint (R14).
                let negated_calldata = match a.kind() {
                    ExprKind::Unary(UnOp::IsZero, inner) => Some(inner),
                    ExprKind::Binary(BinOp::Eq, x, z)
                        if z.as_const() == Some(U256::ZERO) && x.depends_on_calldata() =>
                    {
                        Some(x)
                    }
                    ExprKind::Binary(BinOp::Eq, z, x)
                        if z.as_const() == Some(U256::ZERO) && x.depends_on_calldata() =>
                    {
                        Some(x)
                    }
                    _ => None,
                };
                if let Some(inner) = negated_calldata {
                    if inner.depends_on_calldata() {
                        self.add_use(pc, inner, Usage::DoubleIsZero);
                    }
                }
                st.stack.push(un(UnOp::IsZero, a));
            }
            Not => {
                let a = pop!();
                st.stack.push(un(UnOp::Not, a));
            }
            AddMod | MulMod => {
                pop!();
                pop!();
                pop!();
                let s = self.fresh("modmath", pc);
                st.stack.push(s);
            }
            Keccak256 => {
                pop!();
                pop!();
                let s = self.fresh("keccak", pc);
                st.stack.push(s);
            }
            CallDataLoad => {
                let loc = pop!();
                let value = Expr::calldata_word(Rc::clone(&loc));
                self.facts.add_load(LoadFact {
                    pc,
                    loc,
                    value: Rc::clone(&value),
                });
                st.stack.push(value);
            }
            CallDataSize => st.stack.push(Expr::calldata_size()),
            CallDataCopy => {
                let dst = pop!();
                let src = pop!();
                let len = pop!();
                st.memory.record_copy(
                    dst.eval().and_then(|v| v.as_u64()),
                    Rc::clone(&src),
                    len.eval(),
                );
                self.facts.add_copy(CopyFact { pc, dst, src, len });
            }
            MLoad => {
                let addr = pop!();
                let value = match addr.eval().and_then(|v| v.as_u64()) {
                    Some(a) => st
                        .memory
                        .load_word(a)
                        .unwrap_or_else(|| self.intern(&format!("mem:{a}"))),
                    None => self.intern(&format!("mem?:{}", addr.key())),
                };
                st.stack.push(value);
            }
            MStore => {
                let addr = pop!();
                let value = pop!();
                st.memory
                    .store_word(addr.eval().and_then(|v| v.as_u64()), value);
            }
            MStore8 => {
                pop!();
                pop!();
            }
            SLoad => {
                let key = pop!();
                let s = self.intern(&format!("sload:{}", key.key()));
                st.stack.push(s);
            }
            SStore => {
                pop!();
                pop!();
            }
            Address | Origin | Caller | CallValue | GasPrice | Coinbase | Timestamp | Number
            | Difficulty | GasLimit | ChainId | SelfBalance | BaseFee | ReturnDataSize => {
                let s = self.intern(&op.mnemonic());
                st.stack.push(s);
            }
            MSize | Gas | Pc => {
                let s = self.fresh(&op.mnemonic(), pc);
                st.stack.push(s);
            }
            Balance | ExtCodeSize | ExtCodeHash | BlockHash => {
                pop!();
                let s = self.fresh(&op.mnemonic(), pc);
                st.stack.push(s);
            }
            CodeSize => st.stack.push(Expr::c64(0)),
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
                    self.facts.add_delegate(delegate_target(&addr));
                    for _ in 0..(op.stack_in() - 2) {
                        pop!();
                    }
                } else {
                    for _ in 0..op.stack_in() {
                        pop!();
                    }
                }
                let s = self.fresh("call", pc);
                st.stack.push(s);
            }
            Jump => {
                let target = pop!();
                return self.take_jump(st, &target);
            }
            JumpI => {
                let target = pop!();
                let cond = pop!();
                self.record_guard(pc, &cond);
                let Some(t) = target.eval().and_then(|v| v.as_usize()) else {
                    self.facts.hit_symbolic_jump = true;
                    return Flow::End;
                };
                if !self.disasm.is_jumpdest(t) {
                    // Taking the jump would fault; only fallthrough is viable.
                    return Flow::Continue(next_pc);
                }
                return self.branch(st, pc, t, next_pc, &cond, worklist);
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
        cond: &Rc<Expr>,
        worklist: &mut Vec<PathState>,
    ) -> Flow {
        match cond.eval() {
            Some(c) if !c.is_zero() => self.enter_block(st, t),
            Some(_) => Flow::Continue(next_pc),
            None => {
                let forks = st.visits.entry(pc).or_insert(0);
                if *forks < self.config.fork_limit_per_block {
                    *forks += 1;
                    if self.config.collect_stats {
                        self.stats.forks += 1;
                        let units = match self.config.fork_mode {
                            ForkMode::CopyOnWrite => st.stack.fork_cost() + st.memory.fork_cost(),
                            ForkMode::EagerClone => st.stack.len() + st.memory.write_count(),
                        };
                        self.stats.fork_units_copied += units as u64;
                        self.stats.worklist_peak =
                            self.stats.worklist_peak.max(worklist.len() as u64 + 2);
                    }
                    // Fork: queue the fallthrough, continue with the jump.
                    let mut other = st.fork(self.config.fork_mode);
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

    fn take_jump(&mut self, st: &mut PathState, target: &Rc<Expr>) -> Flow {
        match target.eval().and_then(|v| v.as_usize()) {
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
        if *v > self.config.block_visit_limit {
            self.facts.add_budget(BudgetKind::VisitCap);
            return Flow::End;
        }
        Flow::Continue(target)
    }

    /// Records a comparison-shaped guard condition (ISZERO wrappers
    /// stripped), skipping calldatasize well-formedness checks.
    fn record_guard(&mut self, pc: usize, cond: &Rc<Expr>) {
        let mut base = cond;
        while let ExprKind::Unary(UnOp::IsZero, inner) = base.kind() {
            base = inner;
        }
        if let ExprKind::Binary(op, ..) = base.kind() {
            if matches!(op, BinOp::Lt | BinOp::Gt | BinOp::SLt | BinOp::SGt)
                && !base.depends_on_calldatasize()
            {
                self.facts.add_guard(GuardFact {
                    pc,
                    cond: Rc::clone(base),
                    loop_exit_pc: self.program.as_ref().and_then(|p| p.loop_exit(pc)),
                });
            }
        }
    }

    fn add_use(&mut self, pc: usize, expr: &Rc<Expr>, usage: Usage) {
        let keys: Vec<String> = expr.calldata_locs().iter().map(|l| l.key()).collect();
        if keys.is_empty() {
            return;
        }
        self.facts.add_use(UseFact { pc, keys, usage });
    }

    fn record_signed_use(&mut self, pc: usize, value: &Rc<Expr>) {
        if value.depends_on_calldata() {
            self.add_use(pc, value, Usage::SignedOp);
        }
    }

    fn record_binop_uses(&mut self, pc: usize, op: BinOp, a: &Rc<Expr>, b: &Rc<Expr>) {
        match op {
            BinOp::And => {
                if let (Some(m), true) = (a.as_const(), b.depends_on_calldata()) {
                    self.add_use(pc, b, Usage::MaskAnd(m));
                }
                if let (Some(m), true) = (b.as_const(), a.depends_on_calldata()) {
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
                if a.depends_on_calldata() => {
                    match b.as_const() {
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
                if a.depends_on_calldata() && !a.depends_on_calldatasize() => {
                    if let Some(c) = b.as_const() {
                        self.add_use(pc, a, Usage::RangeUnsigned(c));
                    }
                }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod | BinOp::Exp => {
                // R16's discriminator: arithmetic on a *masked* value. A raw
                // calldata word fed to ADD is usually pointer arithmetic
                // (offset + 4, base + i×32), which carries no type signal.
                if contains_masked_calldata(a) {
                    self.add_use(pc, a, Usage::Arithmetic);
                }
                if contains_masked_calldata(b) {
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
fn delegate_target(addr: &Rc<Expr>) -> DelegateTarget {
    match addr.eval() {
        Some(v) if v.bits() <= 160 => {
            let be = v.to_be_bytes();
            let mut out = [0u8; 20];
            out.copy_from_slice(&be[12..]);
            DelegateTarget::Address(out)
        }
        _ => DelegateTarget::Unknown,
    }
}

/// True if the expression contains a calldata-derived value that has been
/// masked (`AND` with a constant) — the shape of a typed basic value, as
/// opposed to pointer arithmetic on raw offset words.
fn contains_masked_calldata(e: &Rc<Expr>) -> bool {
    // The mask shapes (constant `AND`, equal-amount shift pairs) are
    // detected bottom-up at node construction; the walk this used to do
    // is now a cached-flags read.
    e.contains_masked_calldata()
}

fn binop_of(op: Opcode) -> BinOp {
    match op {
        Opcode::Add => BinOp::Add,
        Opcode::Sub => BinOp::Sub,
        Opcode::Mul => BinOp::Mul,
        Opcode::Div => BinOp::Div,
        Opcode::SDiv => BinOp::SDiv,
        Opcode::Mod => BinOp::Mod,
        Opcode::SMod => BinOp::SMod,
        Opcode::Exp => BinOp::Exp,
        Opcode::And => BinOp::And,
        Opcode::Or => BinOp::Or,
        Opcode::Xor => BinOp::Xor,
        Opcode::Lt => BinOp::Lt,
        Opcode::Gt => BinOp::Gt,
        Opcode::SLt => BinOp::SLt,
        Opcode::SGt => BinOp::SGt,
        Opcode::Eq => BinOp::Eq,
        Opcode::Shl => BinOp::Shl,
        Opcode::Shr => BinOp::Shr,
        Opcode::Sar => BinOp::Sar,
        other => unreachable!("binop_of({other})"),
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

    #[test]
    fn records_basic_load_and_mask() {
        // CALLDATALOAD(4); AND 0xff; POP; STOP
        let mut a = Assembler::new();
        a.push_u64(4).op(Op::CallDataLoad);
        a.push_u64(0xff).op(Op::And).op(Op::Pop).op(Op::Stop);
        let f = explore(&a.assemble(), 0);
        assert_eq!(f.loads.len(), 1);
        assert_eq!(f.loads[0].loc.eval(), Some(U256::from(4u64)));
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
        assert!(f.loads[0].loc.contains_mul_by(32));
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
        assert!(f.loads.iter().any(|l| l.loc.contains_mul_by(32)));
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
        assert!(
            mask.keys.iter().any(|k| k.contains("0x44")),
            "{:?}",
            mask.keys
        );
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
        let mut a = Assembler::new();
        a.push_u64(0).op(Op::SLoad);
        a.push_u64(0).op(Op::SLoad);
        a.op(Op::Eq).op(Op::Pop);
        a.push_u64(1).op(Op::SLoad).op(Op::Pop).op(Op::Stop);
        let d = Disassembly::new(&a.assemble());
        let t = Tase::new(&d, TaseConfig::default());
        let f = t.explore(0);
        let _ = f; // interning is observable via guard/use expressions; this
                   // test mainly asserts clean termination.
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
            f.guards[0].cond.kind(),
            ExprKind::Binary(BinOp::Lt, ..)
        ));
    }
}
