//! Facts gathered by type-aware symbolic execution.
//!
//! The executor reduces each explored function to a small set of *facts*:
//! which calldata locations were loaded (`CALLDATALOAD`), which regions were
//! copied (`CALLDATACOPY`), which comparisons guarded execution, and which
//! type-revealing operations touched calldata-derived values. The inference
//! engine (rules R1–R31) consumes only these facts.
//!
//! Every expression in the facts is an [`ExprId`] into
//! [`FunctionFacts::arena`], the exploration's own [`ExprArena`].
//!
//! The facts' vectors, and each use's key list, are recycled per thread:
//! the pipeline's `FunctionFacts::recycle` clears them and keeps them for
//! the thread's next exploration. It is an explicit call, not a `Drop`,
//! so callers may still move fields out of the facts they keep.

use crate::expr::{recycle, ExprArena, ExprId, MAX_POOLED_NODES};
use crate::outcome::{BudgetKind, DelegateTarget};
use sigrec_evm::U256;
use std::cell::Cell;

/// One `CALLDATALOAD` observed during execution.
#[derive(Clone, Debug)]
pub struct LoadFact {
    /// pc of the instruction.
    pub pc: usize,
    /// Symbolic location read.
    pub loc: ExprId,
    /// The resulting value node (`CalldataWord(loc)`).
    pub value: ExprId,
}

/// One `CALLDATACOPY` observed during execution.
#[derive(Clone, Debug)]
pub struct CopyFact {
    /// pc of the instruction.
    pub pc: usize,
    /// Memory destination.
    pub dst: ExprId,
    /// Calldata source.
    pub src: ExprId,
    /// Byte length.
    pub len: ExprId,
}

/// A comparison-shaped `JUMPI` guard executed on some path.
///
/// Captures both explicit bound checks (`i < N` before an array access) and
/// loop guards (`i < num` at a loop head). `exit_pc` is the forward jump
/// target when the guard is a detected loop head, enabling pc-range
/// governance for facts inside the loop body.
#[derive(Clone, Debug)]
pub struct GuardFact {
    /// pc of the `JUMPI`.
    pub pc: usize,
    /// The comparison condition (with any `ISZERO` wrappers stripped).
    pub cond: ExprId,
    /// Forward target of the loop-exit branch when this guard heads a
    /// detected natural loop.
    pub loop_exit_pc: Option<usize>,
}

/// A type-revealing operation applied to a calldata-derived value.
#[derive(Clone, Debug)]
pub struct UseFact {
    /// pc of the instruction.
    pub pc: usize,
    /// The `CALLDATALOAD` locations appearing in the used value, outermost
    /// first — links the usage back to the loads of those locations.
    pub keys: Vec<ExprId>,
    /// What was done to the value.
    pub usage: Usage,
}

/// Classification of a type-revealing usage (the fine-grained hints behind
/// rules R11–R18 and R26–R31).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Usage {
    /// `AND` with a constant mask (R11 low masks, R12 high masks, R16
    /// address mask).
    MaskAnd(U256),
    /// `SIGNEXTEND` from byte index `b` (R13).
    SignExtendFrom(u64),
    /// Two consecutive `ISZERO`s (R14).
    DoubleIsZero,
    /// `BYTE` extraction (R18 / R26 / R31).
    ByteExtract,
    /// A signed operation with no recognisable range constant (R15).
    SignedOp,
    /// Unsigned comparison against a constant (Vyper range checks: R27
    /// address, R30 bool).
    RangeUnsigned(U256),
    /// Signed comparison against a constant (Vyper range checks: R28
    /// int128, R29 decimal).
    RangeSigned(U256),
    /// Plain arithmetic involvement (`ADD`/`SUB`/`MUL`/`DIV`/…) — the R16
    /// uint160-vs-address discriminator.
    Arithmetic,
}

/// Everything TASE learned about one function.
#[derive(Clone, Debug, Default)]
pub struct FunctionFacts {
    /// The expressions every id below names.
    pub arena: ExprArena,
    /// Calldata loads, deduplicated by pc (first occurrence kept).
    pub loads: Vec<LoadFact>,
    /// Calldata copies, deduplicated by pc.
    pub copies: Vec<CopyFact>,
    /// Comparison guards, deduplicated by pc.
    pub guards: Vec<GuardFact>,
    /// Type-revealing usages (not deduplicated; the same pc may touch
    /// different keys across paths).
    pub uses: Vec<UseFact>,
    /// True if some path was cut short at an input-dependent jump target
    /// (the paper notes only 5 deployed contracts do this).
    pub hit_symbolic_jump: bool,
    /// Always `false`. Kept only for `perfbench/src/trace.rs`, whose
    /// traced driver still reads it.
    pub visited_below_entry: bool,
    /// Always 0. Kept only for `perfbench/src/trace.rs`, whose traced
    /// driver still reads it.
    pub max_pc_end: usize,
    /// Paths fully explored.
    pub paths_explored: usize,
    /// Budgets the exploration ran into, deduplicated, in first-hit
    /// order. Lossy kinds mean the facts (and thus the inference) may be
    /// partial; see [`BudgetKind::is_lossy`].
    pub budgets: Vec<BudgetKind>,
    /// Set when some explored path executed a `DELEGATECALL`: the body
    /// forwards execution, so the calldata facts above describe the
    /// *forwarder*, not the real function. First hit wins — a body that
    /// delegates on one path is a router regardless of what its other
    /// paths do.
    pub delegate: Option<DelegateTarget>,
}

impl FunctionFacts {
    /// Records a load unless one at the same pc exists.
    pub fn add_load(&mut self, fact: LoadFact) {
        if !self.loads.iter().any(|f| f.pc == fact.pc) {
            self.loads.push(fact);
        }
    }

    /// Records a copy unless one at the same pc exists.
    pub fn add_copy(&mut self, fact: CopyFact) {
        if !self.copies.iter().any(|f| f.pc == fact.pc) {
            self.copies.push(fact);
        }
    }

    /// Records a guard unless one at the same pc exists.
    pub fn add_guard(&mut self, fact: GuardFact) {
        if !self.guards.iter().any(|f| f.pc == fact.pc) {
            self.guards.push(fact);
        }
    }

    /// Records a usage unless an identical (pc, usage, keys) entry exists.
    pub fn add_use(&mut self, fact: UseFact) {
        if !self.has_use(fact.pc, &fact.usage, &fact.keys) {
            self.uses.push(fact);
        }
    }

    /// True if a (pc, usage, keys) entry is already recorded.
    pub(crate) fn has_use(&self, pc: usize, usage: &Usage, keys: &[ExprId]) -> bool {
        self.uses
            .iter()
            .any(|f| f.pc == pc && f.usage == *usage && f.keys == keys)
    }

    /// Records a delegatecall target; the first hit wins so the fact is
    /// deterministic under the worklist's exploration order.
    pub fn add_delegate(&mut self, target: DelegateTarget) {
        if self.delegate.is_none() {
            self.delegate = Some(target);
        }
    }

    /// Records a budget hit unless the same kind was already recorded.
    pub fn add_budget(&mut self, kind: BudgetKind) {
        if !self.budgets.contains(&kind) {
            self.budgets.push(kind);
        }
    }

    /// Gives the facts' buffers back to the thread for its next
    /// exploration: the arena's storage (as dropping it does), the
    /// vectors, and the uses' key lists, all cleared. The pipeline calls
    /// it wherever it discards facts; dropping them instead frees the
    /// buffers.
    pub(crate) fn recycle(self) {
        let FunctionFacts {
            arena,
            loads,
            copies,
            guards,
            mut uses,
            budgets,
            ..
        } = self;
        drop(arena);
        let mut pool = POOL.with(Cell::take).unwrap_or_default();
        keep_keys(&mut pool.keys, uses.drain(..).map(|u| u.keys));
        keep(&mut pool.loads, loads);
        keep(&mut pool.copies, copies);
        keep(&mut pool.guards, guards);
        keep(&mut pool.uses, uses);
        keep(&mut pool.budgets, budgets);
        // Thread teardown may already have destroyed the pool.
        let _ = POOL.try_with(|p| p.set(Some(pool)));
    }

    /// Moves the thread's recycled vectors into these facts, whose own
    /// must be empty, and returns its spare key lists (each empty). The
    /// exploration hands the key lists it did not use back through
    /// [`keep_spare_keys`].
    pub(crate) fn take_buffers(&mut self) -> Vec<Vec<ExprId>> {
        let pool = POOL.with(Cell::take).unwrap_or_default();
        self.loads = pool.loads;
        self.copies = pool.copies;
        self.guards = pool.guards;
        self.uses = pool.uses;
        self.budgets = pool.budgets;
        pool.keys
    }
}

/// Keeps the larger of a pooled buffer and a recycled one.
fn keep<T>(kept: &mut Vec<T>, mut buffer: Vec<T>) {
    recycle(&mut buffer);
    if buffer.capacity() > kept.capacity() {
        *kept = buffer;
    }
}

thread_local! {
    /// The cleared buffers of the last facts recycled on this thread.
    static POOL: Cell<Option<FactBuffers>> = const { Cell::new(None) };
}

/// Recycled fact buffers: the cleared vectors of earlier facts, and
/// cleared key lists for the next exploration's uses.
#[derive(Default)]
struct FactBuffers {
    loads: Vec<LoadFact>,
    copies: Vec<CopyFact>,
    guards: Vec<GuardFact>,
    uses: Vec<UseFact>,
    budgets: Vec<BudgetKind>,
    keys: Vec<Vec<ExprId>>,
}

/// Returns spare key lists to the thread's pool.
pub(crate) fn keep_spare_keys(mut keys: Vec<Vec<ExprId>>) {
    let mut pool = POOL.with(Cell::take).unwrap_or_default();
    // Keep the larger list of lists and move the other's into it.
    if keys.capacity() > pool.keys.capacity() {
        std::mem::swap(&mut keys, &mut pool.keys);
    }
    keep_keys(&mut pool.keys, keys.into_iter());
    let _ = POOL.try_with(|p| p.set(Some(pool)));
}

/// Adds cleared key lists to `spare` while their capacities, counting
/// one slot per list, stay within [`MAX_POOLED_NODES`] in total; the
/// rest are freed.
fn keep_keys(spare: &mut Vec<Vec<ExprId>>, keys: impl Iterator<Item = Vec<ExprId>>) {
    let mut held: usize = spare.iter().map(|k| k.capacity() + 1).sum();
    if held > MAX_POOLED_NODES || spare.capacity() > MAX_POOLED_NODES {
        *spare = Vec::new();
        held = 0;
    }
    for mut k in keys {
        let units = k.capacity() + 1;
        if held + units > MAX_POOLED_NODES {
            continue;
        }
        held += units;
        k.clear();
        spare.push(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_dedup_by_pc() {
        let mut f = FunctionFacts::default();
        let loc = f.arena.c64(4);
        let value = f.arena.calldata_word(loc);
        f.add_load(LoadFact { pc: 10, loc, value });
        f.add_load(LoadFact { pc: 10, loc, value });
        assert_eq!(f.loads.len(), 1);
    }

    #[test]
    fn recycled_facts_come_back_empty_on_kept_buffers() {
        let mut f = FunctionFacts::default();
        let loc = f.arena.c64(4);
        let value = f.arena.calldata_word(loc);
        for pc in 0..8 {
            f.add_load(LoadFact { pc, loc, value });
            f.add_use(UseFact {
                pc,
                keys: vec![loc],
                usage: Usage::ByteExtract,
            });
        }
        f.add_budget(BudgetKind::Paths);
        f.recycle();
        let mut kept = FunctionFacts::default();
        let keys = kept.take_buffers();
        assert!(kept.loads.is_empty() && kept.uses.is_empty() && kept.budgets.is_empty());
        assert!(kept.loads.capacity() >= 8 && kept.uses.capacity() >= 8);
        assert_eq!(keys.len(), 8);
        assert!(keys.iter().all(Vec::is_empty));
    }

    #[test]
    fn oversized_fact_buffers_are_not_kept() {
        let mut f = FunctionFacts::default();
        let loc = f.arena.c64(4);
        let value = f.arena.calldata_word(loc);
        for pc in 0..=MAX_POOLED_NODES {
            f.loads.push(LoadFact { pc, loc, value });
            f.uses.push(UseFact {
                pc,
                keys: vec![loc; 3],
                usage: Usage::ByteExtract,
            });
        }
        f.recycle();
        let mut kept = FunctionFacts::default();
        let keys = kept.take_buffers();
        assert!(kept.loads.capacity() <= MAX_POOLED_NODES);
        assert!(kept.uses.capacity() <= MAX_POOLED_NODES);
        let held: usize = keys.iter().map(|k| k.capacity() + 1).sum();
        assert!(held <= MAX_POOLED_NODES, "{held} key slots kept");
        assert!(keys.capacity() <= MAX_POOLED_NODES);
    }

    #[test]
    fn use_dedup_exact() {
        let mut f = FunctionFacts::default();
        let (k, k2) = (f.arena.c64(4), f.arena.c64(0x24));
        let u = UseFact {
            pc: 1,
            keys: vec![k],
            usage: Usage::ByteExtract,
        };
        f.add_use(u.clone());
        f.add_use(u);
        assert_eq!(f.uses.len(), 1);
        f.add_use(UseFact {
            pc: 1,
            keys: vec![k2],
            usage: Usage::ByteExtract,
        });
        assert_eq!(f.uses.len(), 2);
    }
}
