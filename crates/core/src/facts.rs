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

use crate::expr::{ExprArena, ExprId};
use crate::outcome::{BudgetKind, DelegateTarget};
use sigrec_evm::U256;

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
        if !self
            .uses
            .iter()
            .any(|f| f.pc == fact.pc && f.usage == fact.usage && f.keys == fact.keys)
        {
            self.uses.push(fact);
        }
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
