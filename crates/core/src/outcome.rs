//! Structured recovery outcomes and diagnostics.
//!
//! The paper runs TASE over millions of in-the-wild contracts where
//! malformed dispatchers, truncated code, and optimizer-mangled control
//! flow are routine. A production recovery therefore never just returns a
//! bare function list: it reports *why* coverage may be partial. Every
//! pipeline entry point has an `*_with_outcome` variant returning a
//! [`RecoveryOutcome`] — the plain `Vec`-returning methods are thin
//! wrappers that drop the diagnostics.
//!
//! Diagnostics split into two classes:
//!
//! - **lossy** — work was dropped: an exploration budget or wall-clock
//!   deadline cut paths short, the dispatcher walk was truncated, the
//!   code itself is malformed, or a worker panicked. Results may be
//!   missing functions or parameter types.
//! - **abstraction** — the designed loop discipline engaged
//!   ([`BudgetKind::ForkCap`] / [`BudgetKind::VisitCap`]): bounded
//!   unrolling is how TASE terminates on loops, the result is still the
//!   canonical one for that function. These appear on every contract with
//!   loops (e.g. any dynamic-array parameter) and carry no alarm.

use sigrec_abi::Selector;
use std::fmt;

/// Which exploration budget an execution ran into.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum BudgetKind {
    /// [`TaseConfig::max_paths`](crate::TaseConfig::max_paths): pending
    /// paths were discarded unexplored.
    Paths,
    /// [`TaseConfig::max_steps_per_path`](crate::TaseConfig::max_steps_per_path):
    /// a path was cut mid-flight.
    PathSteps,
    /// [`TaseConfig::max_total_steps`](crate::TaseConfig::max_total_steps):
    /// the whole function's exploration was cut.
    TotalSteps,
    /// [`FORK_LIMIT_PER_BLOCK`](crate::exec::FORK_LIMIT_PER_BLOCK):
    /// a symbolic loop was unrolled to its fork bound, then exited
    /// (expected on loops — an abstraction, not a loss).
    ForkCap,
    /// [`BLOCK_VISIT_LIMIT`](crate::exec::BLOCK_VISIT_LIMIT):
    /// a concrete loop was cut at the visit bound (expected on concrete
    /// loops — an abstraction, not a loss).
    VisitCap,
    /// [`TaseConfig::max_wall_time`](crate::TaseConfig::max_wall_time):
    /// the per-contract wall-clock deadline expired.
    Deadline,
}

impl BudgetKind {
    /// True when hitting this budget may have dropped coverage (as
    /// opposed to the designed loop abstraction engaging).
    pub fn is_lossy(&self) -> bool {
        !matches!(self, BudgetKind::ForkCap | BudgetKind::VisitCap)
    }
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BudgetKind::Paths => "path cap",
            BudgetKind::PathSteps => "per-path step cap",
            BudgetKind::TotalSteps => "total step cap",
            BudgetKind::ForkCap => "per-block fork cap",
            BudgetKind::VisitCap => "block visit cap",
            BudgetKind::Deadline => "wall-clock deadline",
        };
        f.write_str(s)
    }
}

/// How the dispatcher walk was cut short.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TruncationKind {
    /// The symbolic walk hit its step cap mid-chain; entries past the
    /// cut point are missing from the table.
    Steps,
    /// The range-split fork budget was exhausted; some binary-search
    /// subtrees were not walked.
    Branches,
}

impl fmt::Display for TruncationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TruncationKind::Steps => "step cap",
            TruncationKind::Branches => "branch cap",
        })
    }
}

/// Why the code itself defeats extraction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MalformedKind {
    /// Non-empty code shorter than a 4-byte selector: no dispatcher can
    /// exist, no selector may be fabricated.
    CodeTooShort {
        /// The code length in bytes.
        len: usize,
    },
    /// The dispatcher walk executed a `PUSH` whose immediate runs past
    /// the end of the code (the EVM zero-fills it; a selector compare
    /// built from it is not trustworthy).
    TruncatedPush {
        /// pc of the truncated instruction.
        pc: usize,
    },
}

impl fmt::Display for MalformedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalformedKind::CodeTooShort { len } => {
                write!(f, "code too short for a dispatcher ({len} bytes)")
            }
            MalformedKind::TruncatedPush { pc } => {
                write!(f, "truncated PUSH immediate at pc {pc:#x}")
            }
        }
    }
}

/// Where a delegatecall-forwarding contract sends execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DelegateTarget {
    /// The target address is a compile-time constant embedded in the
    /// code (minimal proxies, hand-rolled forwarders, diamond facet
    /// tables with immediate addresses).
    Address([u8; 20]),
    /// The target is computed at run time (storage slot, calldata,
    /// mapping lookup): unresolvable from this contract's bytes alone.
    Unknown,
}

impl fmt::Display for DelegateTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelegateTarget::Address(a) => {
                f.write_str("0x")?;
                for b in a {
                    write!(f, "{b:02x}")?;
                }
                Ok(())
            }
            DelegateTarget::Unknown => f.write_str("<runtime-computed>"),
        }
    }
}

/// One diagnostic attached to a recovery.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Diagnostic {
    /// One function's exploration ran into a budget.
    BudgetExhausted {
        /// The function's selector.
        selector: Selector,
        /// pc of the function body.
        entry: usize,
        /// Which budget tripped.
        kind: BudgetKind,
    },
    /// The dispatcher walk was cut short; the table may be missing
    /// entries.
    DispatcherTruncated(TruncationKind),
    /// The code cannot carry a trustworthy dispatcher.
    MalformedCode(MalformedKind),
    /// A batch worker panicked while recovering this contract; the
    /// panic was isolated and the contract's results are partial.
    InternalError {
        /// What the worker was doing, plus the panic payload when it
        /// was a string.
        context: String,
    },
    /// The contract forwards execution elsewhere via `DELEGATECALL` and
    /// the real signatures live in the target's code, which was not
    /// supplied. Fires per routed selector for diamond-style routing
    /// (`selector: Some(..)`) and once with `selector: None` for
    /// whole-contract forwarders (EIP-1167 minimal proxies,
    /// fallback-only upgradeable proxies). Resolve it by re-running
    /// through [`SigRec::recover_linked`](crate::SigRec::recover_linked)
    /// with the implementation code supplied.
    UnresolvedIndirection {
        /// The routed selector, when the indirection sits behind one
        /// dispatcher entry rather than the whole contract.
        selector: Option<Selector>,
        /// Where the delegatecall goes, as far as the bytes reveal.
        target: DelegateTarget,
    },
}

impl Diagnostic {
    /// True when the diagnostic indicates dropped coverage (see the
    /// module docs for the lossy/abstraction split).
    pub fn is_lossy(&self) -> bool {
        match self {
            Diagnostic::BudgetExhausted { kind, .. } => kind.is_lossy(),
            _ => true,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnostic::BudgetExhausted {
                selector,
                entry,
                kind,
            } => write!(f, "{selector} (entry {entry:#x}): hit {kind}"),
            Diagnostic::DispatcherTruncated(kind) => {
                write!(f, "dispatcher walk truncated at its {kind}")
            }
            Diagnostic::MalformedCode(kind) => write!(f, "malformed code: {kind}"),
            Diagnostic::InternalError { context } => write!(f, "internal error: {context}"),
            Diagnostic::UnresolvedIndirection { selector, target } => match selector {
                Some(sel) => write!(f, "{sel}: delegatecall indirection to {target}"),
                None => write!(f, "contract forwards all calls to {target}"),
            },
        }
    }
}

/// The result of recovering one contract, with the evidence of how
/// complete it is.
#[derive(Clone, Debug, Default)]
pub struct RecoveryOutcome {
    /// The recovered functions, dispatcher order.
    pub functions: Vec<crate::pipeline::RecoveredFunction>,
    /// Everything that limited the recovery. Empty for a contract fully
    /// explored within budgets.
    pub diagnostics: Vec<Diagnostic>,
}

impl RecoveryOutcome {
    /// True when no *lossy* diagnostic is present: every function was
    /// fully explored (the loop abstraction engaging does not count as
    /// incompleteness).
    pub fn is_complete(&self) -> bool {
        !self.diagnostics.iter().any(Diagnostic::is_lossy)
    }

    /// The lossy diagnostics only — what a caller should surface.
    pub fn losses(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_lossy())
    }
}

/// Assembles the contract-level diagnostic list: the extraction-level
/// diagnostics followed by one [`Diagnostic::BudgetExhausted`] per budget
/// recorded on each function. Shared by the warm (cache-hit) and cold
/// paths so both report identically.
pub(crate) fn assemble_diagnostics(
    extraction: &[Diagnostic],
    functions: &[crate::pipeline::RecoveredFunction],
) -> Vec<Diagnostic> {
    let mut out = extraction.to_vec();
    for f in functions {
        for &kind in &f.budgets {
            out.push(Diagnostic::BudgetExhausted {
                selector: f.selector,
                entry: f.entry,
                kind,
            });
        }
        if let Some(target) = f.delegate {
            out.push(Diagnostic::UnresolvedIndirection {
                selector: Some(f.selector),
                target,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_classification() {
        assert!(BudgetKind::Paths.is_lossy());
        assert!(BudgetKind::PathSteps.is_lossy());
        assert!(BudgetKind::TotalSteps.is_lossy());
        assert!(BudgetKind::Deadline.is_lossy());
        assert!(!BudgetKind::ForkCap.is_lossy());
        assert!(!BudgetKind::VisitCap.is_lossy());
        assert!(Diagnostic::DispatcherTruncated(TruncationKind::Steps).is_lossy());
        assert!(Diagnostic::MalformedCode(MalformedKind::CodeTooShort { len: 2 }).is_lossy());
        assert!(Diagnostic::InternalError {
            context: "x".into()
        }
        .is_lossy());
        let abstraction = Diagnostic::BudgetExhausted {
            selector: Selector::from_u32(0),
            entry: 0,
            kind: BudgetKind::ForkCap,
        };
        assert!(!abstraction.is_lossy());
    }

    #[test]
    fn outcome_completeness_ignores_abstractions() {
        let mut o = RecoveryOutcome::default();
        assert!(o.is_complete());
        o.diagnostics.push(Diagnostic::BudgetExhausted {
            selector: Selector::from_u32(1),
            entry: 10,
            kind: BudgetKind::ForkCap,
        });
        assert!(o.is_complete());
        assert_eq!(o.losses().count(), 0);
        o.diagnostics
            .push(Diagnostic::DispatcherTruncated(TruncationKind::Branches));
        assert!(!o.is_complete());
        assert_eq!(o.losses().count(), 1);
    }

    #[test]
    fn display_is_human_readable() {
        let d = Diagnostic::BudgetExhausted {
            selector: Selector::from_u32(0xa9059cbb),
            entry: 0x42,
            kind: BudgetKind::TotalSteps,
        };
        let s = d.to_string();
        assert!(s.contains("0xa9059cbb"), "{s}");
        assert!(s.contains("total step cap"), "{s}");
        let m = Diagnostic::MalformedCode(MalformedKind::TruncatedPush { pc: 7 });
        assert!(m.to_string().contains("0x7"), "{m}");
    }

    #[test]
    fn unresolved_indirection_is_lossy_and_readable() {
        let mut addr = [0u8; 20];
        addr[0] = 0xbe;
        addr[19] = 0xef;
        let whole = Diagnostic::UnresolvedIndirection {
            selector: None,
            target: DelegateTarget::Address(addr),
        };
        assert!(whole.is_lossy());
        let s = whole.to_string();
        assert!(s.contains("forwards all calls"), "{s}");
        assert!(s.starts_with("contract"), "{s}");
        assert!(
            s.contains("0xbe000000000000000000000000000000000000ef"),
            "{s}"
        );
        let routed = Diagnostic::UnresolvedIndirection {
            selector: Some(Selector::from_u32(0xa9059cbb)),
            target: DelegateTarget::Unknown,
        };
        assert!(routed.is_lossy());
        let s = routed.to_string();
        assert!(s.contains("0xa9059cbb"), "{s}");
        assert!(s.contains("<runtime-computed>"), "{s}");
    }
}
