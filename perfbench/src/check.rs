//! Output checks. Every contract is checked against its generator's
//! labels, and every restart result against the digest recorded when its
//! store was built.

use crate::inputs::Input;
use sigrec_conformance::path_digest;
use sigrec_core::{Diagnostic, RecoveredFunction};
use std::hash::{Hash, Hasher};
use std::mem::discriminant;

/// Failure descriptions kept for the report; the counts are exact.
const KEPT_FAILURES: usize = 8;

/// Operations attempted and failed, and the strict accuracy score.
#[derive(Debug, Default)]
pub struct Tally {
    /// Contracts submitted.
    pub attempted: u64,
    pub failed: u64,
    /// Labelled functions scored (each distinct contract once).
    pub scored: u64,
    /// Scored functions whose recovered signature equals the declared
    /// one: selector, parameter count, order and types (§5.2).
    pub correct: u64,
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    /// Records an operation that panicked.
    pub fn panicked(&mut self, what: &str) {
        self.attempted += 1;
        self.fail(format!("{what} panicked"));
    }

    /// Fails an operation already counted as attempted.
    pub fn fail_attempted(&mut self, why: String) {
        self.fail(why);
    }

    /// Adds another tally's operations and failures (not its score).
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for why in &other.failures {
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(why.clone());
            }
        }
    }

    /// Checks one returned contract: no internal error, and for a
    /// labelled input exactly the labelled selector set. With `score`
    /// set (the first time a distinct contract is seen) its functions
    /// are also scored for accuracy. Returns whether the contract passed.
    pub fn contract(
        &mut self,
        input: &Input,
        functions: &[RecoveredFunction],
        diagnostics: &[Diagnostic],
        score: bool,
    ) -> bool {
        self.attempted += 1;
        if let Some(d) = diagnostics
            .iter()
            .find(|d| matches!(d, Diagnostic::InternalError { .. }))
        {
            self.fail(format!("internal error: {d}"));
            return false;
        }
        let Some(labels) = &input.labels else {
            return true;
        };
        let mut want: Vec<u32> = labels.iter().map(|(s, _)| s.as_u32()).collect();
        let mut got: Vec<u32> = functions.iter().map(|f| f.selector.as_u32()).collect();
        want.sort_unstable();
        got.sort_unstable();
        if want != got {
            self.fail(format!("selector set {got:08x?} != labels {want:08x?}"));
            return false;
        }
        if score {
            for (selector, params) in labels {
                self.scored += 1;
                let hit = functions.iter().find(|f| f.selector == *selector);
                if hit.is_some_and(|f| f.params == *params) {
                    self.correct += 1;
                }
            }
        }
        true
    }

    /// Checks a restart result against the recovery recorded when the
    /// store was built.
    pub fn digest(&mut self, functions: &[RecoveredFunction], recorded: &[RecoveredFunction]) {
        if !same_path_digest(functions, recorded) {
            self.fail(format!(
                "restart result {:?} differs from the digest recorded at store build {:?}",
                path_digest(functions),
                path_digest(recorded)
            ));
        }
    }

    pub fn accuracy(&self) -> f64 {
        if self.scored == 0 {
            return 0.0;
        }
        self.correct as f64 / self.scored as f64
    }
}

/// `path_digest(a) == path_digest(b)` without rendering the strings:
/// the same selectors, entries, parameter types, languages and fired
/// rules, compared in selector order.
pub fn same_path_digest(a: &[RecoveredFunction], b: &[RecoveredFunction]) -> bool {
    fn sorted(fs: &[RecoveredFunction]) -> Vec<&RecoveredFunction> {
        let mut v: Vec<&RecoveredFunction> = fs.iter().collect();
        v.sort_by_key(|f| (f.selector, f.entry));
        v
    }
    let (a, b) = (sorted(a), sorted(b));
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            x.selector == y.selector
                && x.entry == y.entry
                && x.params == y.params
                && x.language == y.language
                && x.rules == y.rules
        })
}

/// FNV-1a, so that digests repeat across runs of one build.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A 64-bit digest of everything a recovery returns — the fields
/// `path_digest` renders plus budgets, delegate targets and
/// diagnostics — for comparing two runs contract by contract.
pub fn full_digest(functions: &[RecoveredFunction], diagnostics: &[Diagnostic]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for f in functions {
        f.selector.hash(&mut h);
        f.entry.hash(&mut h);
        f.params.hash(&mut h);
        discriminant(&f.language).hash(&mut h);
        f.rules.hash(&mut h);
        for b in &f.budgets {
            discriminant(b).hash(&mut h);
        }
        if let Some(d) = &f.delegate {
            h.write(format!("{d:?}").as_bytes());
        }
    }
    for d in diagnostics {
        h.write(format!("{d:?}").as_bytes());
    }
    h.finish()
}
