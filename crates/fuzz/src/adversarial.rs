//! Adversarial robustness campaign.
//!
//! [`run_adversarial`] drives the [`sigrec_corpus::adversarial`] corpus
//! through every conformance execution path and asserts the hardening
//! guarantees the pipeline makes about hostile bytecode:
//!
//! 1. **No panic** — every path on every case completes or is caught as a
//!    violation, never unwinds.
//! 2. **Path agreement** — under purely deterministic budgets all
//!    eight pipeline paths (cold, first and warm recover, dedup and naive
//!    batch, plus the persistent-store cold/warm-restart pair and
//!    `explain` on the restarted handle) produce the same structural
//!    digest, truncated or not, plus a
//!    further check that a warm [`SigRec::recover_with_outcome`]
//!    replays the cold outcome's diagnostics exactly, plus a final
//!    check that the per-rule inference reference recovers the same
//!    digest as the (default) tree matcher on the hostile facts.
//! 3. **Diagnostics populated** — cases engineered to truncate
//!    (`TruncatedPushTail`, `DeepLoop`) must surface a diagnostic, never
//!    degrade silently.
//! 4. **Deadline respected** — with a wall-clock budget set, recovery
//!    returns within the deadline plus a scheduling slack.
//! 5. **Indirection honesty** — fallback-only delegators and truncated
//!    proxies are diagnosed (never a phantom function or a fabricated
//!    target), cyclic diamond routing terminates with its indirection
//!    diagnostic intact, and factory-child metadata tails change nothing.
//! 6. **Exact identity** — once per campaign, two crafted inputs checked
//!    against the truth rather than against other paths (an identity
//!    defect makes every path wrong the same way): a constant crafted to
//!    collide with `0x20` under a 64-bit structural hash is loaded where
//!    it points, and two contracts whose bodies collide under an unkeyed
//!    64-bit span hash each recover, in either order on one shared
//!    recoverer, exactly as they do fresh.
//! 7. **Bounded work** — once per campaign, four bodies crafted to blow
//!    up a walk or the path worklist recover within the deadline plus
//!    its slack, and the worklist never holds more than `max_paths + 1`
//!    states: a load whose location doubles `cd[4]` 40 times and a
//!    dispatcher compare on `cd[0]` masked by itself 40 times (each a
//!    DAG of about 40 nodes but a tree of 2⁴⁰ leaves), and two fork
//!    storms (500 stores then 2 700 forks, 2 000 stores then 1 700
//!    forks) whose first path alone forks thousands of times.
//! 8. **Recycled scratch ≡ fresh thread** — recovery reuses per-thread
//!    buffers (disassembly tables, expression arena, exploration scratch,
//!    fact buffers, inference indexes), so every case, recovered right
//!    after the previous one on the campaign's thread, must equal its
//!    recovery on a newly spawned thread. A fork storm that fills the
//!    spare path states to their cap runs first and again halfway, so
//!    the cases after it start from a full pool. Three crafted pairs
//!    each run on a new thread of their own, the first code and then
//!    the second, whose recovery must equal one on another new thread:
//!    a code of one instruction per byte, then a shorter one that jumps
//!    into its own push data (where a stale pc table would find an
//!    instruction); a body that stores a calldata word at `0x40`, then
//!    one that masks an unwritten `0x40` (where a stale memory journal
//!    would hand back that word); and a loop whose guard `JUMPI` heads
//!    it, then a shorter code with a plain `JUMPI` at the same pc ahead
//!    of a copy (where a stale loop-head table would put the copy inside
//!    a loop and add an array dimension). A pair's own thread keeps a
//!    leak that accumulates from hiding behind every earlier case's
//!    state.
//!
//! [`SigRec::recover_with_outcome`]: sigrec_core::SigRec

use sigrec_conformance::{execution_paths, path_digest};
use sigrec_core::{
    BudgetKind, DelegateTarget, Diagnostic, InferEngine, LinkSet, MalformedKind, SigRec, Tase,
    TaseConfig,
};
use sigrec_corpus::adversarial::{
    adversarial_cases, collision_is_fallback_only, cyclic_target, factory_child_parts,
    AdversarialCase, AdversarialKind,
};
use sigrec_evm::{Disassembly, U256};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Campaign parameters.
#[derive(Clone, Copy, Debug)]
pub struct AdversarialCampaign {
    /// Corpus seed.
    pub seed: u64,
    /// Number of generated cases (round-robined over every
    /// [`AdversarialKind`]).
    pub cases: usize,
    /// Wall-clock budget for the deadline check.
    pub deadline: Duration,
    /// Grace on top of `deadline` before an overrun counts as a
    /// violation (covers the cooperative check granularity plus CI
    /// scheduling noise).
    pub deadline_slack: Duration,
}

impl Default for AdversarialCampaign {
    fn default() -> Self {
        AdversarialCampaign {
            seed: 0xad5e_c0de,
            cases: 210,
            deadline: Duration::from_millis(100),
            deadline_slack: Duration::from_millis(900),
        }
    }
}

/// One broken guarantee.
#[derive(Clone, Debug)]
pub struct AdversarialViolation {
    /// Generator family of the offending case.
    pub kind: &'static str,
    /// The case's seed (enough to regenerate the bytecode).
    pub seed: u64,
    /// Which guarantee broke.
    pub check: String,
    /// What was observed.
    pub detail: String,
}

/// Aggregated campaign result.
#[derive(Clone, Debug, Default)]
pub struct AdversarialReport {
    /// Cases run.
    pub cases: usize,
    /// Execution-path comparisons performed.
    pub paths_checked: usize,
    /// Cases that carried at least one lossy diagnostic.
    pub truncated_cases: usize,
    /// All broken guarantees.
    pub violations: Vec<AdversarialViolation>,
}

impl AdversarialReport {
    /// True when every guarantee held on every case.
    pub fn is_green(&self) -> bool {
        self.violations.is_empty()
    }

    /// A human-readable summary block.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "adversarial: {} cases, {} paths compared, {} truncated, {} violation(s)\n",
            self.cases,
            self.paths_checked,
            self.truncated_cases,
            self.violations.len()
        );
        for v in &self.violations {
            out.push_str(&format!(
                "  [{}] {} seed={:#x}: {}\n",
                v.check, v.kind, v.seed, v.detail
            ));
        }
        out
    }
}

/// The deterministic budget profile the agreement checks run under:
/// small enough that `DeepLoop` cases truncate in milliseconds, with no
/// wall-clock deadline so every path sees identical (reproducible) cuts.
fn tight_config() -> TaseConfig {
    TaseConfig {
        max_paths: 64,
        max_steps_per_path: 5_000,
        max_total_steps: 20_000,
        ..TaseConfig::default()
    }
}

/// Runs the campaign. Deterministic in `campaign.seed`; a green report
/// means every case upheld every guarantee.
pub fn run_adversarial(campaign: &AdversarialCampaign) -> AdversarialReport {
    let mut report = AdversarialReport::default();
    let cases = adversarial_cases(campaign.seed, campaign.cases);
    for case in &cases {
        report.cases += 1;
        check_case(campaign, case, &mut report);
    }
    check_recycled_scratch(&cases, &mut report);
    check_exact_identity(&mut report);
    check_bounded_work(campaign, &mut report);
    report
}

/// What guarantee 8 compares: the path digest and the diagnostics of a
/// cold recovery under the deterministic budgets.
fn recycled_view(code: &[u8]) -> (Vec<String>, Vec<Diagnostic>) {
    let outcome = SigRec::with_config(tight_config()).recover_cold_with_outcome(code);
    (path_digest(&outcome.functions), outcome.diagnostics)
}

/// Guarantee 8: every case, recovered right after the previous one on
/// this thread, equals its recovery on a new thread. A fork storm of 64
/// paths, each carrying a 500-write memory journal, retires more spare
/// path states than the pool keeps, so it runs first and again halfway.
/// Each of three crafted pairs (see the module docs) then runs on a new
/// thread of its own, so the pair's second code sees the first code's
/// scratch and nothing else. Adds one comparison per case plus five to
/// `paths_checked`.
fn check_recycled_scratch(cases: &[AdversarialCase], report: &mut AdversarialReport) {
    let storm = behind_dispatcher(|at| fork_storm(at, 500, 200));
    // `PUSH1 t; JUMP; PUSH1 0x5b; STOP`, `t` the pushed `0x5b` byte.
    let push_data_jump = behind_dispatcher(|at| {
        let target = u8::try_from(at + 4).expect("a one-byte jump target");
        vec![0x60, target, 0x56, 0x60, 0x5b, 0x00]
    });
    // `(PUSH1 k; POP) × 8; PUSH1 4; CALLDATALOAD; PUSH1 0x40; MSTORE;
    // STOP`, whose stored word has an id the reader's arena never
    // reaches, then `PUSH1 0x40; MLOAD; PUSH1 0xff; AND; POP; STOP`.
    let store_word = behind_dispatcher(|_| {
        let mut body: Vec<u8> = (1..=8).flat_map(|k| [0x60, 0x10 + k, 0x50]).collect();
        body.extend([0x60, 0x04, 0x35, 0x60, 0x40, 0x52, 0x00]);
        body
    });
    let load_unwritten =
        behind_dispatcher(|_| vec![0x60, 0x40, 0x51, 0x60, 0xff, 0x16, 0x50, 0x00]);
    // `PUSH1 0; head: JUMPDEST; PUSH1 3; DUP2; LT; ISZERO; PUSH1 exit;
    // JUMPI`, the guard `JUMPI` at `at + 10` and `exit` at `at + 23`.
    let guard = |at: usize| {
        let exit = u8::try_from(at + 23).expect("a one-byte pc");
        vec![
            0x60, 0x00, 0x5b, 0x60, 0x03, 0x81, 0x10, 0x15, 0x60, exit, 0x57,
        ]
    };
    // The guard heads a loop: `PUSH1 1; ADD; PUSH1 head; JUMP; STOP × 6;
    // exit: JUMPDEST; STOP`.
    let loop_head = behind_dispatcher(|at| {
        let head = u8::try_from(at + 2).expect("a one-byte pc");
        let mut body = guard(at);
        body.extend([
            0x60, 0x01, 0x01, 0x60, head, 0x56, 0, 0, 0, 0, 0, 0, 0x5b, 0x00,
        ]);
        body
    });
    // A shorter code: the same guard, heading nothing, ahead of
    // `CALLDATACOPY(0x80, 4, 0x40); STOP`.
    let plain_guard = behind_dispatcher(|at| {
        let mut body = guard(at);
        body.extend([0x60, 0x40, 0x60, 0x04, 0x60, 0x80, 0x37, 0x00]);
        body
    });
    let case = |c: &AdversarialCase| (c.kind.name(), c.seed, c.code.clone());
    let half = cases.len() / 2;
    let inputs = [("fork-storm-spare-cap", 0, storm.clone())]
        .into_iter()
        .chain(cases[..half].iter().map(case))
        .chain([("fork-storm-spare-cap", 0, storm)])
        .chain(cases[half..].iter().map(case));
    for (kind, seed, code) in inputs {
        let recycled = catch_unwind(AssertUnwindSafe(|| recycled_view(&code)));
        compare_with_new_thread(kind, seed, &code, recycled, report);
    }
    let pairs = [
        ("push-data-jump", vec![0x5b; 64], push_data_jump),
        ("load-unwritten-word", store_word, load_unwritten),
        ("plain-guard", loop_head, plain_guard),
    ];
    for (kind, first, second) in pairs {
        let recycled = on_new_thread(|| {
            recycled_view(&first);
            recycled_view(&second)
        });
        compare_with_new_thread(kind, 0, &second, recycled, report);
    }
}

/// Runs `f` on a newly spawned thread, catching its panic.
fn on_new_thread<T: Send>(f: impl FnOnce() -> T + Send) -> std::thread::Result<T> {
    std::thread::scope(|scope| scope.spawn(f).join())
}

/// One guarantee-8 comparison: `recycled`, the view of `code` recovered
/// after other inputs, against a recovery of `code` on a new thread.
fn compare_with_new_thread(
    kind: &'static str,
    seed: u64,
    code: &[u8],
    recycled: std::thread::Result<(Vec<String>, Vec<Diagnostic>)>,
    report: &mut AdversarialReport,
) {
    let fresh = on_new_thread(|| recycled_view(code));
    report.paths_checked += 1;
    let (check, detail) = match (recycled, fresh) {
        (Ok(recycled), Ok(fresh)) if recycled == fresh => return,
        (Ok(recycled), Ok(fresh)) => (
            "recycled-scratch",
            format!("after the previous input {recycled:?}, on a new thread {fresh:?}"),
        ),
        _ => (
            "no-panic",
            "panicked recovering on a recycled or new thread".to_string(),
        ),
    };
    report.violations.push(AdversarialViolation {
        kind,
        seed,
        check: check.to_string(),
        detail,
    });
}

/// `PUSH1 0x20; POP; PUSH32 c; CALLDATALOAD; PUSH1 0xff; AND; POP; STOP`,
/// where `c` = `0x7a073c4333c76054…0040` collides with `0x20` under the
/// 64-bit structural hash expressions were once identified by.
const CRAFTED_CONSTANT_LOAD: [u8; 42] = [
    0x60, 0x20, 0x50, 0x7f, 0x7a, 0x07, 0x3c, 0x43, 0x33, 0xc7, 0x60, 0x54, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x40, 0x35, 0x60, 0xff, 0x16, 0x50, 0x00,
];

/// `a(uint8)` and `b(address)`, each with 8 unreachable trailing bytes
/// chosen so that both bodies (from pc 19) collide under the unkeyed
/// FNV-1a span hash the function cache was once keyed by.
const COLLIDING_PAIR: [&str; 2] = [
    "60003560e01c80632a500b7f146100135750005b341561001f5760006000fd5b60043560ff166001015000dcc4ae2745a5fe63",
    "60003560e01c8063bda02782146100135750005b341561001f5760006000fd5b60043573ffffffffffffffffffffffffffffffffffffffff165000bb749f8668cb5af5",
];

/// Guarantee 6: exact expression identity, and no result carried from
/// one contract to another, checked against the truth. Adds five
/// comparisons to `paths_checked`.
fn check_exact_identity(report: &mut AdversarialReport) {
    let checked = catch_unwind(|| {
        let mut misses = Vec::new();
        let disasm = Disassembly::new(&CRAFTED_CONSTANT_LOAD);
        let facts = Tase::new(&disasm, TaseConfig::default()).explore(0);
        let pushed = U256::from_be_bytes(&CRAFTED_CONSTANT_LOAD[4..36]);
        let loaded: Vec<_> = facts
            .loads
            .iter()
            .map(|l| facts.arena.eval(l.loc))
            .collect();
        if loaded != [Some(pushed)] {
            misses.push(format!("crafted constant {pushed:?} loaded at {loaded:?}"));
        }
        let [a, b] = COLLIDING_PAIR.map(unhex);
        for (first, second) in [(&a, &b), (&b, &a)] {
            let shared = SigRec::new();
            for code in [first, second] {
                let got = path_digest(&shared.recover(code));
                let fresh = path_digest(&SigRec::new().recover_cold(code));
                if got != fresh {
                    misses.push(format!("shared recoverer {got:?}, fresh {fresh:?}"));
                }
            }
        }
        misses
    });
    let violation = |check: &str, detail: String| AdversarialViolation {
        kind: "exact-identity",
        seed: 0,
        check: check.to_string(),
        detail,
    };
    match checked {
        Ok(misses) => {
            report.paths_checked += 5;
            for detail in misses {
                report.violations.push(violation("exact-identity", detail));
            }
        }
        Err(_) => report.violations.push(violation(
            "no-panic",
            "panicked checking exact identity".to_string(),
        )),
    }
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// A one-entry dispatcher (selector `0x0bad5eed`) whose body starts
/// with a `JUMPDEST` at pc 19; `body` gets the pc where it begins.
fn behind_dispatcher(body: impl FnOnce(usize) -> Vec<u8>) -> Vec<u8> {
    let mut code = unhex("60003560e01c80630bad5eed146100135750005b");
    code.extend(body(code.len()));
    code
}

/// `PUSH1 4; CALLDATALOAD; (DUP1; ADD) × k; CALLDATALOAD; PUSH1 0xff;
/// AND; POP; STOP`.
fn doubling_load(k: usize) -> Vec<u8> {
    let mut code = vec![0x60, 0x04, 0x35];
    for _ in 0..k {
        code.extend([0x80, 0x01]);
    }
    code.extend([0x35, 0x60, 0xff, 0x16, 0x50, 0x00]);
    code
}

/// `PUSH1 0; CALLDATALOAD; (DUP1; AND) × k; PUSH4 0x12345678; EQ;
/// PUSH1 t; JUMPI; STOP; JUMPDEST; STOP`.
fn self_masked_compare(k: usize) -> Vec<u8> {
    let mut code = vec![0x60, 0x00, 0x35];
    for _ in 0..k {
        code.extend([0x80, 0x16]);
    }
    let target = u8::try_from(code.len() + 10).expect("a one-byte jump target");
    code.extend([0x63, 0x12, 0x34, 0x56, 0x78, 0x14, 0x60, target, 0x57, 0x00]);
    code.extend([0x5b, 0x00]);
    code
}

/// Starting at pc `base`: `writes` × `PUSH1 1; PUSH1 0x80; MSTORE`, then
/// `forks` × `PUSH1 4; CALLDATALOAD; PUSH2 t; JUMPI; JUMPDEST` with each
/// `t` the `JUMPDEST` right after its `JUMPI`, then `STOP`.
fn fork_storm(base: usize, writes: usize, forks: usize) -> Vec<u8> {
    let mut code = Vec::new();
    for _ in 0..writes {
        code.extend([0x60, 0x01, 0x60, 0x80, 0x52]);
    }
    for _ in 0..forks {
        let [hi, lo] = u16::try_from(base + code.len() + 7)
            .expect("a two-byte jump target")
            .to_be_bytes();
        code.extend([0x60, 0x04, 0x35, 0x61, hi, lo, 0x57, 0x5b]);
    }
    code.push(0x00);
    code
}

/// Guarantee 7: bounded work on bodies crafted to blow up a walk or the
/// path worklist, under the campaign's deadline (which cuts exploration
/// only, never a walk). Adds four comparisons to `paths_checked`.
fn check_bounded_work(campaign: &AdversarialCampaign, report: &mut AdversarialReport) {
    let config = TaseConfig {
        max_wall_time: Some(campaign.deadline),
        ..TaseConfig::default()
    };
    let limit = campaign.deadline + campaign.deadline_slack;
    let bodies = [
        (
            "doubled-load-location",
            behind_dispatcher(|_| doubling_load(40)),
            1,
        ),
        ("self-masked-selector", self_masked_compare(40), 0),
        (
            "fork-storm-2700",
            behind_dispatcher(|at| fork_storm(at, 500, 2_700)),
            1,
        ),
        (
            "fork-storm-1700",
            behind_dispatcher(|at| fork_storm(at, 2_000, 1_700)),
            1,
        ),
    ];
    for (kind, code, functions) in bodies {
        let violation = |check: &str, detail: String| AdversarialViolation {
            kind,
            seed: 0,
            check: check.to_string(),
            detail,
        };
        let started = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| {
            let sigrec = SigRec::with_config(config).with_exec_stats();
            let outcome = sigrec.recover_cold_with_outcome(&code);
            (outcome, sigrec.exec_stats().expect("profiling enabled"))
        }));
        let elapsed = started.elapsed();
        let Ok((outcome, stats)) = run else {
            report.violations.push(violation(
                "no-panic",
                "panicked under bounded-work run".to_string(),
            ));
            continue;
        };
        report.paths_checked += 1;
        if elapsed > limit {
            report.violations.push(violation(
                "bounded-work",
                format!("recovery took {elapsed:?}, limit {limit:?}"),
            ));
        }
        let cap = config.max_paths as u64 + 1;
        if stats.exec.worklist_peak > cap {
            report.violations.push(violation(
                "bounded-work",
                format!(
                    "{} path states pending, cap {cap}",
                    stats.exec.worklist_peak
                ),
            ));
        }
        if outcome.functions.len() != functions {
            report.violations.push(violation(
                "bounded-work",
                format!(
                    "{} function(s) recovered, expected {functions}",
                    outcome.functions.len()
                ),
            ));
        }
    }
}

fn check_case(
    campaign: &AdversarialCampaign,
    case: &AdversarialCase,
    report: &mut AdversarialReport,
) {
    let violation = |check: &str, detail: String| AdversarialViolation {
        kind: case.kind.name(),
        seed: case.seed,
        check: check.to_string(),
        detail,
    };
    let tight = tight_config();
    let code = case.code.clone();

    // Guarantees 1–3: no panic, all-path agreement, outcome replay,
    // and populated diagnostics — all under deterministic budgets.
    let checked = catch_unwind(AssertUnwindSafe(|| {
        let reference = SigRec::with_config(tight).recover_cold_with_outcome(&code);
        let reference_digest = path_digest(&reference.functions);
        let mut mismatches: Vec<(String, String)> = Vec::new();
        let mut paths = 0usize;
        for (name, recovered) in execution_paths(&tight, &code) {
            paths += 1;
            let digest = path_digest(&recovered);
            if digest != reference_digest {
                mismatches.push((
                    name,
                    format!("expected {reference_digest:?}, got {digest:?}"),
                ));
            }
        }
        // Extra path: a warm repeat must replay the first call's full
        // outcome — functions and diagnostics.
        let warm = SigRec::with_config(tight);
        let first = warm.recover_with_outcome(&code);
        let second = warm.recover_with_outcome(&code);
        paths += 1;
        if path_digest(&second.functions) != path_digest(&first.functions)
            || second.diagnostics != first.diagnostics
        {
            mismatches.push((
                "recover-warm-outcome".to_string(),
                format!(
                    "cold diagnostics {:?}, warm replay {:?}",
                    first.diagnostics, second.diagnostics
                ),
            ));
        }
        // Final path: the per-rule inference reference on the same
        // hostile, budget-truncated facts must match the tree matcher's
        // digest exactly (rule lists included).
        let per_rule = SigRec::with_config(TaseConfig {
            infer_engine: InferEngine::PerRule,
            ..tight
        })
        .recover_cold(&code);
        paths += 1;
        if path_digest(&per_rule) != reference_digest {
            mismatches.push((
                "infer-perrule".to_string(),
                format!(
                    "expected {reference_digest:?}, got {:?}",
                    path_digest(&per_rule)
                ),
            ));
        }
        (reference, mismatches, paths)
    }));
    let reference = match checked {
        Ok((reference, mismatches, paths)) => {
            report.paths_checked += paths;
            for (path, detail) in mismatches {
                report
                    .violations
                    .push(violation(&format!("path-agreement[{path}]"), detail));
            }
            reference
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            report.violations.push(violation("no-panic", msg));
            return;
        }
    };
    if !reference.is_complete() {
        report.truncated_cases += 1;
    }

    // Guarantee 3: engineered truncations must be diagnosed, not silent.
    match case.kind {
        AdversarialKind::TruncatedPushTail => {
            let has_malformed = reference.diagnostics.iter().any(|d| {
                matches!(
                    d,
                    Diagnostic::MalformedCode(MalformedKind::TruncatedPush { .. })
                )
            });
            if !has_malformed {
                report.violations.push(violation(
                    "diagnostics-populated",
                    format!(
                        "truncated PUSH tail yielded no malformed-code diagnostic: {:?}",
                        reference.diagnostics
                    ),
                ));
            }
        }
        AdversarialKind::DeepLoop if reference.is_complete() => {
            report.violations.push(violation(
                "diagnostics-populated",
                format!(
                    "budget-exhausting loop reported a complete outcome: {:?}",
                    reference.diagnostics
                ),
            ));
        }
        // The 0-entry dispatcher + fallback-only degenerate: the
        // uncompared selector must not become a phantom function, and
        // the storage delegation must surface as a diagnostic — empty
        // with a diagnostic, never silently empty.
        AdversarialKind::SelectorCollisionTable if collision_is_fallback_only(case.seed) => {
            if !reference.functions.is_empty() {
                report.violations.push(violation(
                    "no-phantom-function",
                    format!(
                        "0-entry dispatcher recovered {} phantom function(s)",
                        reference.functions.len()
                    ),
                ));
            }
            let has_indirection = reference
                .diagnostics
                .iter()
                .any(|d| matches!(d, Diagnostic::UnresolvedIndirection { .. }));
            if !has_indirection {
                report.violations.push(violation(
                    "diagnostics-populated",
                    format!(
                        "fallback-only delegation left undiagnosed: {:?}",
                        reference.diagnostics
                    ),
                ));
            }
        }
        // A proxy cut off inside its PUSH20 target: the truncation must
        // be diagnosed and the zero-filled partial address must never be
        // reported as a resolved target.
        AdversarialKind::ProxyTruncatedTarget => {
            let has_malformed = reference.diagnostics.iter().any(|d| {
                matches!(
                    d,
                    Diagnostic::MalformedCode(MalformedKind::TruncatedPush { .. })
                )
            });
            if !has_malformed {
                report.violations.push(violation(
                    "diagnostics-populated",
                    format!(
                        "truncated proxy target yielded no malformed-code diagnostic: {:?}",
                        reference.diagnostics
                    ),
                ));
            }
            let fabricated = reference.diagnostics.iter().any(|d| {
                matches!(
                    d,
                    Diagnostic::UnresolvedIndirection {
                        target: DelegateTarget::Address(_),
                        ..
                    }
                )
            });
            if fabricated {
                report.violations.push(violation(
                    "no-fabricated-target",
                    "zero-filled partial address reported as a resolved target".to_string(),
                ));
            }
        }
        // A diamond whose facet address maps back to the router itself:
        // linked resolution must terminate and keep the indirection
        // diagnosed instead of splicing the router's own stub over it.
        AdversarialKind::DiamondCyclicRouting => {
            let mut links = LinkSet::new();
            links.insert(cyclic_target(case.seed), code.clone());
            let linked = catch_unwind(AssertUnwindSafe(|| {
                SigRec::with_config(tight).recover_linked_with_outcome(&code, &links)
            }));
            match linked {
                Ok(outcome) => {
                    report.paths_checked += 1;
                    let diagnosed = outcome
                        .diagnostics
                        .iter()
                        .any(|d| matches!(d, Diagnostic::UnresolvedIndirection { .. }));
                    if !diagnosed {
                        report.violations.push(violation(
                            "cycle-diagnosed",
                            format!(
                                "cyclic routing resolved silently: {:?}",
                                outcome.diagnostics
                            ),
                        ));
                    }
                    if outcome.functions.iter().any(|f| !f.params.is_empty()) {
                        report.violations.push(violation(
                            "no-phantom-function",
                            "cyclic router stub grew parameters".to_string(),
                        ));
                    }
                }
                Err(_) => {
                    report.violations.push(violation(
                        "no-panic",
                        "panicked resolving cyclic routing".to_string(),
                    ));
                }
            }
        }
        // A factory-deployed child: the unreachable constructor/metadata
        // tail must not change recovery in any way.
        AdversarialKind::FactoryChildConstructorTail => {
            let (core, _tail) = factory_child_parts(case.seed);
            let tailless = SigRec::with_config(tight).recover_cold_with_outcome(&core);
            report.paths_checked += 1;
            if path_digest(&tailless.functions) != path_digest(&reference.functions)
                || tailless.diagnostics != reference.diagnostics
            {
                report.violations.push(violation(
                    "tail-invariance",
                    format!(
                        "tail changed recovery: tail-less {:?}, tailed {:?}",
                        path_digest(&tailless.functions),
                        path_digest(&reference.functions)
                    ),
                ));
            }
        }
        _ => {}
    }

    // Guarantee 4: the wall-clock deadline is honoured (default budgets,
    // so only the deadline can be what cuts a DeepLoop short).
    let with_deadline = TaseConfig {
        max_wall_time: Some(campaign.deadline),
        ..TaseConfig::default()
    };
    let started = Instant::now();
    let timed = catch_unwind(AssertUnwindSafe(|| {
        SigRec::with_config(with_deadline).recover_cold_with_outcome(&code)
    }));
    let elapsed = started.elapsed();
    match timed {
        Ok(outcome) => {
            let limit = campaign.deadline + campaign.deadline_slack;
            if elapsed > limit {
                report.violations.push(violation(
                    "deadline-respected",
                    format!("recovery took {elapsed:?}, limit {limit:?}"),
                ));
            }
            let cut_on_time = outcome
                .diagnostics
                .iter()
                .any(|d| matches!(d, Diagnostic::BudgetExhausted { kind, .. } if *kind == BudgetKind::Deadline));
            if cut_on_time && outcome.is_complete() {
                report.violations.push(violation(
                    "deadline-respected",
                    "deadline cut recorded but outcome claims completeness".to_string(),
                ));
            }
        }
        Err(_) => {
            report.violations.push(violation(
                "no-panic",
                "panicked under deadline run".to_string(),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_green() {
        let report = run_adversarial(&AdversarialCampaign {
            cases: 20,
            ..AdversarialCampaign::default()
        });
        assert_eq!(report.cases, 20);
        assert!(report.is_green(), "{}", report.summary());
        // 10 paths per case (the five pipeline paths, the
        // persistent-store cold/warm-restart pair and `explain` on the
        // restarted handle, plus the warm-outcome replay and the per-rule
        // inference cross-check), plus one extra
        // linked-resolution path per cyclic-routing case and one
        // tail-less comparison per factory-child case (two of each in
        // two full rounds of the ten kinds), plus one recycled-scratch
        // comparison per case, two for the fork storms and three for the
        // crafted pairs, plus the five exact-identity comparisons and the
        // four bounded-work runs each campaign makes once.
        assert_eq!(report.paths_checked, 20 * 10 + 2 + 2 + (20 + 2 + 3) + 5 + 4);
        // The corpus contains engineered truncations; at least the two
        // DeepLoop cases must have been cut by budgets.
        assert!(report.truncated_cases >= 2, "{}", report.summary());
    }

    #[test]
    fn report_summary_mentions_violations() {
        let mut report = AdversarialReport::default();
        report.violations.push(AdversarialViolation {
            kind: "byte-soup",
            seed: 7,
            check: "no-panic".to_string(),
            detail: "boom".to_string(),
        });
        assert!(!report.is_green());
        assert!(report.summary().contains("no-panic"));
        assert!(report.summary().contains("byte-soup"));
    }
}
