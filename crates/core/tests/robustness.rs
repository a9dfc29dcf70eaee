//! Robustness guarantees: structured outcomes, budget diagnostics,
//! wall-clock deadlines, batch panic isolation, the caller as batch
//! worker 0, and symbolic memory at the top of the address space.
//!
//! The hostile contract used throughout is hand-assembled (not compiled):
//! a two-entry dispatcher whose first body is a well-behaved `uint256`
//! setter and whose second body fans out over symbolic forks into a
//! concrete spin loop — under a tight step budget the second function is
//! guaranteed to exhaust `max_total_steps` while the first stays clean.

use sigrec_core::exec::ForkMode;
use sigrec_core::{
    expr, recover_batch, BudgetKind, Diagnostic, RecoveryCache, SigRec, Tase, TaseConfig, Usage,
};
use sigrec_evm::{Assembler, Disassembly, Opcode, U256};
use sigrec_solc::{compile_single, CompilerConfig, FunctionSpec, Visibility};
use std::time::{Duration, Instant};

const GOOD_SELECTOR: u64 = 0x1111_2222;
const SPIN_SELECTOR: u64 = 0x3333_4444;

/// Dispatcher with two entries: `GOOD_SELECTOR` reads one calldata word
/// and stops; `SPIN_SELECTOR` forks on 8 symbolic conditions and then
/// spins a long concrete loop.
fn spin_contract() -> Vec<u8> {
    let mut asm = Assembler::new();
    let good = asm.fresh_label();
    let spin_body = asm.fresh_label();
    asm.push_u64(0)
        .op(Opcode::CallDataLoad)
        .push_u64(224)
        .op(Opcode::Shr);
    for (sel, label) in [(GOOD_SELECTOR, good), (SPIN_SELECTOR, spin_body)] {
        asm.op(Opcode::Dup(1))
            .push_sized(U256::from(sel), 4)
            .op(Opcode::Eq)
            .push_label(label)
            .op(Opcode::JumpI);
    }
    asm.op(Opcode::Stop);
    // Good body: load one argument word, use it, stop.
    asm.jumpdest(good)
        .push_u64(4)
        .op(Opcode::CallDataLoad)
        .op(Opcode::Pop)
        .op(Opcode::Stop);
    // Spin body: symbolic fork fan-out, then a concrete infinite loop.
    asm.jumpdest(spin_body);
    for i in 0..8u64 {
        let join = asm.fresh_label();
        asm.push_u64(4 + 32 * i)
            .op(Opcode::CallDataLoad)
            .push_label(join)
            .op(Opcode::JumpI)
            .jumpdest(join);
    }
    let spin = asm.fresh_label();
    asm.jumpdest(spin);
    for _ in 0..58 {
        asm.push_u64(0).op(Opcode::Pop);
    }
    asm.push_label(spin).op(Opcode::Jump);
    asm.assemble()
}

fn tight(mode: ForkMode) -> TaseConfig {
    TaseConfig {
        max_paths: 512,
        max_steps_per_path: 2_000,
        max_total_steps: 8_000,
        fork_mode: mode,
        ..TaseConfig::default()
    }
}

fn contract(decl: &str) -> Vec<u8> {
    compile_single(
        FunctionSpec::parse(decl, Visibility::External).expect("valid test declaration"),
        &CompilerConfig::default(),
    )
    .code
}

#[test]
fn total_step_exhaustion_is_partial_and_diagnosed_under_both_fork_modes() {
    let code = spin_contract();
    for mode in [ForkMode::CopyOnWrite, ForkMode::EagerClone] {
        let outcome = SigRec::with_config(tight(mode)).recover_cold_with_outcome(&code);
        // Both dispatcher entries are present — truncation is partial,
        // not fatal.
        assert_eq!(outcome.functions.len(), 2, "{mode:?}");
        assert!(!outcome.is_complete(), "{mode:?}");
        let spin = outcome
            .functions
            .iter()
            .find(|f| f.selector.as_u32() as u64 == SPIN_SELECTOR)
            .expect("spin entry recovered");
        assert!(
            spin.budgets.contains(&BudgetKind::TotalSteps),
            "{mode:?}: budgets were {:?}",
            spin.budgets
        );
        // The diagnostic names the same selector.
        assert!(
            outcome.diagnostics.iter().any(|d| matches!(
                d,
                Diagnostic::BudgetExhausted { selector, kind: BudgetKind::TotalSteps, .. }
                    if selector.as_u32() as u64 == SPIN_SELECTOR
            )),
            "{mode:?}: diagnostics were {:?}",
            outcome.diagnostics
        );
        // The well-behaved sibling carries no lossy budget.
        let good = outcome
            .functions
            .iter()
            .find(|f| f.selector.as_u32() as u64 == GOOD_SELECTOR)
            .expect("good entry recovered");
        assert!(
            good.budgets.iter().all(|b| !b.is_lossy()),
            "{mode:?}: good budgets were {:?}",
            good.budgets
        );
    }
}

#[test]
fn deadline_cuts_exploration_and_is_diagnosed_under_both_fork_modes() {
    let code = spin_contract();
    for mode in [ForkMode::CopyOnWrite, ForkMode::EagerClone] {
        // Effectively unlimited step budgets: the infinite concrete spin
        // loop means only the wall clock can end this exploration, so a
        // `Deadline` cut is guaranteed rather than racing the step caps.
        let config = TaseConfig {
            fork_mode: mode,
            max_steps_per_path: usize::MAX,
            max_total_steps: usize::MAX,
            max_wall_time: Some(Duration::from_millis(30)),
            ..TaseConfig::default()
        };
        let started = Instant::now();
        let outcome = SigRec::with_config(config).recover_cold_with_outcome(&code);
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "{mode:?}: deadline ignored, ran {elapsed:?}"
        );
        assert_eq!(outcome.functions.len(), 2, "{mode:?}");
        assert!(
            outcome.diagnostics.iter().any(|d| matches!(
                d,
                Diagnostic::BudgetExhausted {
                    kind: BudgetKind::Deadline,
                    ..
                }
            )),
            "{mode:?}: diagnostics were {:?}",
            outcome.diagnostics
        );
        assert!(!outcome.is_complete(), "{mode:?}");
    }
}

#[test]
fn deadline_truncated_results_are_never_memoised() {
    let code = spin_contract();
    let config = TaseConfig {
        max_steps_per_path: usize::MAX,
        max_total_steps: usize::MAX,
        max_wall_time: Some(Duration::from_millis(10)),
        ..TaseConfig::default()
    };
    let sigrec = SigRec::with_config(config);
    let first = sigrec.recover_with_outcome(&code);
    assert!(
        first.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::BudgetExhausted {
                kind: BudgetKind::Deadline,
                ..
            }
        )),
        "expected a deadline cut, got {:?}",
        first.diagnostics
    );
    // Nothing was stored at either cache level for this contract.
    assert_eq!(sigrec.cache_stats().contract_hits, 0);
    let again = sigrec.recover_with_outcome(&code);
    assert_eq!(
        sigrec.cache_stats().contract_hits,
        0,
        "{:?}",
        again.diagnostics
    );
}

#[test]
fn warm_outcome_replays_cold_outcome_including_budgets() {
    let code = spin_contract();
    let sigrec = SigRec::with_config(tight(ForkMode::CopyOnWrite));
    let cold = sigrec.recover_with_outcome(&code);
    let warm = sigrec.recover_with_outcome(&code);
    assert!(sigrec.cache_stats().contract_hits >= 1);
    assert_eq!(cold.diagnostics, warm.diagnostics);
    assert_eq!(cold.functions.len(), warm.functions.len());
    for (c, w) in cold.functions.iter().zip(&warm.functions) {
        assert_eq!(c.selector, w.selector);
        assert_eq!(c.params, w.params);
        assert_eq!(c.budgets, w.budgets);
    }
}

#[test]
fn pathological_contract_does_not_poison_a_64_contract_batch() {
    let decls = [
        "a(uint8)",
        "b(bool)",
        "c(address)",
        "d(uint16)",
        "e(bytes4)",
        "g(uint256)",
        "h(int256)",
    ];
    let mut codes: Vec<Vec<u8>> = (0..63).map(|i| contract(decls[i % decls.len()])).collect();
    codes.insert(31, spin_contract());
    let result = recover_batch(
        &SigRec::with_config(tight(ForkMode::CopyOnWrite)),
        &codes,
        4,
    );
    assert_eq!(result.items.len(), 64);
    for item in &result.items {
        if item.index == 31 {
            assert_eq!(item.functions.len(), 2);
            assert!(
                item.diagnostics.iter().any(Diagnostic::is_lossy),
                "pathological contract must carry a lossy diagnostic: {:?}",
                item.diagnostics
            );
        } else {
            assert_eq!(item.functions.len(), 1, "contract #{}", item.index);
            assert!(
                item.diagnostics.iter().all(|d| !d.is_lossy()),
                "contract #{} was contaminated: {:?}",
                item.index,
                item.diagnostics
            );
        }
    }
}

#[test]
fn worker_panic_is_isolated_to_its_contract() {
    let victim = contract("victim(uint8,bool)");
    let bystanders = vec![contract("x(uint256)"), contract("y(address)")];
    let victim_selector = SigRec::new().recover_cold(&victim)[0].selector;
    let config = TaseConfig {
        panic_on_selector: Some(victim_selector.as_u32()),
        ..TaseConfig::default()
    };
    let mut codes = bystanders;
    codes.insert(1, victim);
    // One worker runs the batch on the calling thread alone; at two and
    // four, spawned workers claim contracts off the shared cursor
    // alongside it.
    for workers in [1, 2, 4] {
        let cache = RecoveryCache::new();
        // Silence the default panic printer for the injected panic;
        // restore it afterwards so genuine failures still report.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = recover_batch(
            &SigRec::with_config(config).with_cache(cache.clone()),
            &codes,
            workers,
        );
        std::panic::set_hook(hook);
        assert_eq!(result.items.len(), 3, "workers={workers}");
        for item in &result.items {
            if item.index == 1 {
                // The panicked entry is missing; the contract survives
                // with an internal-error diagnostic.
                assert!(item.functions.is_empty(), "workers={workers}");
                assert!(
                    item.diagnostics
                        .iter()
                        .any(|d| matches!(d, Diagnostic::InternalError { context } if context.contains("panicked"))),
                    "workers={workers}: {:?}",
                    item.diagnostics
                );
            } else {
                assert_eq!(item.functions.len(), 1, "workers={workers} #{}", item.index);
                assert!(
                    item.diagnostics.is_empty(),
                    "workers={workers} #{}",
                    item.index
                );
            }
        }
        // A poisoned contract is never sealed: the batch's own cache
        // holds the two bystanders only.
        assert_eq!(cache.contract_count(), 2, "workers={workers}");
    }
}

#[test]
fn batches_run_on_the_caller_like_a_recover_loop() {
    let code = contract("transfer(address,uint256)");
    let codes = vec![
        code.clone(),
        spin_contract(),
        contract("sum(uint256[])"),
        vec![0x00],
        code,
    ];
    let config = tight(ForkMode::CopyOnWrite);
    for workers in [1, 2] {
        // Warm this thread's interner, so that an empty table after the
        // batch shows the batch cleared it.
        SigRec::new().recover_cold(&codes[2]);
        assert!(expr::interner_len() > 0, "workers={workers}");
        let before = expr::interner_stats();
        let batch = recover_batch(&SigRec::with_config(config), &codes, workers);
        // The caller is worker 0, and its interner is cleared on return,
        // as a spawned worker's is dropped with its thread.
        assert_eq!(expr::interner_len(), 0, "workers={workers}");
        if workers == 1 {
            // Every claim ran on this thread: its interner saw the
            // batch's lookups. A batch run on a spawned thread leaves
            // this thread's counters where they were.
            let after = expr::interner_stats();
            assert!(
                after.hits + after.misses > before.hits + before.misses,
                "a one-worker batch ran off the calling thread"
            );
        }
        let serial = SigRec::with_config(config);
        assert_eq!(batch.items.len(), codes.len());
        for (item, code) in batch.items.iter().zip(&codes) {
            let want = serial.recover_with_outcome(code);
            let at = format!("workers={workers} #{}", item.index);
            assert_eq!(*item.diagnostics, want.diagnostics, "{at}");
            assert_eq!(item.functions.len(), want.functions.len(), "{at}");
            for (got, want) in item.functions.iter().zip(&want.functions) {
                assert_eq!(got.selector, want.selector, "{at}");
                assert_eq!(got.entry, want.entry, "{at}");
                assert_eq!(got.params, want.params, "{at}");
                assert_eq!(got.language, want.language, "{at}");
                assert_eq!(got.rules, want.rules, "{at}");
                assert_eq!(got.budgets, want.budgets, "{at}");
                assert_eq!(got.delegate, want.delegate, "{at}");
            }
        }
    }
}

/// `PUSH1 0; PUSH8 0xff…ff; MSTORE; PUSH8 0xff…e0; MLOAD; POP; STOP`: a
/// store at the last address, then a read whose window it overlaps.
const TOP_STORE_THEN_OVERLAPPING_LOAD: [u8; 24] = [
    0x60, 0x00, 0x67, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x52, 0x67, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xe0, 0x51, 0x50, 0x00,
];

/// `PUSH8 0xff…ff; PUSH1 4; PUSH1 0x80; CALLDATACOPY; PUSH1 0xa0; MLOAD;
/// POP; STOP`: a copy of length `u64::MAX`, then a read inside it.
const MAX_LENGTH_COPY_THEN_LOAD: [u8; 19] = [
    0x67, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x60, 0x04, 0x60, 0x80, 0x37, 0x60, 0xa0,
    0x51, 0x50, 0x00,
];

#[test]
fn memory_addresses_near_u64_max_never_overflow() {
    for code in [
        &TOP_STORE_THEN_OVERLAPPING_LOAD[..],
        &MAX_LENGTH_COPY_THEN_LOAD[..],
    ] {
        let disasm = Disassembly::new(code);
        let facts = Tase::new(&disasm, TaseConfig::default()).explore(0);
        assert!(facts.paths_explored >= 1, "{code:02x?}");
        SigRec::new().recover_cold(code);
    }
    // The read inside the max-length copy is the calldata word it maps
    // to: with `PUSH1 0xff; AND` in place of the `POP`, the mask lands on
    // `cd[0x24]` instead of on a free symbol.
    let mut masked = MAX_LENGTH_COPY_THEN_LOAD[..17].to_vec();
    masked.extend([0x60, 0xff, 0x16, 0x50, 0x00]);
    let disasm = Disassembly::new(&masked);
    let facts = Tase::new(&disasm, TaseConfig::default()).explore(0);
    let mask = facts
        .uses
        .iter()
        .find(|u| u.usage == Usage::MaskAnd(U256::from(0xffu64)))
        .expect("mask use on the copied word");
    assert_eq!(mask.keys, vec!["0x24".to_string()]);
}
