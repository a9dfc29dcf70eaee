//! Robustness guarantees: structured outcomes, budget diagnostics,
//! wall-clock deadlines, batch panic isolation, the caller as batch
//! worker 0, symbolic memory at the top of the address space, exact
//! expression identity for crafted constants, and bounded work on
//! crafted bodies (deeply shared expressions, fork storms, stack
//! overflow).
//!
//! The hostile contract used throughout is hand-assembled (not compiled):
//! a two-entry dispatcher whose first body is a well-behaved `uint256`
//! setter and whose second body fans out over symbolic forks into a
//! concrete spin loop — under a tight step budget the second function is
//! guaranteed to exhaust `max_total_steps` while the first stays clean.

use sigrec_abi::{AbiType, Selector};
use sigrec_core::{
    extract_dispatch, infer_with, recover_batch, BudgetKind, Diagnostic, InferEngine,
    RecoveryCache, SigRec, Tase, TaseConfig, Usage,
};
use sigrec_evm::{Assembler, Disassembly, Opcode, U256};
use sigrec_solc::{compile_single, CompilerConfig, FunctionSpec, Visibility};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The panic hook is process-global: tests that swap it take this lock,
/// so one test's hook never sees (or silences) another test's panics.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the default panic printer silenced and returns the
/// thread of every panic injected on `selector` meanwhile (through
/// `TaseConfig::panic_on_selector`), in order.
fn injected_panic_threads(selector: Selector, f: impl FnOnce()) -> Vec<ThreadId> {
    let _serial = HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let needle = format!("injected panic on selector {selector}");
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.to_string().contains(&needle) {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(std::thread::current().id());
        }
    }));
    f();
    std::panic::set_hook(hook);
    let threads = seen.lock().unwrap_or_else(PoisonError::into_inner).clone();
    threads
}

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

fn tight() -> TaseConfig {
    TaseConfig {
        max_paths: 512,
        max_steps_per_path: 2_000,
        max_total_steps: 8_000,
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
fn total_step_exhaustion_is_partial_and_diagnosed() {
    let code = spin_contract();
    let outcome = SigRec::with_config(tight()).recover_cold_with_outcome(&code);
    // Both dispatcher entries are present — truncation is partial, not
    // fatal.
    assert_eq!(outcome.functions.len(), 2);
    assert!(!outcome.is_complete());
    let spin = outcome
        .functions
        .iter()
        .find(|f| f.selector.as_u32() as u64 == SPIN_SELECTOR)
        .expect("spin entry recovered");
    assert!(
        spin.budgets.contains(&BudgetKind::TotalSteps),
        "budgets were {:?}",
        spin.budgets
    );
    // The diagnostic names the same selector.
    assert!(
        outcome.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::BudgetExhausted { selector, kind: BudgetKind::TotalSteps, .. }
                if selector.as_u32() as u64 == SPIN_SELECTOR
        )),
        "diagnostics were {:?}",
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
        "good budgets were {:?}",
        good.budgets
    );
}

#[test]
fn deadline_cuts_exploration_and_is_diagnosed() {
    let code = spin_contract();
    // Effectively unlimited step budgets: the infinite concrete spin loop
    // means only the wall clock can end this exploration, so a
    // `Deadline` cut is guaranteed rather than racing the step caps.
    let config = TaseConfig {
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
        "deadline ignored, ran {elapsed:?}"
    );
    assert_eq!(outcome.functions.len(), 2);
    assert!(
        outcome.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::BudgetExhausted {
                kind: BudgetKind::Deadline,
                ..
            }
        )),
        "diagnostics were {:?}",
        outcome.diagnostics
    );
    assert!(!outcome.is_complete());
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
    let sigrec = SigRec::with_config(tight());
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
    let result = recover_batch(&SigRec::with_config(tight()), &codes, 4);
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
        // The default panic printer stays silent for the injected panic,
        // and is restored afterwards so genuine failures still report.
        let mut result = None;
        let threads = injected_panic_threads(victim_selector, || {
            result = Some(recover_batch(
                &SigRec::with_config(config).with_cache(cache.clone()),
                &codes,
                workers,
            ));
        });
        assert_eq!(threads.len(), 1, "workers={workers}");
        let result = result.expect("the batch returned");
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
    let config = tight();
    // The caller is worker 0: a one-worker batch recovers every contract
    // on the calling thread. An injected panic in one contract's function
    // names the thread that recovered it.
    let victim = SigRec::new().recover_cold(&codes[0])[0].selector;
    let poisoned = SigRec::with_config(TaseConfig {
        panic_on_selector: Some(victim.as_u32()),
        ..config
    });
    let threads = injected_panic_threads(victim, || {
        recover_batch(&poisoned, &codes, 1);
    });
    assert_eq!(
        threads,
        vec![std::thread::current().id()],
        "a one-worker batch ran off the calling thread"
    );
    for workers in [1, 2] {
        let batch = recover_batch(&SigRec::with_config(config), &codes, workers);
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
    let keys: Vec<_> = mask.keys.iter().map(|&k| facts.arena.as_const(k)).collect();
    assert_eq!(keys, vec![Some(U256::from(0x24u64))]);
}

/// `PUSH1 0x20; POP; PUSH32 c; CALLDATALOAD; PUSH1 0xff; AND; POP; STOP`,
/// where `c` was crafted to collide with `0x20` under the 64-bit
/// structural hash that once identified expressions: an exploration that
/// has seen `0x20` must still load, and mask, the word at `c`.
const CRAFTED_CONSTANT_LOAD: [u8; 42] = [
    0x60, 0x20, 0x50, 0x7f, 0x7a, 0x07, 0x3c, 0x43, 0x33, 0xc7, 0x60, 0x54, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x40, 0x35, 0x60, 0xff, 0x16, 0x50, 0x00,
];

#[test]
fn a_crafted_constant_is_loaded_where_it_points() {
    let crafted = U256::from_be_bytes(&CRAFTED_CONSTANT_LOAD[4..36]);
    assert_eq!(
        crafted,
        U256::from_hex("7a073c4333c76054000000000000000000000000000000000000000000000040").unwrap()
    );
    let disasm = Disassembly::new(&CRAFTED_CONSTANT_LOAD);
    let facts = Tase::new(&disasm, TaseConfig::default()).explore(0);
    assert_eq!(facts.loads.len(), 1);
    let loc = facts.loads[0].loc;
    assert_eq!(facts.arena.eval(loc), Some(crafted));
    let mask = facts
        .uses
        .iter()
        .find(|u| u.usage == Usage::MaskAnd(U256::from(0xffu64)))
        .expect("mask use on the loaded word");
    assert_eq!(
        mask.keys,
        vec![loc],
        "the mask is keyed to the crafted location"
    );
}

/// `PUSH1 4; CALLDATALOAD; (DUP1; ADD) × k; CALLDATALOAD; PUSH1 0xff;
/// AND; POP; STOP`: the second load's location doubles `cd[4]` k times,
/// a DAG of k + 3 nodes whose tree has 2^k leaves.
fn doubling_load(k: usize) -> Vec<u8> {
    let mut code = vec![0x60, 0x04, 0x35];
    for _ in 0..k {
        code.extend([0x80, 0x01]);
    }
    code.extend([0x35, 0x60, 0xff, 0x16, 0x50, 0x00]);
    code
}

/// `PUSH1 0; CALLDATALOAD; prefix; (DUP1; AND) × k; PUSH4 0x12345678;
/// EQ; PUSH1 t; JUMPI; STOP; JUMPDEST; STOP`: a dispatcher compare on a
/// word masked by itself k times.
fn self_masked_compare(prefix: &[u8], k: usize) -> Vec<u8> {
    let mut code = vec![0x60, 0x00, 0x35];
    code.extend(prefix);
    for _ in 0..k {
        code.extend([0x80, 0x16]);
    }
    let target = u8::try_from(code.len() + 10).expect("a one-byte jump target");
    code.extend([0x63, 0x12, 0x34, 0x56, 0x78, 0x14, 0x60, target, 0x57, 0x00]);
    code.extend([0x5b, 0x00]);
    code
}

/// The ceiling a linear walk over a 60-byte body stays far under, and a
/// walk over the 2^28-leaf tree (seconds, even optimised) exceeds.
const LINEAR_WORK: Duration = Duration::from_secs(1);

#[test]
fn inference_walks_each_shared_node_once() {
    let code = doubling_load(28);
    let facts = Tase::new(&Disassembly::new(&code), TaseConfig::default()).explore(0);
    assert_eq!(facts.loads.len(), 2);
    for engine in [InferEngine::Tree, InferEngine::PerRule] {
        let started = Instant::now();
        let params = infer_with(&facts, engine).params;
        let elapsed = started.elapsed();
        assert!(
            elapsed < LINEAR_WORK,
            "{engine:?} inference took {elapsed:?}"
        );
        assert_eq!(
            params,
            vec![AbiType::Tuple(vec![AbiType::Uint(8)])],
            "{engine:?}"
        );
    }
}

#[test]
fn the_dispatcher_walk_visits_each_mask_once() {
    // `cd[0]` masked by itself is no selector: nothing is extracted.
    let started = Instant::now();
    let table = extract_dispatch(&Disassembly::new(&self_masked_compare(&[], 28)));
    let elapsed = started.elapsed();
    assert!(elapsed < LINEAR_WORK, "extraction took {elapsed:?}");
    assert!(table.is_empty(), "{table:?}");
    // `cd[0] >> 224` masked by itself still is one.
    let shifted = self_masked_compare(&[0x60, 0xe0, 0x1c], 28);
    let table = extract_dispatch(&Disassembly::new(&shifted));
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].selector.as_u32(), 0x1234_5678);
}

/// `writes` × `PUSH1 1; PUSH1 0x80; MSTORE`, then `forks` × `PUSH1 4;
/// CALLDATALOAD; PUSH2 t; JUMPI; JUMPDEST` where each `t` is the
/// `JUMPDEST` right after its `JUMPI`, then `STOP`. Every `JUMPI` forks,
/// so the first path alone leaves `forks` states pending.
fn fork_storm(writes: usize, forks: usize) -> Vec<u8> {
    let mut code = Vec::new();
    for _ in 0..writes {
        code.extend([0x60, 0x01, 0x60, 0x80, 0x52]);
    }
    for _ in 0..forks {
        let [hi, lo] = u16::try_from(code.len() + 7)
            .expect("a two-byte jump target")
            .to_be_bytes();
        code.extend([0x60, 0x04, 0x35, 0x61, hi, lo, 0x57, 0x5b]);
    }
    code.push(0x00);
    code
}

#[test]
fn fork_storms_keep_only_the_states_that_can_run() {
    let config = TaseConfig {
        collect_stats: true,
        ..TaseConfig::default()
    };
    // Steps and forks as an unbounded worklist explores them.
    for (writes, forks, steps, forks_taken) in
        [(500, 2_700, 18_533, 3_202), (2_000, 1_700, 18_033, 2_202)]
    {
        let code = fork_storm(writes, forks);
        let (facts, stats) = Tase::new(&Disassembly::new(&code), config).explore_stats(0);
        assert_eq!(
            (stats.paths, stats.steps, stats.forks),
            (512, steps, forks_taken),
            "{writes} writes, {forks} forks"
        );
        assert_eq!(facts.paths_explored, 512);
        assert_eq!(facts.budgets, vec![BudgetKind::Paths]);
        // The running state, at most `max_paths − 1` pending ones, and
        // the one being forked.
        assert!(
            stats.worklist_peak <= config.max_paths as u64 + 1,
            "{} states pending",
            stats.worklist_peak
        );
    }
}

#[test]
fn a_path_budget_that_runs_out_after_a_drop_is_recorded() {
    // A path cap the storm's pending states outgrow: the dropped states
    // are reported as a `Paths` cut, exactly as leaving them pending was.
    for max_paths in [0, 1, 2, 7] {
        let config = TaseConfig {
            max_paths,
            ..TaseConfig::default()
        };
        let facts = Tase::new(&Disassembly::new(&fork_storm(0, 8)), config).explore(0);
        assert_eq!(facts.paths_explored, max_paths);
        assert_eq!(
            facts.budgets,
            vec![BudgetKind::Paths],
            "max_paths {max_paths}"
        );
    }
    // A storm that fits the cap explores every path and cuts nothing.
    let facts = Tase::new(&Disassembly::new(&fork_storm(0, 3)), TaseConfig::default()).explore(0);
    assert_eq!(facts.paths_explored, 8);
    assert!(facts.budgets.is_empty(), "{:?}", facts.budgets);
}

/// A one-entry contract whose body pushes `depth` constants onto the
/// residue the dispatcher leaves, then masks `calldataload(4)`: its
/// stack peaks at `depth + 3` entries.
fn deep_stack_contract(depth: usize) -> Vec<u8> {
    let mut asm = Assembler::new();
    let body = asm.fresh_label();
    asm.push_u64(0).op(Opcode::CallDataLoad);
    asm.push_u64(0xe0).op(Opcode::Shr);
    asm.op(Opcode::Dup(1));
    asm.push_sized(U256::from(0x0bad_5eedu64), 4);
    asm.op(Opcode::Eq);
    asm.push_label(body).op(Opcode::JumpI);
    asm.op(Opcode::Pop).op(Opcode::Stop);
    asm.jumpdest(body);
    for _ in 0..depth {
        asm.push_u64(1);
    }
    asm.push_u64(0xff);
    asm.push_u64(4).op(Opcode::CallDataLoad);
    asm.op(Opcode::And).op(Opcode::Pop).op(Opcode::Stop);
    asm.assemble()
}

#[test]
fn a_push_past_1024_entries_ends_the_path() {
    // A stack of exactly 1 024 entries is legal and recovers.
    let full = SigRec::new().recover_cold(&deep_stack_contract(1_021));
    assert_eq!(full[0].params, vec![AbiType::Uint(8)]);
    // One more entry overflows before the load: the path ends there,
    // without a panic and without a budget cut.
    let outcome = SigRec::new().recover_cold_with_outcome(&deep_stack_contract(1_022));
    assert_eq!(outcome.functions.len(), 1);
    assert!(outcome.functions[0].params.is_empty());
    assert!(outcome.is_complete(), "{:?}", outcome.diagnostics);
}
