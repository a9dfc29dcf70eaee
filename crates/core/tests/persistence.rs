//! Persistent-store guarantees: warm-restart round trips, the no-seal
//! rules extended to disk (deadline cuts and panic-poisoned results
//! never reach a segment), linked-recovery cache-key purity across the
//! persistence boundary, and torn-write crash recovery.

use sigrec_abi::{AbiType, FunctionSignature, Selector};
use sigrec_core::{
    recover_batch, BudgetKind, Diagnostic, Language, PersistentStore, RecoveredFunction,
    RecoveryCache, RuleId, SigRec, StoreDiagnostic, TaseConfig,
};
use sigrec_core::{DelegateTarget, LinkSet};
use sigrec_evm::{keccak256, Assembler, Opcode, U256};
use sigrec_solc::{compile, compile_single, CompilerConfig, FunctionSpec, Visibility};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "sigrec-persist-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn spec(decl: &str) -> FunctionSpec {
    FunctionSpec::new(
        FunctionSignature::parse(decl).unwrap(),
        Visibility::External,
    )
}

fn assert_same(a: &[RecoveredFunction], b: &[RecoveredFunction]) {
    assert_eq!(a.len(), b.len(), "function count differs");
    for (fa, fb) in a.iter().zip(b) {
        assert_eq!(fa.selector, fb.selector);
        assert_eq!(fa.params, fb.params, "params differ for {:?}", fa.selector);
        assert_eq!(fa.language, fb.language);
        assert_eq!(fa.rules, fb.rules);
        assert_eq!(fa.budgets, fb.budgets);
        assert_eq!(fa.delegate, fb.delegate);
    }
}

#[test]
fn warm_restart_replays_identical_results_from_disk() {
    let dir = scratch("warm");
    let contract = compile(
        &[
            spec("transfer(address,uint256)"),
            spec("setData(bytes,uint256[])"),
        ],
        &CompilerConfig::default(),
    );
    let cold = {
        let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(
            PersistentStore::open(&dir).unwrap(),
        ));
        let outcome = sigrec.recover_with_outcome(&contract.code);
        sigrec.flush_store().unwrap();
        outcome
    };
    assert_eq!(cold.functions.len(), 2);

    // A fresh process: empty memory cache, same directory.
    let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(
        PersistentStore::open(&dir).unwrap(),
    ));
    let warm = sigrec.recover_with_outcome(&contract.code);
    assert_same(&cold.functions, &warm.functions);
    assert_eq!(cold.diagnostics, warm.diagnostics);
    let stats = sigrec.cache_stats();
    assert_eq!(stats.disk_hits, 1, "warm run must be served from disk");
    assert_eq!(stats.contract_hits, 1);
    let store = sigrec.store_stats().unwrap();
    assert_eq!(store.disk_hits, 1);
    assert!(store.bytes_read > 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Two-entry dispatcher whose second body spins forever: only a
/// deadline (or deterministic step budgets) can end its exploration.
/// Mirrors the hostile contract in `robustness.rs`.
fn spin_contract() -> Vec<u8> {
    let mut asm = Assembler::new();
    let good = asm.fresh_label();
    let spin_body = asm.fresh_label();
    asm.push_u64(0)
        .op(Opcode::CallDataLoad)
        .push_u64(224)
        .op(Opcode::Shr);
    for (sel, label) in [(0x1111_2222u64, good), (0x3333_4444, spin_body)] {
        asm.op(Opcode::Dup(1))
            .push_sized(U256::from(sel), 4)
            .op(Opcode::Eq)
            .push_label(label)
            .op(Opcode::JumpI);
    }
    asm.op(Opcode::Stop);
    asm.jumpdest(good)
        .push_u64(4)
        .op(Opcode::CallDataLoad)
        .op(Opcode::Pop)
        .op(Opcode::Stop);
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

/// Satellite regression: a deadline-truncated recovery must never be
/// written to a segment. A later run over the warm store sees a disk
/// miss and performs a fresh recovery, which (under deterministic
/// budgets) then seals normally.
#[test]
fn deadline_cut_results_never_reach_disk() {
    let dir = scratch("deadline");
    let code = spin_contract();
    let key = keccak256(&code);
    {
        let config = TaseConfig {
            max_steps_per_path: usize::MAX,
            max_total_steps: usize::MAX,
            max_wall_time: Some(Duration::from_millis(10)),
            ..TaseConfig::default()
        };
        let sigrec = SigRec::with_config(config).with_cache(RecoveryCache::persistent(
            PersistentStore::open(&dir).unwrap(),
        ));
        let outcome = sigrec.recover_with_outcome(&code);
        assert!(
            outcome.diagnostics.iter().any(|d| matches!(
                d,
                Diagnostic::BudgetExhausted {
                    kind: BudgetKind::Deadline,
                    ..
                }
            )),
            "expected a deadline cut, got {:?}",
            outcome.diagnostics
        );
        let store = sigrec.store_stats().unwrap();
        assert_eq!(
            store.records_appended, 0,
            "deadline-truncated result was persisted"
        );
        sigrec.flush_store().unwrap();
    }

    // Simulated restart with sane (deterministic) budgets: the key must
    // be a disk miss, recovered fresh, and only then sealed to disk.
    let config = TaseConfig {
        max_paths: 512,
        max_steps_per_path: 2_000,
        max_total_steps: 8_000,
        ..TaseConfig::default()
    };
    let store = PersistentStore::open(&dir).unwrap();
    assert!(
        store.lookup(&key).is_none(),
        "disk has a record for the cut"
    );
    let sigrec = SigRec::with_config(config).with_cache(RecoveryCache::persistent(store));
    let outcome = sigrec.recover_with_outcome(&code);
    assert_eq!(outcome.functions.len(), 2);
    assert!(
        !outcome.diagnostics.iter().any(|d| matches!(
            d,
            Diagnostic::BudgetExhausted {
                kind: BudgetKind::Deadline,
                ..
            }
        )),
        "fresh recovery must not be deadline-cut"
    );
    let stats = sigrec.cache_stats();
    assert!(stats.disk_misses >= 1, "expected a disk miss, {stats:?}");
    assert_eq!(stats.disk_hits, 0);
    let store = sigrec.store_stats().unwrap();
    assert_eq!(
        store.records_appended, 1,
        "deterministic-budget result should seal to disk"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The 45-byte EIP-1167 minimal-proxy runtime for `addr`.
fn eip1167(addr: [u8; 20]) -> Vec<u8> {
    let mut code = Vec::with_capacity(45);
    code.extend_from_slice(&[0x36, 0x3d, 0x3d, 0x37, 0x3d, 0x3d, 0x3d, 0x36, 0x3d, 0x73]);
    code.extend_from_slice(&addr);
    code.extend_from_slice(&[
        0x5a, 0xf4, 0x3d, 0x82, 0x80, 0x3e, 0x90, 0x3d, 0x91, 0x60, 0x2b, 0x57, 0xfd, 0x5b, 0xf3,
    ]);
    code
}

/// Satellite regression: `recover_linked` splices the implementation's
/// signatures into the proxy's *result*, but the store must only ever
/// hold each contract's direct recovery under its own key. After a
/// restart, the proxy key reads back as the unresolved router, not as
/// the implementation's signatures.
#[test]
fn linked_results_are_never_persisted_under_the_proxy_key() {
    let dir = scratch("purity");
    let implementation = compile_single(
        spec("transfer(address,uint256)"),
        &CompilerConfig::default(),
    );
    let addr = [0x5au8; 20];
    let proxy = eip1167(addr);
    let proxy_key = keccak256(&proxy);
    let impl_key = keccak256(&implementation.code);
    let mut links = LinkSet::new();
    links.insert(addr, implementation.code.clone());

    let resolved = {
        let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(
            PersistentStore::open(&dir).unwrap(),
        ));
        let resolved = sigrec.recover_linked_with_outcome(&proxy, &links);
        sigrec.flush_store().unwrap();
        resolved
    };
    // The spliced view resolves transfer(address,uint256) through the
    // proxy...
    assert_eq!(resolved.functions.len(), 1);
    assert_eq!(
        resolved.functions[0].params,
        vec![AbiType::Address, AbiType::Uint(256)]
    );

    // ...but on disk the proxy key holds only the direct recovery: an
    // empty function list plus the unresolved-indirection diagnostic.
    let store = PersistentStore::open(&dir).unwrap();
    let (proxy_funcs, proxy_diags) = store
        .lookup(&proxy_key)
        .expect("proxy's direct recovery persisted");
    assert!(
        proxy_funcs.is_empty(),
        "proxy key must not hold spliced functions: {proxy_funcs:?}"
    );
    assert!(
        proxy_diags.iter().any(|d| matches!(
            d,
            Diagnostic::UnresolvedIndirection {
                selector: None,
                target: DelegateTarget::Address(a),
            } if *a == addr
        )),
        "proxy record must carry the unresolved forwarder: {proxy_diags:?}"
    );
    // The implementation's signatures live under the implementation's
    // own key.
    let (impl_funcs, _) = store
        .lookup(&impl_key)
        .expect("implementation persisted under its own key");
    assert_eq!(impl_funcs.len(), 1);
    assert_eq!(
        impl_funcs[0].params,
        vec![AbiType::Address, AbiType::Uint(256)]
    );

    // A warm restart resolves the link again — both halves served from
    // disk — and reproduces the cold spliced result exactly.
    let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(store));
    let warm = sigrec.recover_linked_with_outcome(&proxy, &links);
    assert_same(&resolved.functions, &warm.functions);
    assert_eq!(resolved.diagnostics, warm.diagnostics);
    assert!(sigrec.store_stats().unwrap().disk_hits >= 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reads the segment's record framing the same way the store does, so
/// the fault injectors can find each record's byte range.
fn record_spans(segment: &[u8]) -> Vec<(usize, usize)> {
    let mut pos = 8; // segment magic
    let mut spans = Vec::new();
    while pos < segment.len() {
        let len = u32::from_le_bytes(segment[pos + 32..pos + 36].try_into().unwrap()) as usize;
        let end = pos + 32 + 4 + 8 + len;
        spans.push((pos, end));
        pos = end;
    }
    assert_eq!(pos, segment.len(), "test segment must be clean");
    spans
}

fn last_record_span(segment: &[u8]) -> (usize, usize) {
    *record_spans(segment)
        .last()
        .expect("segment holds a record")
}

fn copy_store(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn synthetic_function(selector: u32) -> RecoveredFunction {
    RecoveredFunction {
        selector: Selector::from_u32(selector),
        entry: 0x40,
        params: vec![
            AbiType::Address,
            AbiType::DynArray(Box::new(AbiType::Uint(256))),
        ],
        language: Language::Solidity,
        rules: vec![RuleId::ALL[0]],
        budgets: Vec::new(),
        elapsed: Duration::from_micros(5),
        delegate: None,
    }
}

/// Satellite regression: crash mid-append. Truncating the segment at
/// *every* byte boundary of the final record must leave a store that
/// opens cleanly, serves every earlier record, reports the torn tail as
/// a structured diagnostic, and accepts fresh appends at the recovered
/// boundary.
#[test]
fn torn_final_record_is_recovered_at_every_byte_boundary() {
    let template = scratch("torn-template");
    let keys: Vec<[u8; 32]> = (1..=3u8).map(|i| [i; 32]).collect();
    {
        let store = PersistentStore::open(&template).unwrap();
        for (i, key) in keys.iter().enumerate() {
            store
                .append(*key, &[synthetic_function(i as u32 + 1)], &[])
                .unwrap();
        }
        store.flush().unwrap();
    }
    let seg_path = template.join("seg-00000.sigseg");
    let segment = std::fs::read(&seg_path).unwrap();
    let (last_start, last_end) = last_record_span(&segment);
    assert_eq!(last_end, segment.len());

    for cut in last_start..last_end {
        let dir = scratch("torn-cut");
        copy_store(&template, &dir);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("seg-00000.sigseg"))
            .unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let store = PersistentStore::open(&dir).unwrap();
        // The earlier records survive; the torn one reads as a miss.
        assert!(store.lookup(&keys[0]).is_some(), "cut {cut}: key 1 lost");
        assert!(store.lookup(&keys[1]).is_some(), "cut {cut}: key 2 lost");
        assert!(
            store.lookup(&keys[2]).is_none(),
            "cut {cut}: torn record served"
        );
        if cut > last_start {
            assert!(
                store.open_diagnostics().iter().any(|d| matches!(
                    d,
                    StoreDiagnostic::TornTail { offset, .. } if *offset == last_start as u64
                )),
                "cut {cut}: no torn-tail diagnostic in {:?}",
                store.open_diagnostics()
            );
            assert_eq!(store.stats().torn_tails, 1, "cut {cut}");
        } else {
            // Cut exactly at the record boundary: the file is simply
            // shorter, nothing is torn — but the flushed index is stale.
            assert_eq!(store.stats().torn_tails, 0, "cut {cut}");
        }
        // The stale flushed index was detected, not trusted.
        assert!(
            store
                .open_diagnostics()
                .contains(&StoreDiagnostic::StaleIndex),
            "cut {cut}"
        );
        // Appends land at the recovered boundary and read back.
        assert!(store
            .append(keys[2], &[synthetic_function(3)], &[])
            .unwrap());
        let (got, _) = store.lookup(&keys[2]).expect("fresh append readable");
        assert_eq!(got[0].selector, Selector::from_u32(3));
        // And the repaired store round-trips through another open.
        drop(store);
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.contract_count(), 3, "cut {cut}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&template).unwrap();
}

/// A checksum-corrupt final record after a crash (a torn sector that
/// kept the length field intact) is skipped with a structured
/// diagnostic at the open-time scan; surrounding records stay readable.
#[test]
fn checksum_corrupt_final_record_is_skipped_not_served() {
    let dir = scratch("corrupt");
    let keys: Vec<[u8; 32]> = (1..=2u8).map(|i| [i; 32]).collect();
    {
        let store = PersistentStore::open(&dir).unwrap();
        for (i, key) in keys.iter().enumerate() {
            store
                .append(*key, &[synthetic_function(i as u32 + 1)], &[])
                .unwrap();
        }
        // No flush: the crash happened mid-append, so the next open
        // takes the scan path, where the damage is detected eagerly.
    }
    let seg_path = dir.join("seg-00000.sigseg");
    let mut segment = std::fs::read(&seg_path).unwrap();
    let (last_start, last_end) = last_record_span(&segment);
    // Flip one payload byte of the final record.
    segment[last_end - 1] ^= 0xff;
    std::fs::write(&seg_path, &segment).unwrap();

    let store = PersistentStore::open(&dir).unwrap();
    assert!(store.lookup(&keys[0]).is_some());
    assert!(store.lookup(&keys[1]).is_none(), "corrupt record served");
    assert!(
        store.open_diagnostics().iter().any(|d| matches!(
            d,
            StoreDiagnostic::CorruptRecord { offset, .. } if *offset == last_start as u64
        )),
        "no corrupt-record diagnostic in {:?}",
        store.open_diagnostics()
    );
    assert_eq!(store.stats().corrupt_records, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The batch scheduler's workers all write behind to one store; a
/// restarted batch over the same corpus is served from disk and
/// byte-identical.
#[test]
fn batch_runs_share_the_store_across_restarts() {
    let dir = scratch("batch");
    let config = CompilerConfig::default();
    let corpus: Vec<Vec<u8>> = [
        vec![spec("transfer(address,uint256)")],
        vec![spec("balanceOf(address)"), spec("approve(address,uint256)")],
        vec![spec("setBytes(bytes)"), spec("pairs(uint64[2][])")],
        vec![spec("mint(address,uint128)")],
    ]
    .iter()
    .map(|specs| compile(specs, &config).code)
    .collect();
    // Duplicate the corpus so dedup and fan-out run too.
    let stream: Vec<Vec<u8>> = corpus.iter().cycle().take(16).cloned().collect();

    let cold = {
        let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(
            PersistentStore::open(&dir).unwrap(),
        ));
        let results = recover_batch(&sigrec, &stream, 4);
        sigrec.flush_store().unwrap();
        results
    };
    let store = PersistentStore::open(&dir).unwrap();
    assert_eq!(store.contract_count(), corpus.len());
    let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(store));
    let warm = recover_batch(&sigrec, &stream, 4);
    assert_eq!(cold.items.len(), warm.items.len());
    for (c, w) in cold.items.iter().zip(&warm.items) {
        assert_eq!(c.index, w.index);
        assert_same(&c.functions, &w.functions);
        assert_eq!(*c.diagnostics, *w.diagnostics);
    }
    // Every distinct contract came off disk, none were re-explored.
    let stats = sigrec.store_stats().unwrap();
    assert_eq!(stats.disk_hits as usize, corpus.len());
    assert_eq!(stats.records_appended, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a over `key || payload_len || payload`, mirroring the store's
/// record checksum so the fault injectors below can re-frame a doctored
/// record.
fn record_checksum(key: &[u8; 32], payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(key);
    eat(&(payload.len() as u32).to_le_bytes());
    eat(payload);
    h
}

/// A graceful restart serves a stored contract for the cost of reading
/// that contract's one record: the program record beside it is not
/// read, and nothing compiles. An `explain` on the same handle re-runs
/// TASE, so it asks for the program, which comes from its record.
#[test]
fn graceful_restart_reads_one_record_and_skips_compile() {
    let dir = scratch("programs");
    let contract = compile(
        &[
            spec("transfer(address,uint256)"),
            spec("approve(address,uint256)"),
        ],
        &CompilerConfig::default(),
    );
    let cold = {
        let sigrec = SigRec::new()
            .with_cache(RecoveryCache::persistent(
                PersistentStore::open(&dir).unwrap(),
            ))
            .with_exec_stats();
        let outcome = sigrec.recover_with_outcome(&contract.code);
        let store = sigrec.store_stats().unwrap();
        assert_eq!(
            store.programs_appended, 1,
            "cold seal persists the compiled program"
        );
        assert_eq!(
            store.program_misses, 1,
            "cold run probes the program tier once"
        );
        sigrec.flush_store().unwrap();
        outcome
    };
    let segment = std::fs::read(dir.join("seg-00000.sigseg")).unwrap();
    let spans = record_spans(&segment);
    assert_eq!(spans.len(), 2, "one contract record, one program record");
    let (contract_start, contract_end) = spans[0];
    assert_ne!(
        segment[contract_start + 44],
        sigrec_core::store::PROGRAM_PAYLOAD_TAG,
        "seal writes the contract record first"
    );

    let sigrec = SigRec::new()
        .with_cache(RecoveryCache::persistent(
            PersistentStore::open(&dir).unwrap(),
        ))
        .with_exec_stats();
    let warm = sigrec.recover_with_outcome(&contract.code);
    assert_same(&cold.functions, &warm.functions);
    let store = sigrec.store_stats().unwrap();
    assert_eq!(store.disk_hits, 1);
    assert_eq!(store.program_hits, 0, "a contract hit reads no program");
    assert_eq!(store.program_misses, 0);
    assert_eq!(
        store.bytes_read as usize,
        contract_end - contract_start,
        "only the contract's own record is read"
    );
    assert_eq!(
        sigrec.exec_stats().unwrap().compile_time,
        Duration::ZERO,
        "warm restart must skip the compile phase entirely"
    );

    let explained: Vec<RecoveredFunction> = sigrec
        .explain(&contract.code)
        .into_iter()
        .map(|e| e.function)
        .collect();
    assert_same(&cold.functions, &explained);
    let store = sigrec.store_stats().unwrap();
    assert_eq!(store.program_hits, 1, "program served from its record");
    assert_eq!(store.program_misses, 0);
    assert_eq!(store.program_stale, 0);
    assert_eq!(
        store.programs_appended, 0,
        "nothing recompiled or rewritten"
    );
    assert_eq!(
        sigrec.exec_stats().unwrap().compile_cold_time,
        Duration::ZERO
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checksum-corrupt program record behind a trusted index: warm
/// contract hits never read it, so they stay byte-identical and see no
/// corruption. The first `explain` reads it, counts it corrupt,
/// recompiles, and its seal appends a good record that the next open
/// serves.
#[test]
fn corrupt_program_record_is_unseen_by_contract_hits_and_rewritten_by_explain() {
    let dir = scratch("corrupt-program");
    let contract = compile(
        &[
            spec("transfer(address,uint256)"),
            spec("setData(bytes,uint256[])"),
        ],
        &CompilerConfig::default(),
    );
    let key = keccak256(&contract.code);
    let cold = {
        let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(
            PersistentStore::open(&dir).unwrap(),
        ));
        let outcome = sigrec.recover_with_outcome(&contract.code);
        sigrec.flush_store().unwrap();
        outcome
    };
    // Flip one program payload byte in place: the length is unchanged,
    // so the flushed index is still trusted and still points at it.
    let seg_path = dir.join("seg-00000.sigseg");
    let mut segment = std::fs::read(&seg_path).unwrap();
    let (last_start, last_end) = last_record_span(&segment);
    assert_eq!(
        segment[last_start + 44],
        sigrec_core::store::PROGRAM_PAYLOAD_TAG
    );
    segment[last_end - 1] ^= 0xff;
    std::fs::write(&seg_path, &segment).unwrap();

    let sigrec = SigRec::new()
        .with_cache(RecoveryCache::persistent(
            PersistentStore::open(&dir).unwrap(),
        ))
        .with_exec_stats();
    let warm = sigrec.recover_with_outcome(&contract.code);
    assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
    let stats = sigrec.store_stats().unwrap();
    assert_eq!(stats.index_rebuilds, 0, "the flushed index was trusted");
    assert_eq!(stats.disk_hits, 1);
    assert_eq!(stats.corrupt_records, 0);
    assert_eq!(stats.program_hits + stats.program_misses, 0);

    let explained: Vec<RecoveredFunction> = sigrec
        .explain(&contract.code)
        .into_iter()
        .map(|e| e.function)
        .collect();
    assert_same(&cold.functions, &explained);
    let stats = sigrec.store_stats().unwrap();
    assert_eq!(stats.corrupt_records, 1);
    assert_eq!(stats.program_hits, 0);
    assert_eq!(stats.program_misses, 1);
    assert_eq!(stats.programs_appended, 1, "the recompile is rewritten");
    assert!(sigrec.exec_stats().unwrap().compile_cold_time > Duration::ZERO);
    sigrec.flush_store().unwrap();

    let store = PersistentStore::open(&dir).unwrap();
    assert!(matches!(
        store.lookup_program(&key),
        sigrec_core::ProgramLookup::Hit(_)
    ));
    assert_eq!(store.stats().corrupt_records, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash that tears the segment mid-program-record costs exactly that
/// program: the contract record beside it still serves, the program
/// lookup degrades to a miss (never wrong decoded data), and recovery
/// results stay byte-identical.
#[test]
fn torn_program_record_degrades_to_a_miss_never_wrong_data() {
    let template = scratch("torn-prog-template");
    let contract = compile(
        &[spec("transfer(address,uint256)")],
        &CompilerConfig::default(),
    );
    let key = keccak256(&contract.code);
    let cold = {
        let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(
            PersistentStore::open(&template).unwrap(),
        ));
        let outcome = sigrec.recover_with_outcome(&contract.code);
        sigrec.flush_store().unwrap();
        outcome
    };
    let seg_path = template.join("seg-00000.sigseg");
    let segment = std::fs::read(&seg_path).unwrap();
    let (last_start, last_end) = last_record_span(&segment);
    assert_eq!(
        segment[last_start + 44],
        sigrec_core::store::PROGRAM_PAYLOAD_TAG,
        "seal writes the program record after the contract record"
    );

    // Tear inside the framing, early in the payload, and one byte short
    // of complete.
    for cut in [
        last_start + 1,
        last_start + 40,
        last_start + (last_end - last_start) / 2,
        last_end - 1,
    ] {
        let dir = scratch("torn-prog-cut");
        copy_store(&template, &dir);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("seg-00000.sigseg"))
            .unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let store = PersistentStore::open(&dir).unwrap();
        assert!(
            store.lookup(&key).is_some(),
            "cut {cut}: contract record lost"
        );
        assert!(
            matches!(store.lookup_program(&key), sigrec_core::ProgramLookup::Miss),
            "cut {cut}: torn program must read as a miss"
        );
        let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(store));
        let warm = sigrec.recover_with_outcome(&contract.code);
        assert_same(&cold.functions, &warm.functions);
        // Two disk hits: the manual probe above and the warm recovery.
        assert_eq!(sigrec.store_stats().unwrap().disk_hits, 2, "cut {cut}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&template).unwrap();
}

/// A persisted program from a *future* (or past) format version is
/// reported stale, recompiled from the bytecode — never misdecoded —
/// and rewritten in the current format so the next open reads it back.
#[test]
fn stale_program_version_recompiles_and_rewrites() {
    let dir = scratch("stale-program");
    let contract = compile(
        &[spec("transfer(address,uint256)")],
        &CompilerConfig::default(),
    );
    let key = keccak256(&contract.code);
    {
        let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(
            PersistentStore::open(&dir).unwrap(),
        ));
        let _ = sigrec.recover_with_outcome(&contract.code);
        sigrec.flush_store().unwrap();
    }

    // Byte surgery: bump the persisted program's format version and
    // re-frame the record so only the version check can reject it.
    let seg_path = dir.join("seg-00000.sigseg");
    let mut segment = std::fs::read(&seg_path).unwrap();
    let (last_start, last_end) = last_record_span(&segment);
    assert_eq!(
        segment[last_start + 44],
        sigrec_core::store::PROGRAM_PAYLOAD_TAG
    );
    let version = u16::from_le_bytes(
        segment[last_start + 45..last_start + 47]
            .try_into()
            .unwrap(),
    );
    assert_eq!(version, sigrec_core::store::PROGRAM_FORMAT_VERSION);
    segment[last_start + 45..last_start + 47].copy_from_slice(&(version + 1).to_le_bytes());
    let sum = record_checksum(&key, &segment[last_start + 44..last_end]);
    segment[last_start + 36..last_start + 44].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&seg_path, &segment).unwrap();

    // `explain` re-runs TASE without reading the contract entry, so it
    // reaches the program tier and hits the stale record.
    let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(
        PersistentStore::open(&dir).unwrap(),
    ));
    let explained = sigrec.explain(&contract.code);
    assert_eq!(explained.len(), 1);
    let stats = sigrec.store_stats().unwrap();
    assert_eq!(stats.program_stale, 1, "version mismatch must report stale");
    assert_eq!(stats.corrupt_records, 0, "stale is not corruption");
    assert_eq!(
        stats.programs_appended, 1,
        "stale program rewritten in the current format"
    );
    sigrec.flush_store().unwrap();

    // The rewrite shadows the stale record: the next open serves the
    // current-format program.
    let store = PersistentStore::open(&dir).unwrap();
    assert!(matches!(
        store.lookup_program(&key),
        sigrec_core::ProgramLookup::Hit(_)
    ));
    assert_eq!(store.stats().program_hits, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
