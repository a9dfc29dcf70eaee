//! Equivalence guarantees for the throughput layer: the recovery cache,
//! the dedup-first batch scheduler and the recycled expression arena are
//! pure optimisations — they must never change a recovered signature.

use sigrec_abi::FunctionSignature;
use sigrec_core::expr::{BinOp, ExprArena, ExprId};
use sigrec_core::{recover_batch, recover_batch_naive, RecoveredFunction, SigRec};
use sigrec_solc::{compile, compile_single, CompilerConfig, FunctionSpec, Visibility};

fn spec(decl: &str) -> FunctionSpec {
    FunctionSpec::new(
        FunctionSignature::parse(decl).unwrap(),
        Visibility::External,
    )
}

/// A small mixed corpus exercising value types, arrays, bytes and
/// multi-function dispatchers.
fn corpus() -> Vec<Vec<u8>> {
    let config = CompilerConfig::default();
    let mut codes = vec![
        compile_single(spec("transfer(address,uint256)"), &config).code,
        compile_single(spec("set(bytes)"), &config).code,
        compile_single(spec("sum(uint256[])"), &config).code,
        compile_single(spec("mix(bool,int128,bytes4)"), &config).code,
        compile(
            &[spec("a(uint8)"), spec("b(string)"), spec("c(address[])")],
            &config,
        )
        .code,
    ];
    let optimized = CompilerConfig {
        optimize: true,
        ..CompilerConfig::default()
    };
    codes.push(compile_single(spec("opt(uint64,address)"), &optimized).code);
    codes
}

fn assert_same(a: &[RecoveredFunction], b: &[RecoveredFunction]) {
    assert_eq!(a.len(), b.len(), "function count differs");
    for (fa, fb) in a.iter().zip(b) {
        assert_eq!(fa.selector, fb.selector);
        assert_eq!(fa.entry, fb.entry);
        assert_eq!(fa.params, fb.params, "params differ for {:?}", fa.selector);
        assert_eq!(fa.language, fb.language);
        assert_eq!(fa.rules, fb.rules, "rules differ for {:?}", fa.selector);
    }
}

#[test]
fn cached_recovery_equals_cold_recovery() {
    let sigrec = SigRec::new();
    for code in corpus() {
        let cold = sigrec.recover_cold(&code);
        let warm1 = sigrec.recover(&code); // miss: populates the cache
        let warm2 = sigrec.recover(&code); // contract-level hit
        assert_same(&cold, &warm1);
        assert_same(&cold, &warm2);
    }
    assert!(sigrec.cache_stats().contract_hits >= corpus().len() as u64);
}

#[test]
fn function_cache_shared_across_contracts_is_equivalent() {
    // Recover every contract twice through one shared-cache SigRec in two
    // different orders; any unsound cross-contract sharing would make the
    // second pass differ from a cold recovery.
    let shared = SigRec::new();
    let codes = corpus();
    for code in &codes {
        let _ = shared.recover(code);
    }
    for code in codes.iter().rev() {
        assert_same(&shared.recover(code), &SigRec::new().recover_cold(code));
    }
}

#[test]
fn dedup_batch_equals_naive_batch() {
    let base = corpus();
    // Duplicate with skew: contract i appears i+1 times, shuffled.
    let mut codes = Vec::new();
    for (i, code) in base.iter().enumerate() {
        for _ in 0..=i {
            codes.push(code.clone());
        }
    }
    codes.reverse();

    let dedup = recover_batch(&SigRec::new(), &codes, 4);
    let naive = recover_batch_naive(&SigRec::new(), &codes, 4);

    assert_eq!(dedup.dedup.distinct_contracts, base.len());
    assert_eq!(naive.items.len(), dedup.items.len());
    for (a, b) in naive.items.iter().zip(&dedup.items) {
        assert_eq!(a.index, b.index);
        assert_same(&a.functions, &b.functions);
    }
    assert_eq!(naive.rule_stats, dedup.rule_stats);
}

#[test]
fn explain_then_recover_is_equivalent() {
    let sigrec = SigRec::new();
    for code in corpus() {
        let explained = sigrec.explain(&code);
        let recovered = sigrec.recover(&code);
        let cold = SigRec::new().recover_cold(&code);
        assert_same(&recovered, &cold);
        assert_eq!(explained.len(), recovered.len());
    }
}

/// `k + cd[4]`.
fn offset_plus(arena: &mut ExprArena, k: u64) -> ExprId {
    let c4 = arena.c64(4);
    let word = arena.calldata_word(c4);
    let ck = arena.c64(k);
    arena.bin(BinOp::Add, ck, word)
}

#[test]
fn arena_preserves_structure_and_identity() {
    // Structurally identical expressions built independently are the
    // same node, so equality is an id comparison, and exact.
    let mut arena = ExprArena::new();
    let a = offset_plus(&mut arena, 4);
    let b = offset_plus(&mut arena, 4);
    assert_eq!(a, b);

    // Distinct structure stays distinct.
    let c = offset_plus(&mut arena, 5);
    assert_ne!(a, c);

    // A recycled arena starts empty; rebuilding there reproduces the
    // same structure under the same ids.
    let shown = arena.show(a).to_string();
    drop(arena);
    let mut again = ExprArena::new();
    assert!(again.is_empty());
    let d = offset_plus(&mut again, 4);
    assert_eq!(d, a);
    assert_eq!(again.show(d).to_string(), shown);
}
