//! Equivalence guarantees for the throughput layer: the recovery cache,
//! the dedup-first batch scheduler and the recycled expression arena are
//! pure optimisations — they must never change a recovered signature.

use sigrec_abi::{AbiType, FunctionSignature};
use sigrec_core::expr::{BinOp, ExprArena, ExprId};
use sigrec_core::{recover_batch, recover_batch_naive, RecoveredFunction, SigRec};
use sigrec_evm::{Assembler, Label, Opcode, U256};
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

/// Recovers every code through one shared recoverer, in order and then
/// in reverse, and checks each result against a fresh cold recovery: any
/// result carried from one contract to another would show as a
/// difference.
fn assert_shared_equals_fresh(codes: &[Vec<u8>]) {
    let shared = SigRec::new();
    for code in codes.iter().chain(codes.iter().rev()) {
        assert_same(&shared.recover(code), &SigRec::new().recover_cold(code));
    }
}

/// A family of token-like contracts: every member leads with
/// `transfer(address,uint256)` in dispatcher slot 0 and differs only in
/// its second function, so the leading body sits at the same entry pc
/// with the same bytes in every member.
fn shared_prefix_family(config: &CompilerConfig) -> Vec<Vec<u8>> {
    [
        "balanceOf(address)",
        "approve(address,uint256)",
        "mint(address,uint128)",
        "burn(uint256)",
    ]
    .iter()
    .map(|second| compile(&[spec("transfer(address,uint256)"), spec(second)], config).code)
    .collect()
}

/// The dispatcher prologue: `CALLDATALOAD(0) >> 224`.
fn dispatcher(asm: &mut Assembler) {
    asm.push_u64(0).op(Opcode::CallDataLoad);
    asm.push_u64(0xe0).op(Opcode::Shr);
}

/// One dispatcher comparison: jump to `entry` on `selector`.
fn route(asm: &mut Assembler, selector: u64, entry: Label) {
    asm.op(Opcode::Dup(1));
    asm.push_sized(U256::from(selector), 4);
    asm.op(Opcode::Eq);
    asm.push_label(entry).op(Opcode::JumpI);
}

/// `CALLDATALOAD(4) & mask`, popped.
fn masked_load(asm: &mut Assembler, mask: u64) {
    asm.push_u64(4).op(Opcode::CallDataLoad);
    asm.push_sized(U256::from(mask), 2);
    asm.op(Opcode::And).op(Opcode::Pop);
}

/// A one-function contract whose body calls a helper *below* its entry
/// that masks `calldataload(4)` with `mask`: two masks give byte-identical
/// bodies at the same entry pc that differ only in the helper.
fn helper_below_entry_contract(mask: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    let (entry, helper, ret) = (asm.fresh_label(), asm.fresh_label(), asm.fresh_label());
    dispatcher(&mut asm);
    route(&mut asm, 0x1122_3344, entry);
    asm.op(Opcode::Pop).op(Opcode::Stop);
    asm.jumpdest(helper);
    masked_load(&mut asm, mask);
    // Return to the address the body left on the stack.
    asm.op(Opcode::Jump);
    asm.jumpdest(entry);
    asm.push_label(ret).push_label(helper).op(Opcode::Jump);
    asm.jumpdest(ret).op(Opcode::Stop);
    asm.assemble()
}

/// A two-function contract whose first body ends with the byte just
/// before the second body's `JUMPDEST`; `second_mask` varies the second.
fn adjacent_bodies_contract(second_mask: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    let (entry_a, entry_b) = (asm.fresh_label(), asm.fresh_label());
    dispatcher(&mut asm);
    route(&mut asm, 0xaaaa_0001, entry_a);
    route(&mut asm, 0xbbbb_0002, entry_b);
    asm.op(Opcode::Pop).op(Opcode::Stop);
    asm.jumpdest(entry_a);
    masked_load(&mut asm, 0xff);
    asm.op(Opcode::Stop);
    asm.jumpdest(entry_b);
    masked_load(&mut asm, second_mask);
    asm.op(Opcode::Stop);
    asm.assemble()
}

#[test]
fn one_shared_recoverer_equals_fresh_recoveries() {
    assert_shared_equals_fresh(&corpus());
    assert_shared_equals_fresh(&shared_prefix_family(&CompilerConfig::default()));
    let optimized = CompilerConfig {
        optimize: true,
        ..CompilerConfig::default()
    };
    assert_shared_equals_fresh(&shared_prefix_family(&optimized));
    let helpers = [0xff, 0xffff].map(helper_below_entry_contract);
    let entry = SigRec::new().recover_cold(&helpers[0])[0].entry;
    assert_eq!(helpers[0][entry..], helpers[1][entry..], "bodies differ");
    assert_shared_equals_fresh(&helpers);
    let params = |code: &[u8]| SigRec::new().recover(code)[0].params.clone();
    assert_eq!(params(&helpers[0]), vec![AbiType::Uint(8)]);
    assert_eq!(params(&helpers[1]), vec![AbiType::Uint(16)]);
    assert_shared_equals_fresh(&[0xff, 0xffff].map(adjacent_bodies_contract));
}

#[test]
fn aliased_entries_and_empty_bodies_stay_consistent() {
    // Two selectors dispatching to one shared nullary body, plus a body
    // that is nothing but `JUMPDEST STOP`.
    let mut asm = Assembler::new();
    let (shared, empty) = (asm.fresh_label(), asm.fresh_label());
    dispatcher(&mut asm);
    route(&mut asm, 0x1111_0001, shared);
    route(&mut asm, 0x2222_0002, shared);
    route(&mut asm, 0x3333_0003, empty);
    asm.op(Opcode::Pop).op(Opcode::Stop);
    asm.jumpdest(shared);
    asm.push_u64(4).op(Opcode::CallDataLoad);
    asm.op(Opcode::Pop).op(Opcode::Stop);
    asm.jumpdest(empty);
    asm.op(Opcode::Stop);
    let code = asm.assemble();

    let first = SigRec::new().recover(&code);
    assert_eq!(first.len(), 3, "all three selectors must be recovered");
    let shared_fns: Vec<_> = first.iter().filter(|f| !f.params.is_empty()).collect();
    assert_eq!(shared_fns.len(), 2, "aliased entries share the body");
    assert_eq!(shared_fns[0].entry, shared_fns[1].entry);
    assert_eq!(shared_fns[0].params, shared_fns[1].params);
    assert_eq!(first.iter().filter(|f| f.params.is_empty()).count(), 1);
    assert_shared_equals_fresh(&[code]);
}

/// `compile_single` of `a(uint8)`, with 8 unreachable trailing bytes.
const COLLIDING_A: &str = "60003560e01c80632a500b7f146100135750005b341561001f5760006000fd5b60043560ff166001015000dcc4ae2745a5fe63";
/// `compile_single` of `b(address)`, with 8 unreachable trailing bytes.
/// Both bodies start at pc 19, and the trailing bytes were searched so
/// that the two spans collide under the unkeyed 64-bit FNV-1a hash a
/// function-level cache was once keyed by.
const COLLIDING_B: &str = "60003560e01c8063bda02782146100135750005b341561001f5760006000fd5b60043573ffffffffffffffffffffffffffffffffffffffff165000bb749f8668cb5af5";

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

#[test]
fn crafted_colliding_bodies_never_share_a_recovery() {
    let (a, b) = (unhex(COLLIDING_A), unhex(COLLIDING_B));
    let params = |code: &[u8]| SigRec::new().recover_cold(code)[0].params.clone();
    assert_eq!(params(&a), vec![AbiType::Uint(8)]);
    assert_eq!(params(&b), vec![AbiType::Address]);
    // Whichever contract is recovered first must not decide the other's
    // parameters.
    assert_shared_equals_fresh(&[a.clone(), b.clone()]);
    assert_shared_equals_fresh(&[b, a]);
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
