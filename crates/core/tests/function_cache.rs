//! The function-level cache memoises per-function recovery keyed by
//! `(body-extent hash, entry pc)`, so contracts that share a leading
//! function but differ later still share that function's recovery. This
//! models real corpora: ~a quarter of deployed token contracts start with
//! `transfer(address,uint256)` at the same dispatcher slot. These tests
//! build such shared-prefix corpora and check the cache actually hits —
//! and that hits never change results.

use sigrec_abi::{AbiType, FunctionSignature};
use sigrec_core::{RecoveredFunction, SigRec};
use sigrec_evm::{Assembler, Opcode, U256};
use sigrec_solc::{compile, CompilerConfig, FunctionSpec, Visibility};

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
    }
}

/// A family of token-like contracts: every member leads with
/// `transfer(address,uint256)` in dispatcher slot 0 and differs only in
/// its second function. Same function count + fixed-width dispatcher
/// emission → the shared body sits at the same entry pc with identical
/// extent bytes in every member.
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

#[test]
fn shared_leading_function_hits_across_distinct_contracts() {
    let family = shared_prefix_family(&CompilerConfig::default());
    let sigrec = SigRec::new();
    for code in &family {
        let _ = sigrec.recover(code);
    }
    let stats = sigrec.cache_stats();
    // Every contract after the first should serve its leading function
    // from the function-level cache (contract-level keys all differ).
    assert_eq!(stats.contract_hits, 0, "contracts are all distinct");
    assert!(
        stats.function_hits >= (family.len() - 1) as u64,
        "expected ≥{} function-level hits on the shared prefix, got {} \
         (probes: {})",
        family.len() - 1,
        stats.function_hits,
        stats.function_hits + stats.function_misses,
    );
}

#[test]
fn function_cache_hits_preserve_results() {
    let family = shared_prefix_family(&CompilerConfig::default());
    let warm = SigRec::new();
    for code in &family {
        let _ = warm.recover(code);
    }
    // Second pass over the family in reverse: function- and
    // contract-level hits everywhere, results must match cold recovery.
    for code in family.iter().rev() {
        assert_same(&warm.recover(code), &SigRec::new().recover_cold(code));
    }
}

#[test]
fn optimized_family_still_shares_the_prefix() {
    let optimized = CompilerConfig {
        optimize: true,
        ..CompilerConfig::default()
    };
    let family = shared_prefix_family(&optimized);
    let sigrec = SigRec::new();
    for code in &family {
        let _ = sigrec.recover(code);
    }
    assert!(
        sigrec.cache_stats().function_hits >= (family.len() - 1) as u64,
        "optimised emission broke extent sharing: {:?}",
        sigrec.cache_stats(),
    );
}

#[test]
fn corpus_level_hit_rate_is_meaningful() {
    // A 40-contract corpus in which every contract leads with the same
    // token function: the function-level hit rate must clear 20%, i.e.
    // the cache is a real throughput lever, not a rounding error. (The
    // pre-extent whole-tail keying measured 0.66% on corpora like this.)
    let seconds = [
        "balanceOf(address)",
        "approve(address,uint256)",
        "mint(address,uint128)",
        "burn(uint256)",
        "allowance(address,address)",
        "pause(bool)",
        "setOwner(address)",
        "withdraw(uint256)",
        "deposit(uint64)",
        "sweep(address,bytes4)",
    ];
    let config = CompilerConfig::default();
    let codes: Vec<Vec<u8>> = (0..40)
        .map(|i| {
            compile(
                &[
                    spec("transfer(address,uint256)"),
                    spec(seconds[i % seconds.len()]),
                    spec(seconds[(i / seconds.len() + 3) % seconds.len()]),
                ],
                &config,
            )
            .code
        })
        .collect();
    let sigrec = SigRec::new();
    for code in &codes {
        let _ = sigrec.recover(code);
    }
    let stats = sigrec.cache_stats();
    let rate = stats.function_hit_rate();
    assert!(
        rate > 0.20,
        "function cache hit rate {:.2}% is below the 20% floor ({:?})",
        rate * 100.0,
        stats,
    );
}

// --- soundness-gate edges -------------------------------------------------
//
// The function store is gated on `!visited_below_entry && max_pc_end <=
// extent`: a body that executes code outside its own span could recover
// differently in a contract whose outside bytes differ, so such results
// must never be memoised. The hand-assembled contracts below pin both
// sides of that gate.

/// A one-function contract whose body calls a shared helper *below* its
/// entry; the helper masks `calldataload(4)` with `mask`. Two contracts
/// built with different masks have byte-identical body spans at the same
/// entry pc — only the (out-of-span) helper differs.
fn helper_below_entry_contract(mask: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    let entry = asm.fresh_label();
    let helper = asm.fresh_label();
    let ret = asm.fresh_label();
    asm.push_u64(0).op(Opcode::CallDataLoad);
    asm.push_u64(0xe0).op(Opcode::Shr);
    asm.op(Opcode::Dup(1));
    asm.push_sized(U256::from(0x1122_3344u64), 4);
    asm.op(Opcode::Eq);
    asm.push_label(entry).op(Opcode::JumpI);
    asm.op(Opcode::Pop).op(Opcode::Stop);
    // The helper prologue, below the entry.
    asm.jumpdest(helper);
    asm.push_u64(4).op(Opcode::CallDataLoad);
    asm.push_sized(U256::from(mask), 2);
    asm.op(Opcode::And).op(Opcode::Pop);
    asm.op(Opcode::Jump); // return address left on the stack by the body
                          // The body: jump down into the helper, come back, stop.
    asm.jumpdest(entry);
    asm.push_label(ret).push_label(helper);
    asm.op(Opcode::Jump);
    asm.jumpdest(ret);
    asm.op(Opcode::Stop);
    asm.assemble()
}

#[test]
fn helper_below_entry_is_never_served_from_the_cache() {
    let a = helper_below_entry_contract(0xff);
    let b = helper_below_entry_contract(0xffff);
    assert_eq!(a.len(), b.len(), "layouts must line up for the trap to arm");
    let sigrec = SigRec::new();
    let ra = sigrec.recover(&a);
    assert_eq!(
        a[ra[0].entry..],
        b[ra[0].entry..],
        "body spans must be byte-identical or the cache is never tempted"
    );
    // Without the `visited_below_entry` gate this would hit the span
    // memoised for `a` and wrongly report uint8.
    let rb = sigrec.recover(&b);
    assert_eq!(ra[0].params, vec![AbiType::Uint(8)]);
    assert_eq!(rb[0].params, vec![AbiType::Uint(16)]);
    assert_same(&rb, &SigRec::new().recover_cold(&b));
    assert_eq!(
        sigrec.cache_stats().function_hits,
        0,
        "out-of-span bodies must not be memoised: {:?}",
        sigrec.cache_stats(),
    );
}

/// A two-function contract where function A's `STOP` is the byte
/// immediately before function B's `JUMPDEST`: A's `max_pc_end` equals
/// its extent exactly, the boundary case the store gate must accept.
fn adjacent_bodies_contract(second_mask: u64) -> Vec<u8> {
    let mut asm = Assembler::new();
    let entry_a = asm.fresh_label();
    let entry_b = asm.fresh_label();
    asm.push_u64(0).op(Opcode::CallDataLoad);
    asm.push_u64(0xe0).op(Opcode::Shr);
    for (sel, entry) in [(0xaaaa_0001u64, entry_a), (0xbbbb_0002, entry_b)] {
        asm.op(Opcode::Dup(1));
        asm.push_sized(U256::from(sel), 4);
        asm.op(Opcode::Eq);
        asm.push_label(entry).op(Opcode::JumpI);
    }
    asm.op(Opcode::Pop).op(Opcode::Stop);
    asm.jumpdest(entry_a);
    asm.push_u64(4).op(Opcode::CallDataLoad);
    asm.push_sized(U256::from(0xffu64), 2);
    asm.op(Opcode::And).op(Opcode::Pop);
    asm.op(Opcode::Stop); // extent of A ends here, flush against B
    asm.jumpdest(entry_b);
    asm.push_u64(4).op(Opcode::CallDataLoad);
    asm.push_sized(U256::from(second_mask), 2);
    asm.op(Opcode::And).op(Opcode::Pop);
    asm.op(Opcode::Stop);
    asm.assemble()
}

#[test]
fn body_ending_exactly_at_next_entry_is_cached() {
    let a = adjacent_bodies_contract(0xff);
    let b = adjacent_bodies_contract(0xffff);
    let sigrec = SigRec::new();
    let _ = sigrec.recover(&a);
    let rb = sigrec.recover(&b);
    // A's bytes and entry are identical in both contracts; the
    // max_pc_end == extent boundary must not block the hit.
    assert!(
        sigrec.cache_stats().function_hits >= 1,
        "flush-boundary body missed the cache: {:?}",
        sigrec.cache_stats(),
    );
    assert_same(&rb, &SigRec::new().recover_cold(&b));
}

#[test]
fn aliased_entries_and_empty_bodies_stay_consistent() {
    // Two selectors dispatching to one shared nullary body, plus a body
    // that is nothing but `JUMPDEST STOP` — the degenerate spans the
    // extent computation has to survive.
    let mut asm = Assembler::new();
    let shared = asm.fresh_label();
    let empty = asm.fresh_label();
    asm.push_u64(0).op(Opcode::CallDataLoad);
    asm.push_u64(0xe0).op(Opcode::Shr);
    for (sel, entry) in [
        (0x1111_0001u64, shared),
        (0x2222_0002, shared),
        (0x3333_0003, empty),
    ] {
        asm.op(Opcode::Dup(1));
        asm.push_sized(U256::from(sel), 4);
        asm.op(Opcode::Eq);
        asm.push_label(entry).op(Opcode::JumpI);
    }
    asm.op(Opcode::Pop).op(Opcode::Stop);
    asm.jumpdest(shared);
    asm.push_u64(4).op(Opcode::CallDataLoad);
    asm.op(Opcode::Pop).op(Opcode::Stop);
    asm.jumpdest(empty);
    asm.op(Opcode::Stop);
    let code = asm.assemble();

    let warm = SigRec::new();
    let first = warm.recover(&code);
    assert_eq!(first.len(), 3, "all three selectors must be recovered");
    let shared_fns: Vec<_> = first.iter().filter(|f| !f.params.is_empty()).collect();
    assert_eq!(shared_fns.len(), 2, "aliased entries share the body");
    assert_eq!(shared_fns[0].entry, shared_fns[1].entry);
    assert_eq!(shared_fns[0].params, shared_fns[1].params);
    let nullary = first.iter().find(|f| f.params.is_empty()).unwrap();
    assert!(
        nullary.params.is_empty(),
        "JUMPDEST STOP body has no params"
    );
    // Warm pass and cold reference agree.
    assert_same(&warm.recover(&code), &SigRec::new().recover_cold(&code));
}

/// `compile_single` of `a(uint8)`, with 8 unreachable trailing bytes.
const COLLIDING_A: &str = "60003560e01c80632a500b7f146100135750005b341561001f5760006000fd5b60043560ff166001015000dcc4ae2745a5fe63";
/// `compile_single` of `b(address)`, with 8 unreachable trailing bytes.
/// Both bodies start at pc 19, and the trailing bytes were searched so
/// that the two spans collide under the unkeyed 64-bit FNV-1a hash the
/// function cache was once keyed by.
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
    // parameters through the function cache.
    for (first, second) in [(&a, &b), (&b, &a)] {
        let shared = SigRec::new();
        assert_same(&shared.recover(first), &SigRec::new().recover_cold(first));
        assert_same(&shared.recover(second), &SigRec::new().recover_cold(second));
    }
}
