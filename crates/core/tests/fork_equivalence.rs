//! Copy-on-write forking is a pure optimisation: for any bytecode, the
//! CoW executor must explore exactly the same paths and collect exactly
//! the same facts as the reference eager-clone executor. These tests pin
//! that down on compiler output across the full Solidity version sweep
//! and on randomly generated fork-heavy bytecode.

use proptest::prelude::*;
use sigrec_abi::FunctionSignature;
use sigrec_core::exec::ForkMode;
use sigrec_core::{extract_dispatch, RecoveredFunction, SigRec, Tase, TaseConfig};
use sigrec_evm::Disassembly;
use sigrec_solc::{compile, CompilerConfig, FunctionSpec, SolcVersion, Visibility};

fn config(mode: ForkMode) -> TaseConfig {
    TaseConfig {
        fork_mode: mode,
        ..TaseConfig::default()
    }
}

/// Explores `code` from `entry` under `mode` and returns the facts as a
/// deterministic Debug rendering (the facts print their arena's nodes and
/// the ids into it, so structurally identical facts print identically).
fn facts_under(code: &[u8], entry: usize, mode: ForkMode) -> String {
    let disasm = Disassembly::new(code);
    let facts = Tase::new(&disasm, config(mode)).explore(entry);
    format!("{facts:?}")
}

fn assert_same(a: &[RecoveredFunction], b: &[RecoveredFunction]) {
    assert_eq!(a.len(), b.len(), "function count differs");
    for (fa, fb) in a.iter().zip(b) {
        assert_eq!(fa.selector, fb.selector);
        assert_eq!(fa.params, fb.params, "params differ for {:?}", fa.selector);
        assert_eq!(fa.language, fb.language);
        assert_eq!(fa.rules, fb.rules, "rules differ for {:?}", fa.selector);
    }
}

fn spec(decl: &str) -> FunctionSpec {
    FunctionSpec::new(
        FunctionSignature::parse(decl).unwrap(),
        Visibility::External,
    )
}

/// End-to-end recovery agrees between fork modes over every Solidity
/// version × optimisation combination the generator models.
#[test]
fn cow_equals_eager_clone_across_version_sweep() {
    let decls: &[&[&str]] = &[
        &["transfer(address,uint256)", "balanceOf(address)"],
        &["sum(uint256[])", "set(bytes)", "mix(bool,int128,bytes4)"],
        &["f(string,uint8[4])"],
    ];
    for version in SolcVersion::sweep() {
        for optimize in [false, true] {
            let cfg = CompilerConfig::new(version, optimize);
            for fns in decls {
                let specs: Vec<FunctionSpec> = fns.iter().map(|d| spec(d)).collect();
                let code = compile(&specs, &cfg).code;
                let cow = SigRec::with_config(config(ForkMode::CopyOnWrite));
                let eager = SigRec::with_config(config(ForkMode::EagerClone));
                assert_same(&cow.recover_cold(&code), &eager.recover_cold(&code));
            }
        }
    }
}

/// Executor-level facts agree per dispatcher entry, not just after
/// inference smoothed differences over.
#[test]
fn facts_identical_per_dispatch_entry() {
    let cfg = CompilerConfig::default();
    let specs = vec![
        spec("a(uint256,address)"),
        spec("b(bytes)"),
        spec("c(uint32[],bool)"),
    ];
    let code = compile(&specs, &cfg).code;
    let disasm = Disassembly::new(&code);
    let entries = extract_dispatch(&disasm);
    assert!(!entries.is_empty(), "dispatcher not found");
    for entry in &entries {
        assert_eq!(
            facts_under(&code, entry.entry, ForkMode::CopyOnWrite),
            facts_under(&code, entry.entry, ForkMode::EagerClone),
            "facts diverge at entry {:#x}",
            entry.entry
        );
    }
}

/// Builds fork-heavy bytecode from raw fuzz bytes: a chain of fixed-size
/// blocks, each pushing a filler value, loading a symbolic calldata word
/// and conditionally jumping to a later block's `JUMPDEST`. Every JUMPI
/// condition is symbolic, so the executor forks at each block, and the
/// filler pushes make the forked stacks deep.
fn fork_heavy_program(raw: &[u8]) -> Vec<u8> {
    const BLOCK: usize = 9;
    let blocks = (raw.len() / 3).clamp(1, 24);
    let mut code = Vec::with_capacity(blocks * BLOCK + 1);
    for i in 0..blocks {
        let filler = raw.get(i * 3).copied().unwrap_or(0x11);
        let offset = raw.get(i * 3 + 1).copied().unwrap_or(0x04);
        // Jump to some later block's JUMPDEST (the last byte of block j).
        let pick = raw.get(i * 3 + 2).copied().unwrap_or(0) as usize;
        let j = i + pick % (blocks - i).max(1);
        let dest = j * BLOCK + (BLOCK - 1);
        code.extend_from_slice(&[
            0x60, filler, // PUSH1 filler   (deepens the stack)
            0x60, offset, 0x35, // PUSH1 off; CALLDATALOAD (symbolic cond)
            0x60, dest as u8, // PUSH1 dest
            0x57,       // JUMPI — symbolic condition, forks
            0x5b,       // JUMPDEST — fallthrough and jump target
        ]);
    }
    code.push(0x00); // STOP
    code
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Property: on arbitrary fork-heavy programs, CoW and eager-clone
    // exploration produce byte-identical facts.
    #[test]
    fn cow_facts_equal_eager_facts_on_random_programs(
        raw in proptest::collection::vec(any::<u8>(), 3..72)
    ) {
        let code = fork_heavy_program(&raw);
        prop_assert_eq!(
            facts_under(&code, 0, ForkMode::CopyOnWrite),
            facts_under(&code, 0, ForkMode::EagerClone)
        );
    }

    // Property: even on completely random byte soup (mostly invalid
    // jumps and early path death) the two fork modes stay equivalent.
    #[test]
    fn cow_facts_equal_eager_facts_on_byte_soup(
        raw in proptest::collection::vec(any::<u8>(), 1..96)
    ) {
        prop_assert_eq!(
            facts_under(&raw, 0, ForkMode::CopyOnWrite),
            facts_under(&raw, 0, ForkMode::EagerClone)
        );
    }
}
