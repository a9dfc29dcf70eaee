//! Worker-count and degenerate-input edges of the batch entry points.
//!
//! A batch runs on the caller alone when `workers` is 0 or 1, uses at
//! most one worker per distinct contract, fans duplicate contracts out
//! from one recovery, and must survive contracts with no dispatcher at
//! all.
//! These tests pin those edges for both the dedup-first and naive
//! batches, always checking the two agree with each other and with
//! serial cold recovery.

use sigrec_abi::FunctionSignature;
use sigrec_core::{recover_batch, recover_batch_naive, BatchResult, SigRec};
use sigrec_solc::{compile, CompilerConfig, FunctionSpec, Visibility};

fn code(decls: &[&str]) -> Vec<u8> {
    let specs: Vec<FunctionSpec> = decls
        .iter()
        .map(|d| FunctionSpec::new(FunctionSignature::parse(d).unwrap(), Visibility::External))
        .collect();
    compile(&specs, &CompilerConfig::default()).code
}

/// Items must come back sorted by input index with the same functions a
/// serial cold pass recovers.
fn assert_matches_serial(result: &BatchResult, codes: &[Vec<u8>]) {
    assert_eq!(result.items.len(), codes.len());
    for (i, item) in result.items.iter().enumerate() {
        assert_eq!(item.index, i, "items must be sorted by input index");
        let reference = SigRec::new().recover_cold(&codes[i]);
        assert_eq!(
            item.functions.len(),
            reference.len(),
            "contract {i}: function count diverged from serial recovery"
        );
        for (got, want) in item.functions.iter().zip(&reference) {
            assert_eq!(got.selector, want.selector);
            assert_eq!(got.params, want.params, "contract {i} {:?}", got.selector);
        }
    }
}

#[test]
fn empty_batch_is_a_clean_no_op() {
    for workers in [0, 1, 8] {
        let result = recover_batch(&SigRec::new(), &[], workers);
        assert!(result.items.is_empty());
        assert_eq!(result.dedup.total_contracts, 0);
        assert_eq!(result.dedup.distinct_contracts, 0);
        assert_eq!(result.dedup.dedup_rate(), 0.0);
        let naive = recover_batch_naive(&SigRec::new(), &[], workers);
        assert!(naive.items.is_empty());
    }
}

#[test]
fn zero_workers_clamps_to_one() {
    let codes = vec![
        code(&["transfer(address,uint256)"]),
        code(&["burn(uint256)"]),
    ];
    let result = recover_batch(&SigRec::new(), &codes, 0);
    assert_matches_serial(&result, &codes);
    assert_matches_serial(&recover_batch_naive(&SigRec::new(), &codes, 0), &codes);
}

#[test]
fn single_contract_single_worker() {
    let codes = vec![code(&[
        "approve(address,uint256)",
        "allowance(address,address)",
    ])];
    let result = recover_batch(&SigRec::new(), &codes, 1);
    assert_matches_serial(&result, &codes);
    assert_eq!(result.dedup.total_contracts, 1);
    assert_eq!(result.dedup.distinct_contracts, 1);
}

#[test]
fn far_more_workers_than_jobs() {
    // 64 workers for 3 contracts: only three run (the caller and two
    // spawned), and the results stay position-for-position identical to
    // the serial reference.
    let codes = vec![
        code(&["transfer(address,uint256)"]),
        code(&["sum(uint256[])", "set(bytes)"]),
        code(&["note(string)"]),
    ];
    let result = recover_batch(&SigRec::new(), &codes, 64);
    assert_matches_serial(&result, &codes);
    assert_matches_serial(&recover_batch_naive(&SigRec::new(), &codes, 64), &codes);
}

#[test]
fn contracts_without_a_dispatcher_yield_empty_results() {
    // A bare STOP and a straight-line arithmetic stub: neither has a
    // selector comparison, so extraction finds no entries and the batch
    // item must be present but empty — not dropped, not an error.
    let stop_only = vec![0x00];
    let straight_line = vec![0x60, 0x01, 0x60, 0x02, 0x01, 0x50, 0x00];
    let codes = vec![stop_only, code(&["mark(uint8)"]), straight_line];
    for workers in [1, 4] {
        let dedup = recover_batch(&SigRec::new(), &codes, workers);
        let naive = recover_batch_naive(&SigRec::new(), &codes, workers);
        for result in [&dedup, &naive] {
            assert_eq!(result.items.len(), 3);
            assert!(result.items[0].functions.is_empty());
            assert_eq!(result.items[1].functions.len(), 1);
            assert!(result.items[2].functions.is_empty());
        }
        assert_matches_serial(&dedup, &codes);
    }
}

#[test]
fn duplicate_heavy_batch_fans_out_at_every_worker_count() {
    // 12 contracts, 3 distinct: dedup accounting must report the 4×
    // duplication and the fan-out items must still match the naive
    // scheduler at worker counts below, at, and above the job count.
    let distinct = [
        code(&["transfer(address,uint256)", "balanceOf(address)"]),
        code(&["sum(uint256[])"]),
        code(&["pair(uint8,uint16)"]),
    ];
    let codes: Vec<Vec<u8>> = (0..12).map(|i| distinct[i % 3].clone()).collect();
    for workers in [1, 3, 12, 32] {
        let result = recover_batch(&SigRec::new(), &codes, workers);
        assert_eq!(result.dedup.total_contracts, 12);
        assert_eq!(result.dedup.distinct_contracts, 3);
        assert_matches_serial(&result, &codes);
    }
}
