//! Guarantees of `recover_batch` across worker counts. Workers claim
//! whole distinct contracts off one shared cursor.
//!
//! Three properties the unit tests can't pin from inside `batch.rs`:
//! naive≡dedup result equivalence across the whole worker-count range
//! (including counts far above the distinct-contract count), on a
//! hand-built corpus and on a skew-duplicated `dataset3` one, panic
//! isolation inside a wide contract — the panicking entry is dropped, its
//! 32 siblings survive and fan out to the duplicate — and that a giant
//! dispatcher cannot head-of-line-block small contracts: on two workers
//! the batch takes clearly less wall time than one worker would.

use sigrec_core::exec::TaseConfig;
use sigrec_core::outcome::Diagnostic;
use sigrec_core::{recover_batch, recover_batch_naive, BatchResult, RecoveryCache, SigRec};
use sigrec_corpus::datasets;
use sigrec_solc::{compile, CompilerConfig, FunctionSpec, Visibility};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn contract(decls: &[&str]) -> Vec<u8> {
    let specs: Vec<FunctionSpec> = decls
        .iter()
        .map(|d| FunctionSpec::parse(d, Visibility::External).expect("valid test declaration"))
        .collect();
    compile(&specs, &CompilerConfig::default()).code
}

/// A wide dispatcher, with every entry doing real recovery work.
fn wide_contract(functions: usize) -> Vec<u8> {
    let types = [
        "uint8",
        "bool",
        "address",
        "uint256",
        "bytes4",
        "uint16",
        "int128",
        "bytes",
        "uint256[]",
        "string",
    ];
    let decls: Vec<String> = (0..functions)
        .map(|i| format!("w{i}({})", types[i % types.len()]))
        .collect();
    let refs: Vec<&str> = decls.iter().map(String::as_str).collect();
    contract(&refs)
}

/// 30 `dataset3` templates duplicated with a head-heavy (harmonic) skew,
/// as clones are on chain: template `i` appears `30 / (i + 1)` times, at
/// least once, dealt out in rounds so duplicates are interleaved.
fn skewed_dataset3() -> Vec<Vec<u8>> {
    let templates: Vec<Vec<u8>> = datasets::dataset3(30, 0x516_7EC + 40)
        .contracts
        .into_iter()
        .map(|c| c.code)
        .collect();
    let copies = |i: usize| (templates.len() / (i + 1)).max(1);
    (0..templates.len())
        .flat_map(|round| {
            templates
                .iter()
                .enumerate()
                .filter(move |&(i, _)| copies(i) > round)
                .map(|(_, code)| code.clone())
        })
        .collect()
}

fn assert_equivalent(dedup: &BatchResult, naive: &BatchResult, codes: &[Vec<u8>], label: &str) {
    assert_eq!(dedup.items.len(), codes.len(), "{label}");
    assert_eq!(naive.items.len(), codes.len(), "{label}");
    for (d, n) in dedup.items.iter().zip(&naive.items) {
        assert_eq!(d.index, n.index, "{label}");
        assert_eq!(
            d.functions.len(),
            n.functions.len(),
            "{label}: contract {} function count",
            d.index
        );
        for (df, nf) in d.functions.iter().zip(n.functions.iter()) {
            assert_eq!(df.selector, nf.selector, "{label}: contract {}", d.index);
            assert_eq!(df.entry, nf.entry, "{label}: contract {}", d.index);
            assert_eq!(
                df.params, nf.params,
                "{label}: contract {} {:?}",
                d.index, df.selector
            );
            assert_eq!(df.language, nf.language, "{label}: contract {}", d.index);
        }
    }
    let rules = |r: &BatchResult| r.rule_stats.iter().collect::<Vec<_>>();
    assert_eq!(rules(dedup), rules(naive), "{label}: rule stats");
}

#[test]
fn naive_and_dedup_agree_across_the_worker_range() {
    // A mixed corpus with duplicate fan-out: 18 contracts, 6 distinct,
    // one of them 34 entries wide; and 111 generated contracts over 30
    // `dataset3` templates, skewed toward the first. Worker counts span
    // serial (on the caller alone), moderate, and far above the
    // distinct-group count (capped at 6 workers on the first corpus,
    // the caller and five spawned; the surplus is never started).
    let distinct = [
        contract(&["transfer(address,uint256)", "balanceOf(address)"]),
        contract(&["sum(uint256[])"]),
        contract(&["pair(uint8,uint16)", "mix(bytes,bool)"]),
        contract(&["note(string)"]),
        contract(&["burn(uint256)", "mint(address,uint256)"]),
        wide_contract(34),
    ];
    let codes: Vec<Vec<u8>> = (0..18)
        .map(|i| distinct[i % distinct.len()].clone())
        .collect();
    let skewed = skewed_dataset3();
    let skewed_distinct = skewed.iter().collect::<HashSet<_>>().len();
    assert!(skewed.len() > 3 * skewed_distinct, "a duplicated corpus");
    for workers in [1, 2, 4, 8, 16, 64] {
        let dedup = recover_batch(&SigRec::new(), &codes, workers);
        let naive = recover_batch_naive(&SigRec::new(), &codes, workers);
        assert_equivalent(&dedup, &naive, &codes, &format!("workers={workers}"));
        assert_eq!(dedup.dedup.total_contracts, 18);
        assert_eq!(dedup.dedup.distinct_contracts, 6);
        assert_eq!(naive.dedup.distinct_contracts, 18);
        // Duplicates share one Arc (indices 0, 6, 12 are the same code).
        assert!(Arc::ptr_eq(
            &dedup.items[0].functions,
            &dedup.items[6].functions
        ));
        assert!(Arc::ptr_eq(
            &dedup.items[0].functions,
            &dedup.items[12].functions
        ));
        // Latency accounting covers exactly the distinct work.
        assert_eq!(dedup.contract_latencies.len(), 6);

        let label = format!("skewed dataset3, workers={workers}");
        let dedup = recover_batch(&SigRec::new(), &skewed, workers);
        let naive = recover_batch_naive(&SigRec::new(), &skewed, workers);
        assert_equivalent(&dedup, &naive, &skewed, &label);
        assert_eq!(dedup.dedup.distinct_contracts, skewed_distinct, "{label}");
        assert_eq!(dedup.contract_latencies.len(), skewed_distinct, "{label}");
    }
}

#[test]
fn wide_contract_panic_does_not_poison_its_siblings() {
    // The victim has 33 entries and the injected panic fires on the
    // 17th: the claim must catch it, run the victim's other 32 entries,
    // and still assemble them into the partial result, while the
    // bystanders on other workers finish untouched.
    let victim = wide_contract(33);
    let victim_fns = SigRec::new().recover_cold(&victim);
    assert_eq!(victim_fns.len(), 33);
    let poisoned_selector = victim_fns[16].selector;
    let bystanders: Vec<Vec<u8>> = (0..6)
        .map(|i| contract(&[&format!("clean{i}(uint256)")]))
        .collect();
    let mut codes = vec![victim.clone()];
    codes.extend(bystanders);
    codes.push(victim); // duplicate of the poisoned contract
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let config = TaseConfig {
        panic_on_selector: Some(poisoned_selector.as_u32()),
        ..TaseConfig::default()
    };
    let cache = RecoveryCache::new();
    let result = recover_batch(
        &SigRec::with_config(config).with_cache(cache.clone()),
        &codes,
        8,
    );
    std::panic::set_hook(hook);
    assert_eq!(result.items.len(), 8);
    for item in &result.items {
        if item.index == 0 || item.index == 7 {
            // The poisoned entry is missing; the other 32 survive, with
            // an internal-error diagnostic recording the panic.
            assert_eq!(item.functions.len(), 32, "victim #{}", item.index);
            assert!(
                item.diagnostics
                    .iter()
                    .any(|d| matches!(d, Diagnostic::InternalError { context } if context.contains("panicked"))),
                "victim #{}: {:?}",
                item.index,
                item.diagnostics
            );
        } else {
            assert_eq!(item.functions.len(), 1, "bystander #{}", item.index);
            assert!(
                item.diagnostics.is_empty(),
                "bystander #{} contaminated: {:?}",
                item.index,
                item.diagnostics
            );
        }
    }
    // Both victim copies fan out from the one (partial) recovery.
    assert!(Arc::ptr_eq(
        &result.items[0].functions,
        &result.items[7].functions
    ));
    // A poisoned contract is never sealed: the batch's cache holds the
    // six bystanders only.
    assert_eq!(cache.contract_count(), 6);
}

#[test]
fn giant_dispatcher_does_not_head_of_line_block_small_contracts() {
    // One giant (128 entries, each doing real TASE work — the naive
    // batch bypasses the cache, so repeated body shapes don't collapse
    // into hits) in front of 800 distinct small contracts, on two
    // workers. One worker claims the giant while the other keeps
    // claiming smalls off the cursor.
    let giant = wide_contract(128);
    let types = ["uint8", "bool", "address", "uint16", "bytes4"];
    let mut codes = vec![giant];
    for i in 0..800 {
        codes.push(contract(&[&format!("s{i}({})", types[i % types.len()])]));
    }
    // A latency covers one claim, so it cannot show a small waiting
    // for the giant; the batch's wall time can. On one worker every
    // small waits behind the giant and the batch takes at least the sum
    // of all latencies, giant included. Here one worker holds the giant
    // while the other drains the smalls, so the two overlap and the
    // batch takes about half that sum. Latencies are wall-clock too: if
    // the two workers share a core, the sum stretches with the batch.
    // A loaded machine can still start the second worker late, so
    // allow three attempts; a batch that blocks fails every one.
    let mut attempts = Vec::new();
    let result = loop {
        let started = Instant::now();
        let result = recover_batch_naive(&SigRec::new(), &codes, 2);
        let wall = started.elapsed();
        let one_worker: Duration = result.contract_latencies.iter().sum();
        attempts.push((wall, one_worker));
        if wall * 4 < one_worker * 3 {
            break result;
        }
        assert!(
            attempts.len() < 3,
            "(batch wall, one worker's sum) per attempt: {attempts:?}: \
             the batch never took clearly less than one worker, so the \
             smalls waited on the giant"
        );
    };
    assert_eq!(result.items.len(), 801);
    assert_eq!(result.items[0].functions.len(), 128);
    // Latencies are recorded per group in input order: index 0 is the
    // giant.
    assert_eq!(result.contract_latencies.len(), 801);
    let giant_latency = result.contract_latencies[0];
    // Each latency is its contract's own work, so the smalls' stay far
    // below the giant's 128 functions. OS preemption on a loaded box can
    // inflate a few smalls mid-flight, so assert the distribution, not
    // each sample: the median stays well under the giant and outliers
    // above half the giant's latency stay rare.
    let smalls = &result.contract_latencies[1..];
    let mut sorted = smalls.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    assert!(
        median * 10 < giant_latency,
        "median small latency {median:?} is not clearly below the giant's {giant_latency:?}"
    );
    let slow = smalls.iter().filter(|&&s| s >= giant_latency / 2).count();
    assert!(
        slow <= 20,
        "{slow} of 800 small contracts took at least half the giant's \
         latency ({:?})",
        giant_latency / 2
    );
    // Correctness spot-check against serial recovery.
    for &i in &[0usize, 1, 400, 800] {
        let reference = SigRec::new().recover_cold(&codes[i]);
        assert_eq!(result.items[i].functions.len(), reference.len());
        for (got, want) in result.items[i].functions.iter().zip(&reference) {
            assert_eq!(got.selector, want.selector);
            assert_eq!(got.params, want.params);
        }
    }
}
