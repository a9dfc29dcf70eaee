//! Batch invariants over the dispatcher zoo: tiny proxies recover to
//! empty results with one latency each, and a mixed proxy/diamond/giant
//! workload keeps one latency per distinct contract and the naive
//! batch's results.

use sigrec_conformance::path_digest;
use sigrec_core::{recover_batch, recover_batch_naive, SigRec};
use sigrec_corpus::adversarial::{generate, AdversarialKind};
use sigrec_corpus::metamorph::Transform;
use sigrec_corpus::scenario::{scenario_corpus, ScenarioClass};

fn deployed(class: ScenarioClass) -> Vec<Vec<u8>> {
    scenario_corpus()
        .iter()
        .filter(|s| s.class == class)
        .map(|s| s.build(&Transform::Identity).deployed)
        .collect()
}

#[test]
fn proxies_recover_to_empty_results_with_one_latency_each() {
    let codes = deployed(ScenarioClass::MinimalProxy);
    assert!(codes.len() >= 2, "corpus carries several proxies");
    for code in &codes {
        assert!(code.len() <= 45, "minimal proxies are at most 45 bytes");
    }
    let batch = recover_batch(&SigRec::new(), &codes, 4);
    assert_eq!(
        batch.heavy_admissions, 0,
        "kept for the benchmark, always 0"
    );
    assert_eq!(batch.contract_latencies.len(), codes.len());
    assert!(batch.items.iter().all(|i| i.functions.is_empty()));
}

#[test]
fn mixed_zoo_batch_keeps_latencies_and_results() {
    let mut codes = deployed(ScenarioClass::MinimalProxy);
    codes.extend(deployed(ScenarioClass::Diamond));
    let giant = generate(AdversarialKind::GiantDispatcher, 5);
    codes.push(giant.clone());
    codes.push(giant); // duplicate — latencies are per *distinct* code
    let distinct = codes.len() - 1;

    let batch = recover_batch(&SigRec::new(), &codes, 4);
    assert_eq!(batch.dedup.distinct_contracts, distinct);

    // One latency per distinct contract.
    assert_eq!(batch.contract_latencies.len(), distinct);

    // And deduplication must not change any individual result.
    let naive = recover_batch_naive(&SigRec::new(), &codes, 4);
    assert_eq!(batch.items.len(), naive.items.len());
    for (a, b) in batch.items.iter().zip(&naive.items) {
        assert_eq!(
            path_digest(&a.functions),
            path_digest(&b.functions),
            "dedup and naive batches disagree on item {}",
            a.index
        );
    }
}
