//! Batch invariants over the dispatcher zoo: tiny proxies recover to
//! empty results with one latency each, and the latency-histogram
//! bookkeeping stays consistent on a mixed proxy/diamond/giant workload.

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
    assert_eq!(batch.contract_latency_hist.count() as usize, codes.len());
    assert!(batch.items.iter().all(|i| i.functions.is_empty()));
}

#[test]
fn mixed_zoo_batch_keeps_histogram_invariants() {
    let mut codes = deployed(ScenarioClass::MinimalProxy);
    codes.extend(deployed(ScenarioClass::Diamond));
    let giant = generate(AdversarialKind::GiantDispatcher, 5);
    codes.push(giant.clone());
    codes.push(giant); // duplicate — latencies are per *distinct* code
    let distinct = codes.len() - 1;

    let batch = recover_batch(&SigRec::new(), &codes, 4);
    assert_eq!(batch.dedup.distinct_contracts, distinct);

    // Histogram bookkeeping: one latency per distinct contract, bucket
    // counts summing to the total, monotone quantiles, and a max that
    // dominates the raw latencies.
    let hist = &batch.contract_latency_hist;
    assert_eq!(hist.count() as usize, distinct);
    assert_eq!(batch.contract_latencies.len(), distinct);
    assert_eq!(hist.buckets().iter().sum::<u64>(), hist.count());
    assert!(hist.p50() <= hist.p90());
    assert!(hist.p90() <= hist.p99());
    let raw_max = batch
        .contract_latencies
        .iter()
        .copied()
        .max()
        .unwrap_or_default();
    assert!(hist.max() >= raw_max);

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
