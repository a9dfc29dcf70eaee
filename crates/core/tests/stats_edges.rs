//! Edge-case locks for the telemetry types: hit rates over zero lookups
//! and a memory-only cache's disk counters. These are the values
//! dashboards divide by and alert on — a NaN here becomes a paging
//! incident there.

use sigrec_core::{RecoveryCache, SigRec, StoreStats};

#[test]
fn zero_lookup_hit_rates_are_zero_not_nan() {
    let stats = RecoveryCache::new().stats();
    assert_eq!(stats.contract_hit_rate(), 0.0);
    assert_eq!(stats.function_hit_rate(), 0.0);
    assert_eq!(stats.program_hit_rate(), 0.0);
    assert_eq!(stats.disk_hit_rate(), 0.0);
    // The same through a fresh pipeline handle.
    let stats = SigRec::new().cache_stats();
    assert!(!stats.contract_hit_rate().is_nan());
    assert_eq!(stats.contract_hit_rate(), 0.0);
    // And for an idle persistent tier's own counters.
    let idle = StoreStats::default();
    assert_eq!(idle.disk_hit_rate(), 0.0);
    assert!(!idle.disk_hit_rate().is_nan());
}

#[test]
fn memory_only_cache_reports_no_disk_activity() {
    let sigrec = SigRec::new();
    assert!(sigrec.store_stats().is_none());
    let _ = sigrec.recover(&[0x60, 0x00, 0x60, 0x00, 0xf3]);
    let stats = sigrec.cache_stats();
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(stats.disk_misses, 0);
    assert_eq!(stats.disk_hit_rate(), 0.0);
}
