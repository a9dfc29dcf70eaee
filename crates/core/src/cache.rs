//! Content-addressed recovery cache.
//!
//! Deployed EVM bytecode is massively duplicated — factory clones, proxy
//! templates and copy-pasted token contracts mean the same runtime code
//! appears thousands of times on chain. The cache memoises whole
//! contracts, keyed by `keccak256(runtime code)`: a byte-identical
//! contract is recovered once and every later [`SigRec::recover`] call
//! returns the memoised result. Every dispatch entry of a contract that
//! misses is explored and inferred; functions are not memoised on their
//! own (see INTERNALS.md for why the function level went).
//!
//! The cache is shared: cloning a [`SigRec`] clones an `Arc` handle, so all
//! batch workers populate and profit from one table.
//!
//! A [`PersistentStore`] can sit beneath the contract level
//! ([`RecoveryCache::persistent`]): misses read through to disk, seals
//! write behind to disk, and results survive the process — see
//! [`crate::store`] for the on-disk format and its crash-safety rules.
//!
//! [`SigRec::recover`]: crate::SigRec::recover
//! [`SigRec`]: crate::SigRec

use crate::infer::Language;
use crate::outcome::{BudgetKind, DelegateTarget, Diagnostic};
use crate::pipeline::RecoveredFunction;
use crate::rules::RuleId;
use crate::store::{PersistentStore, StoreStats};
use sigrec_abi::AbiType;
use sigrec_evm::{Disassembly, Program};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One function's recovery without its selector and entry pc. Nothing
/// stores it any more; kept only for `perfbench/src/trace.rs`, whose
/// traced driver builds one to pass to [`RecoveryCache::store_function`].
#[derive(Clone, Debug)]
pub struct CachedFunction {
    /// Recovered parameter types in order.
    pub params: Vec<AbiType>,
    /// Detected source language.
    pub language: Language,
    /// Rules applied during recovery.
    pub rules: Vec<RuleId>,
    /// Budgets the exploration ran into.
    pub budgets: Vec<BudgetKind>,
    /// The delegatecall target when the body is a router.
    pub delegate: Option<DelegateTarget>,
}

/// A memoised whole-contract recovery: the functions plus the
/// extraction-level diagnostics (dispatcher truncation, malformed code).
/// Per-function budget diagnostics are reconstructed from the functions'
/// own `budgets`, so they are not duplicated here.
#[derive(Debug, Default)]
pub struct CachedContract {
    /// Recovered functions, dispatcher order — `Arc`-shared so batch
    /// fan-out and warm lookups never clone function vectors.
    pub functions: Arc<Vec<RecoveredFunction>>,
    /// Extraction-level diagnostics observed when the contract was
    /// planned.
    pub extraction_diags: Vec<Diagnostic>,
}

/// Hit/miss counters of the contract level and its persistent tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Contract-level lookups that found a memoised result.
    pub contract_hits: u64,
    /// Contract-level lookups that missed.
    pub contract_misses: u64,
    /// Always 0: functions are not memoised. Kept only for
    /// `perfbench/src/{run,main}.rs`, which sums and compares it.
    pub function_hits: u64,
    /// Dispatch entries that a cache-reading recovery (`recover`, the
    /// deduplicating batch) ran, one per entry. Kept only for
    /// `perfbench/src/{run,main}.rs`, which checks it against its traced
    /// run's count of explored functions.
    pub function_misses: u64,
    /// Always 0: programs are never cached. Kept only for
    /// `perfbench/src/run.rs`, which sums it.
    pub program_hits: u64,
    /// [`RecoveryCache::program_for`] calls, each of which built a
    /// [`Program`].
    pub program_misses: u64,
    /// Contract lookups that missed memory but were served from the
    /// persistent tier (a subset of `contract_hits`). Zero without a
    /// [`PersistentStore`].
    pub disk_hits: u64,
    /// Contract lookups that missed both memory and disk. Zero without
    /// a [`PersistentStore`].
    pub disk_misses: u64,
}

impl CacheStats {
    /// Fraction of contract lookups served from the cache (0 when idle).
    pub fn contract_hit_rate(&self) -> f64 {
        rate(self.contract_hits, self.contract_misses)
    }

    /// Always 0, since [`CacheStats::function_hits`] is. Kept only for
    /// `perfbench/src/main.rs`, which reports it as
    /// `cache.function_hit_rate`.
    pub fn function_hit_rate(&self) -> f64 {
        rate(self.function_hits, self.function_misses)
    }

    /// Fraction of program lookups served from the cache: always 0, since
    /// every program is built fresh. Kept only for `perfbench/src/main.rs`,
    /// which reports it as `cache.program_hit_rate`.
    pub fn program_hit_rate(&self) -> f64 {
        rate(self.program_hits, self.program_misses)
    }

    /// Fraction of disk probes served from the persistent tier (0 when
    /// idle or when no store is attached).
    pub fn disk_hit_rate(&self) -> f64 {
        rate(self.disk_hits, self.disk_misses)
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Where [`RecoveryCache::program_for`] found its program: always built
/// fresh. Kept only for `perfbench/src/trace.rs`, which attributes
/// `program_for` time by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramSource {
    /// Built from the disassembly by this call.
    Compiled,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// The optional persistent tier: read-through on contract misses,
    /// write-behind on contract seals.
    store: Option<PersistentStore>,
    contracts: Mutex<HashMap<[u8; 32], Arc<CachedContract>>>,
    contract_hits: AtomicU64,
    contract_misses: AtomicU64,
    function_misses: AtomicU64,
    program_misses: AtomicU64,
}

/// A shared, thread-safe, content-addressed memo of recovery results.
#[derive(Clone, Debug, Default)]
pub struct RecoveryCache {
    inner: Arc<CacheInner>,
}

impl RecoveryCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty in-memory cache backed by `store`: contract-level misses
    /// read through to disk, contract-level seals write behind to disk.
    /// The disk tier inherits the memory tier's seal discipline and adds
    /// its own gate (see [`PersistentStore::append`]), so only complete,
    /// deterministic, direct-recovery results ever reach a segment.
    pub fn persistent(store: PersistentStore) -> Self {
        RecoveryCache {
            inner: Arc::new(CacheInner {
                store: Some(store),
                ..Default::default()
            }),
        }
    }

    /// The persistent tier, when one is attached.
    pub fn store(&self) -> Option<&PersistentStore> {
        self.inner.store.as_ref()
    }

    /// A snapshot of the persistent tier's counters, when one is
    /// attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.inner.store.as_ref().map(|s| s.stats())
    }

    /// Flushes the persistent tier (segment fsync + index write); a
    /// no-op without one.
    pub fn flush_store(&self) -> std::io::Result<()> {
        match &self.inner.store {
            Some(store) => store.flush(),
            None => Ok(()),
        }
    }

    /// Looks up a whole contract by its code hash: memory first, then
    /// the persistent tier. A disk hit reads that contract's one record
    /// and is promoted into the memory map so later duplicates skip the
    /// read and the deserialisation.
    pub fn lookup_contract(&self, key: &[u8; 32]) -> Option<Arc<CachedContract>> {
        let hit = self
            .inner
            .contracts
            .lock()
            .expect("cache poisoned")
            .get(key)
            .cloned();
        if let Some(hit) = hit {
            self.inner.contract_hits.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        if let Some(store) = &self.inner.store {
            if let Some((functions, extraction_diags)) = store.lookup(key) {
                let entry = Arc::new(CachedContract {
                    functions: Arc::new(functions),
                    extraction_diags,
                });
                self.inner
                    .contracts
                    .lock()
                    .expect("cache poisoned")
                    .entry(*key)
                    .or_insert_with(|| Arc::clone(&entry));
                self.inner.contract_hits.fetch_add(1, Ordering::Relaxed);
                return Some(entry);
            }
        }
        self.inner.contract_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Memoises a whole contract's recovery with its extraction-level
    /// diagnostics, writing through to the persistent tier when one is
    /// attached. Callers must not store deadline-truncated results
    /// (they are nondeterministic — a warm lookup would replay one run's
    /// arbitrary cut); the disk tier additionally rejects them itself. A
    /// disk write error is absorbed (counted in
    /// [`StoreStats::io_errors`]) — persistence is an accelerator, never
    /// a correctness dependency.
    pub fn store_contract(
        &self,
        key: [u8; 32],
        functions: Vec<RecoveredFunction>,
        extraction_diags: Vec<Diagnostic>,
    ) {
        self.store_shared(key, Arc::new(functions), extraction_diags);
    }

    /// [`RecoveryCache::store_contract`] keeping the caller's `Arc`: the
    /// memory tier shares the result the pipeline returns.
    pub(crate) fn store_shared(
        &self,
        key: [u8; 32],
        functions: Arc<Vec<RecoveredFunction>>,
        extraction_diags: Vec<Diagnostic>,
    ) {
        if let Some(store) = &self.inner.store {
            let _ = store.append(key, &functions, &extraction_diags);
        }
        self.inner.contracts.lock().expect("cache poisoned").insert(
            key,
            Arc::new(CachedContract {
                functions,
                extraction_diags,
            }),
        );
    }

    /// [`RecoveryCache::store_contract`]; the program is ignored, since
    /// programs are not persisted. Kept only for `perfbench/src/trace.rs`.
    pub fn store_contract_with_program(
        &self,
        key: [u8; 32],
        functions: Vec<RecoveredFunction>,
        extraction_diags: Vec<Diagnostic>,
        _program: Option<&Program>,
    ) {
        self.store_contract(key, functions, extraction_diags);
    }

    /// Counts one dispatch entry run by a cache-reading recovery in
    /// [`CacheStats::function_misses`].
    pub(crate) fn count_function_run(&self) {
        self.inner.function_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one entry in [`CacheStats::function_misses`] and returns
    /// `None`: functions are not memoised. Kept only for
    /// `perfbench/src/trace.rs`, whose traced driver probes it once per
    /// entry where the pipeline counts one.
    pub fn lookup_function(&self, _span_hash: u64, _entry: usize) -> Option<CachedFunction> {
        self.count_function_run();
        None
    }

    /// Does nothing: functions are not memoised. Kept only for
    /// `perfbench/src/trace.rs`.
    pub fn store_function(&self, _span_hash: u64, _entry: usize, _cached: CachedFunction) {}

    /// Builds the [`Program`] (the loop-head guards every function
    /// explore of the contract shares) and counts the call in
    /// [`CacheStats::program_misses`]. Nothing is cached: a contract that
    /// seals is served whole from the contract level afterwards. `key` and
    /// `entries` are unused; the signature is kept only for
    /// `perfbench/src/trace.rs`, whose traced driver mirrors the
    /// pipeline's one call per cold keyed plan.
    pub fn program_for(
        &self,
        _key: &[u8; 32],
        disasm: &Disassembly,
        _entries: &[usize],
    ) -> (Arc<Program>, ProgramSource) {
        self.inner.program_misses.fetch_add(1, Ordering::Relaxed);
        (Arc::new(Program::new(disasm)), ProgramSource::Compiled)
    }

    /// A snapshot of the hit/miss counters (both tiers).
    pub fn stats(&self) -> CacheStats {
        let (disk_hits, disk_misses) = match &self.inner.store {
            Some(store) => {
                let s = store.stats();
                (s.disk_hits, s.disk_misses)
            }
            None => (0, 0),
        };
        CacheStats {
            contract_hits: self.inner.contract_hits.load(Ordering::Relaxed),
            contract_misses: self.inner.contract_misses.load(Ordering::Relaxed),
            function_hits: 0,
            function_misses: self.inner.function_misses.load(Ordering::Relaxed),
            program_hits: 0,
            program_misses: self.inner.program_misses.load(Ordering::Relaxed),
            disk_hits,
            disk_misses,
        }
    }

    /// Number of memoised contracts.
    pub fn contract_count(&self) -> usize {
        self.inner.contracts.lock().expect("cache poisoned").len()
    }
}

/// Always 0: nothing is keyed by a function's bytes any more. Kept only
/// for `perfbench/src/trace.rs`, which passes the result to
/// [`RecoveryCache::lookup_function`].
pub fn body_span_hash(_code: &[u8], _entry: usize, _end: usize) -> u64 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_level_round_trip_and_stats() {
        let cache = RecoveryCache::new();
        let key = [7u8; 32];
        assert!(cache.lookup_contract(&key).is_none());
        cache.store_contract(key, Vec::new(), Vec::new());
        assert!(cache.lookup_contract(&key).is_some());
        let stats = cache.stats();
        assert_eq!(stats.contract_hits, 1);
        assert_eq!(stats.contract_misses, 1);
        assert!((stats.contract_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn function_shims_count_one_miss_and_store_nothing() {
        let cache = RecoveryCache::new();
        let hash = body_span_hash(&[0x60, 0x01], 0, 2);
        assert!(cache.lookup_function(hash, 7).is_none());
        cache.store_function(
            hash,
            7,
            CachedFunction {
                params: Vec::new(),
                language: Language::Solidity,
                rules: Vec::new(),
                budgets: Vec::new(),
                delegate: None,
            },
        );
        assert!(cache.lookup_function(hash, 7).is_none());
        let stats = cache.stats();
        assert_eq!((stats.function_hits, stats.function_misses), (0, 2));
        assert_eq!(stats.function_hit_rate(), 0.0);
    }

    #[test]
    fn clones_share_storage() {
        let a = RecoveryCache::new();
        let b = a.clone();
        a.store_contract([1u8; 32], Vec::new(), Vec::new());
        assert!(b.lookup_contract(&[1u8; 32]).is_some());
    }

    #[test]
    fn contract_entries_carry_extraction_diags() {
        use crate::outcome::{Diagnostic, TruncationKind};
        let cache = RecoveryCache::new();
        let diag = Diagnostic::DispatcherTruncated(TruncationKind::Steps);
        cache.store_contract([2u8; 32], Vec::new(), vec![diag.clone()]);
        let hit = cache.lookup_contract(&[2u8; 32]).unwrap();
        assert_eq!(hit.extraction_diags, vec![diag]);
    }

    #[test]
    fn idle_rates_are_zero() {
        let stats = RecoveryCache::new().stats();
        assert_eq!(stats.contract_hit_rate(), 0.0);
        assert_eq!(stats.function_hit_rate(), 0.0);
    }

    #[test]
    fn programs_live_as_long_as_their_holders() {
        // PUSH1 0x04 JUMP INVALID JUMPDEST STOP
        let disasm = Disassembly::new(&[0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00]);
        let key = [9u8; 32];

        // Nothing is memoised, so every call builds and the caller's
        // `Arc` is the program's only owner.
        let cache = RecoveryCache::new();
        let (first, source) = cache.program_for(&key, &disasm, &[0]);
        assert_eq!(source, ProgramSource::Compiled);
        let (_second, source) = cache.program_for(&key, &disasm, &[0]);
        assert_eq!(source, ProgramSource::Compiled);
        let stats = cache.stats();
        assert_eq!((stats.program_hits, stats.program_misses), (0, 2));
        let weak = Arc::downgrade(&first);
        drop(first);
        assert!(weak.upgrade().is_none(), "the cache kept the program alive");
    }

    #[test]
    fn sealing_with_a_program_writes_only_the_contract_record() {
        let disasm = Disassembly::new(&[0x60, 0x04, 0x56, 0xfe, 0x5b, 0x00]);
        let dir = std::env::temp_dir().join(format!("sigrec-cache-program-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let bytes = |with_program: bool| {
            let _ = std::fs::remove_dir_all(&dir);
            let cache = RecoveryCache::persistent(PersistentStore::open(&dir).unwrap());
            let (program, _) = cache.program_for(&[9u8; 32], &disasm, &[]);
            let program = with_program.then_some(&*program);
            cache.store_contract_with_program([9u8; 32], Vec::new(), Vec::new(), program);
            let stats = cache.store_stats().unwrap();
            assert_eq!(stats.records_appended, 1);
            stats.bytes_appended
        };
        assert_eq!(bytes(true), bytes(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_tier_reads_through_and_writes_behind() {
        let dir = std::env::temp_dir().join(format!("sigrec-cache-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = RecoveryCache::persistent(PersistentStore::open(&dir).unwrap());
            cache.store_contract([5u8; 32], Vec::new(), Vec::new());
            cache.flush_store().unwrap();
        }
        // A fresh in-memory cache over the same directory: the lookup
        // misses memory, hits disk, and promotes into the memory map.
        let cache = RecoveryCache::persistent(PersistentStore::open(&dir).unwrap());
        assert_eq!(cache.contract_count(), 0);
        assert!(cache.lookup_contract(&[5u8; 32]).is_some());
        assert_eq!(cache.contract_count(), 1);
        let stats = cache.stats();
        assert_eq!(stats.contract_hits, 1);
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.disk_misses, 0);
        // The second lookup is a pure memory hit: no new disk probe.
        assert!(cache.lookup_contract(&[5u8; 32]).is_some());
        assert_eq!(cache.stats().disk_hits, 1);
        // An absent key misses both tiers.
        assert!(cache.lookup_contract(&[6u8; 32]).is_none());
        let stats = cache.stats();
        assert_eq!(stats.disk_misses, 1);
        assert!((stats.disk_hit_rate() - 0.5).abs() < 1e-12);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
