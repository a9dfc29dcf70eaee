//! Content-addressed recovery cache.
//!
//! Deployed EVM bytecode is massively duplicated — factory clones, proxy
//! templates and copy-pasted token contracts mean the same runtime code
//! appears thousands of times on chain. The cache makes repeated recovery
//! free at two granularities:
//!
//! - **contract level**, keyed by `keccak256(runtime code)`: a byte-identical
//!   contract is recovered once and every later [`SigRec::recover`] call
//!   returns the memoised result;
//! - **function level**, keyed by `(body-extent hash, entry pc)`: two
//!   contracts that differ anywhere *outside* one function's body still
//!   share that function's recovery. The extent hash covers
//!   `code[entry..end)` where `end` is the next dispatch entry (or the end
//!   of code) — so a shared leading function hits even when the trailing
//!   functions differ. Soundness is enforced dynamically: a function is
//!   memoised at this level only when TASE stayed inside the hashed extent
//!   on every path (`FunctionFacts::visited_below_entry` is false and
//!   `FunctionFacts::max_pc_end` does not pass `end`), because only then
//!   does its behaviour depend solely on the hashed bytes.
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
use crate::store::{PersistentStore, ProgramLookup, StoreStats};
use sigrec_abi::AbiType;
use sigrec_evm::{Disassembly, Program};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The contract-independent part of one function's recovery. The selector
/// and entry pc are *not* cached — they come from the dispatcher of
/// whichever contract is being recovered.
#[derive(Clone, Debug)]
pub struct CachedFunction {
    /// Recovered parameter types in order.
    pub params: Vec<AbiType>,
    /// Detected source language.
    pub language: Language,
    /// Rules applied during recovery.
    pub rules: Vec<RuleId>,
    /// Budgets the original exploration ran into. Deterministic budgets
    /// are memoised with the result; deadline-truncated recoveries are
    /// never stored (the caller gates that), so `Deadline` never appears
    /// here.
    pub budgets: Vec<BudgetKind>,
    /// The delegatecall target when the body is a router, so warm
    /// lookups replay the same `UnresolvedIndirection` diagnostic the
    /// cold path reported. The *resolution* of the target (via
    /// [`SigRec::recover_linked`](crate::SigRec::recover_linked)) is
    /// never memoised here: it depends on the caller's link set, not on
    /// this contract's bytes.
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

/// Hit/miss counters for both cache levels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Contract-level lookups that found a memoised result.
    pub contract_hits: u64,
    /// Contract-level lookups that missed.
    pub contract_misses: u64,
    /// Function-level lookups that found a memoised result.
    pub function_hits: u64,
    /// Function-level lookups that missed.
    pub function_misses: u64,
    /// Compiled-program lookups that found a shared [`Program`].
    pub program_hits: u64,
    /// Compiled-program lookups that compiled fresh.
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

    /// Fraction of function lookups served from the cache (0 when idle).
    pub fn function_hit_rate(&self) -> f64 {
        rate(self.function_hits, self.function_misses)
    }

    /// Fraction of program lookups served from the cache (0 when idle).
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

/// Where [`RecoveryCache::program_for`] found its program — the pipeline
/// attributes compile-phase time by this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramSource {
    /// Shared from the in-memory program map (another worker or an
    /// earlier entry already paid for it).
    Memory,
    /// Decoded from a persisted program record — the compile phase was
    /// skipped entirely.
    Disk,
    /// Compiled fresh (lazily, over the reachable blocks).
    Compiled,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// The optional persistent tier: read-through on contract misses
    /// *and* program misses, write-behind on contract seals (which
    /// persist the compiled program alongside the functions). Only
    /// function-level extent entries stay memory-only — they are an
    /// intra-process sharing optimisation.
    store: Option<PersistentStore>,
    contracts: Mutex<HashMap<[u8; 32], Arc<CachedContract>>>,
    functions: Mutex<HashMap<(u64, usize), CachedFunction>>,
    /// Block-compiled programs, keyed like contracts: a pure function of
    /// the bytes, so entries never invalidate and duplicates across a
    /// batch share one compile.
    programs: Mutex<HashMap<[u8; 32], Arc<Program>>>,
    contract_hits: AtomicU64,
    contract_misses: AtomicU64,
    function_hits: AtomicU64,
    function_misses: AtomicU64,
    program_hits: AtomicU64,
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
    /// and nothing else — the program record stored beside it is left
    /// alone, because a contract hit returns before any program is asked
    /// for. The hit is promoted into the memory map so later duplicates
    /// skip the read and the deserialisation.
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
        self.store_contract_with_program(key, functions, extraction_diags, None);
    }

    /// [`RecoveryCache::store_contract`], additionally persisting the
    /// contract's compiled program so the next process skips the compile
    /// phase. The program is written only when the contract record
    /// itself passes the seal gate — an unsealable recovery persists
    /// nothing at all.
    pub fn store_contract_with_program(
        &self,
        key: [u8; 32],
        functions: Vec<RecoveredFunction>,
        extraction_diags: Vec<Diagnostic>,
        program: Option<&Program>,
    ) {
        if let Some(store) = &self.inner.store {
            if let (Ok(true), Some(program)) =
                (store.append(key, &functions, &extraction_diags), program)
            {
                let _ = store.append_program(key, program);
            }
        }
        self.inner.contracts.lock().expect("cache poisoned").insert(
            key,
            Arc::new(CachedContract {
                functions: Arc::new(functions),
                extraction_diags,
            }),
        );
    }

    /// Looks up one function by `(body-span hash, entry pc)`.
    pub fn lookup_function(&self, span_hash: u64, entry: usize) -> Option<CachedFunction> {
        let hit = self
            .inner
            .functions
            .lock()
            .expect("cache poisoned")
            .get(&(span_hash, entry))
            .cloned();
        match &hit {
            Some(_) => self.inner.function_hits.fetch_add(1, Ordering::Relaxed),
            None => self.inner.function_misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Memoises one function's recovery.
    pub fn store_function(&self, span_hash: u64, entry: usize, cached: CachedFunction) {
        self.inner
            .functions
            .lock()
            .expect("cache poisoned")
            .insert((span_hash, entry), cached);
    }

    /// Returns the block-compiled [`Program`] for the contract hashing to
    /// `key`: memory first, then the persistent tier's program records
    /// ([`PersistentStore::lookup_program`], which checks the checksum,
    /// tag and format version and decodes in one pass, so every program
    /// that runs was verified when it was read), then a fresh lazy
    /// compile over the blocks reachable from `entries` (outside the
    /// lock), memoised on first use. After a restart only `explain` and
    /// a contract whose own record missed get this far; a contract disk
    /// hit never asks for its program. Compilation is a pure function of
    /// the bytes, so when two workers race on the same key the loser's
    /// compile is simply dropped in favour of the first inserted `Arc`.
    /// A stale or corrupt persisted program triggers the recompile; the
    /// recompiled program is returned as [`ProgramSource::Compiled`], so
    /// the plan's seal appends a current-format record that shadows the
    /// bad one.
    pub fn program_for(
        &self,
        key: &[u8; 32],
        disasm: &Disassembly,
        entries: &[usize],
    ) -> (Arc<Program>, ProgramSource) {
        if let Some(hit) = self
            .inner
            .programs
            .lock()
            .expect("cache poisoned")
            .get(key)
            .cloned()
        {
            self.inner.program_hits.fetch_add(1, Ordering::Relaxed);
            return (hit, ProgramSource::Memory);
        }
        if let Some(store) = &self.inner.store {
            // Stale and Miss both fall through to a fresh compile; the
            // store's counters record which it was.
            if let ProgramLookup::Hit(program) = store.lookup_program(key) {
                self.inner.program_hits.fetch_add(1, Ordering::Relaxed);
                let decoded = Arc::new(program);
                let shared = self
                    .inner
                    .programs
                    .lock()
                    .expect("cache poisoned")
                    .entry(*key)
                    .or_insert_with(|| Arc::clone(&decoded))
                    .clone();
                return (shared, ProgramSource::Disk);
            }
        }
        self.inner.program_misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(Program::compile_reachable(disasm, entries));
        let shared = self
            .inner
            .programs
            .lock()
            .expect("cache poisoned")
            .entry(*key)
            .or_insert(compiled)
            .clone();
        (shared, ProgramSource::Compiled)
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
            function_hits: self.inner.function_hits.load(Ordering::Relaxed),
            function_misses: self.inner.function_misses.load(Ordering::Relaxed),
            program_hits: self.inner.program_hits.load(Ordering::Relaxed),
            program_misses: self.inner.program_misses.load(Ordering::Relaxed),
            disk_hits,
            disk_misses,
        }
    }

    /// Number of memoised contracts.
    pub fn contract_count(&self) -> usize {
        self.inner.contracts.lock().expect("cache poisoned").len()
    }

    /// Number of memoised functions.
    pub fn function_count(&self) -> usize {
        self.inner.functions.lock().expect("cache poisoned").len()
    }
}

/// Hashes the function body extent `code[entry..end)` (FNV-1a, 64-bit).
///
/// `end` is clamped to the code length; callers pass the next dispatch
/// entry pc (or `code.len()` for the last body), so the hash covers
/// exactly one function's bytes instead of the whole tail of the
/// contract. Cheap enough to run per dispatcher entry; the
/// `(hash, entry)` pair keys the function-level cache.
pub fn body_span_hash(code: &[u8], entry: usize, end: usize) -> u64 {
    let end = end.min(code.len());
    let span = code.get(entry..end).unwrap_or(&[]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in span {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    fn function_level_round_trip() {
        let cache = RecoveryCache::new();
        assert!(cache.lookup_function(42, 7).is_none());
        cache.store_function(
            42,
            7,
            CachedFunction {
                params: Vec::new(),
                language: Language::Solidity,
                rules: Vec::new(),
                budgets: Vec::new(),
                delegate: None,
            },
        );
        assert!(cache.lookup_function(42, 7).is_some());
        assert!(cache.lookup_function(42, 8).is_none());
        assert_eq!(cache.function_count(), 1);
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
    fn body_span_hash_depends_on_extent_and_bytes() {
        let code = [0x60, 0x01, 0x60, 0x02, 0x01];
        let n = code.len();
        assert_eq!(body_span_hash(&code, 1, n), body_span_hash(&code, 1, n));
        assert_ne!(body_span_hash(&code, 0, n), body_span_hash(&code, 1, n));
        assert_ne!(body_span_hash(&code, 1, 3), body_span_hash(&code, 1, n));
        let mutated = [0x60, 0x01, 0x60, 0x03, 0x01];
        assert_ne!(body_span_hash(&code, 1, n), body_span_hash(&mutated, 1, n));
        // Bytes past the extent don't matter — the point of extent keying.
        assert_eq!(body_span_hash(&code, 1, 3), body_span_hash(&mutated, 1, 3));
        // Out-of-range entries hash the empty span; ends clamp to the code.
        assert_eq!(body_span_hash(&code, 99, 120), body_span_hash(&[], 0, 0));
        assert_eq!(body_span_hash(&code, 1, 99), body_span_hash(&code, 1, n));
    }

    #[test]
    fn idle_rates_are_zero() {
        let stats = RecoveryCache::new().stats();
        assert_eq!(stats.contract_hit_rate(), 0.0);
        assert_eq!(stats.function_hit_rate(), 0.0);
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
