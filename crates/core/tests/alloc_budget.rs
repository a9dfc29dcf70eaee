//! Allocation budgets: of cold recovery, and of opening a store.
//!
//! Recovery keeps, per thread, every buffer that does not escape into a
//! result: the disassembly's tables, the dispatcher walk's scratch, the
//! expression arena, the exploration scratch, the fact buffers and the
//! inference indexes. So
//! once a thread is warm, a cold contract should allocate little more
//! than its own result. A counting global allocator (this file is its own
//! test binary) tallies allocation calls and requested bytes per thread,
//! and a one-worker `recover_batch`, which runs on the calling thread,
//! must stay within a per-contract budget over a fixed mix of the
//! corpora the `backfill` benchmark draws from. The counts are
//! deterministic: every input and every container's growth is fixed.
//!
//! Opening a flushed store searches its index where it is mapped, so
//! what an open allocates must not grow with the number of records.

use sigrec_abi::{AbiType, Selector};
use sigrec_core::{
    recover_batch, Language, PersistentStore, RecoveredFunction, RuleId, SigRec, StoreOptions,
};
use sigrec_corpus::datasets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // The allocator also runs while a thread's locals are torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// counting touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls and bytes requested on this thread so far.
fn tally() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// Most allocation calls one cold contract may make on a warm thread
/// (the mix reads 27.1).
const MAX_CALLS_PER_CONTRACT: f64 = 28.0;
/// Most bytes one cold contract may request on a warm thread (the mix
/// reads 2 363).
const MAX_BYTES_PER_CONTRACT: f64 = 2450.0;

/// Distinct codes from the three corpora of the `backfill` pool.
fn mix() -> Vec<Vec<u8>> {
    let structs = datasets::struct_nested_corpus(160, 0.387, 3).contracts;
    let mut seen = HashSet::new();
    datasets::dataset3(150, 1)
        .contracts
        .into_iter()
        .chain(datasets::vyper_corpus(50, 2).contracts)
        .chain(structs.into_iter().take(50))
        .map(|c| c.code)
        .filter(|code| seen.insert(code.clone()))
        .collect()
}

/// One pass over `codes` in requests of 128 on a fresh recoverer, as
/// `backfill` sends them; returns the calls and bytes it allocated.
fn one_pass(codes: &[Vec<u8>]) -> (u64, u64) {
    let sigrec = SigRec::new();
    let (calls, bytes) = tally();
    for request in codes.chunks(128) {
        let result = recover_batch(&sigrec, request, 1);
        assert_eq!(result.items.len(), request.len());
    }
    drop(sigrec);
    let (after_calls, after_bytes) = tally();
    (after_calls - calls, after_bytes - bytes)
}

#[test]
fn a_warm_thread_recovers_cold_contracts_within_the_allocation_budget() {
    let codes = mix();
    assert!(
        codes.len() > 200,
        "the mix keeps {} distinct codes",
        codes.len()
    );
    // The first pass warms this thread's pools to the largest function
    // of the mix.
    one_pass(&codes);
    let (calls, bytes) = one_pass(&codes);
    let n = codes.len() as f64;
    let (calls_per, bytes_per) = (calls as f64 / n, bytes as f64 / n);
    println!("{calls_per:.1} allocation calls and {bytes_per:.0} bytes per contract");
    assert!(
        calls_per <= MAX_CALLS_PER_CONTRACT,
        "{calls_per:.1} allocation calls per contract, budget {MAX_CALLS_PER_CONTRACT}"
    );
    assert!(
        bytes_per <= MAX_BYTES_PER_CONTRACT,
        "{bytes_per:.0} bytes per contract, budget {MAX_BYTES_PER_CONTRACT}"
    );
}

/// A store in a fresh directory under `tag` holding `n` flushed records.
fn flushed_store(tag: &str, n: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sigrec-alloc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        fsync_every: u64::MAX,
        ..StoreOptions::default()
    };
    let store = PersistentStore::open_with(&dir, options).unwrap();
    for i in 0..n {
        let function = RecoveredFunction {
            selector: Selector::from_u32(i as u32),
            entry: 0x40,
            params: vec![AbiType::Address, AbiType::Uint(256)],
            language: Language::Solidity,
            rules: vec![RuleId::ALL[0]],
            budgets: Vec::new(),
            elapsed: Duration::from_micros(5),
            delegate: None,
        };
        let key = sigrec_evm::keccak256(&i.to_le_bytes());
        assert!(store.append(key, &[function], &[]).unwrap());
    }
    store.flush().unwrap();
    dir
}

/// Bytes this thread allocates opening (and dropping) the store in `dir`.
fn open_bytes(dir: &Path) -> u64 {
    let (_, before) = tally();
    let store = PersistentStore::open(dir).unwrap();
    assert_eq!(
        store.stats().index_rebuilds,
        0,
        "a flushed store opens by its index"
    );
    drop(store);
    tally().1 - before
}

/// Where `mmap(2)` is unavailable the index is read into a buffer, which
/// grows with the store.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[test]
fn opening_a_flushed_store_allocates_the_same_at_any_size() {
    // Directory names of equal length, so their paths cost the same.
    let small = flushed_store("00100", 100);
    let large = flushed_store("10000", 10_000);
    // The first open on a thread may set up process-wide state.
    open_bytes(&small);
    let (small_bytes, large_bytes) = (open_bytes(&small), open_bytes(&large));
    println!("opening allocates {small_bytes} bytes at 100 records, {large_bytes} at 10 000");
    assert!(
        large_bytes.abs_diff(small_bytes) <= 256,
        "opening allocates {small_bytes} bytes at 100 records but {large_bytes} at 10 000"
    );
    std::fs::remove_dir_all(&small).unwrap();
    std::fs::remove_dir_all(&large).unwrap();
}
