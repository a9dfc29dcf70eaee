//! Allocation budget of cold recovery.
//!
//! Recovery keeps, per thread, every buffer that does not escape into a
//! result: the disassembly's tables, the expression arena, the
//! exploration scratch, the fact buffers and the inference indexes. So
//! once a thread is warm, a cold contract should allocate little more
//! than its own result. A counting global allocator (this file is its own
//! test binary) tallies allocation calls and requested bytes per thread,
//! and a one-worker `recover_batch`, which runs on the calling thread,
//! must stay within a per-contract budget over a fixed mix of the
//! corpora the `backfill` benchmark draws from. The counts are
//! deterministic: every input and every container's growth is fixed.

use sigrec_core::{recover_batch, SigRec};
use sigrec_corpus::datasets;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;

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

/// Most allocation calls one cold contract may make on a warm thread.
const MAX_CALLS_PER_CONTRACT: f64 = 40.0;
/// Most bytes one cold contract may request on a warm thread.
const MAX_BYTES_PER_CONTRACT: f64 = 4096.0;

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
