//! Chain-replay benchmark for the persistent recovery store.
//!
//! Models the `sigrec-serve` deployment shape: a long-running indexer
//! replaying a chain's deployed bytecode through recovery, restarting
//! periodically, and expecting the on-disk store to carry the work
//! across restarts. The harness builds a Zipfian-duplicated deployment
//! stream (head-heavy clone distribution, like main-net), interleaves
//! factory/proxy bursts drawn from the dispatcher scenario zoo between
//! batch chunks, and replays the identical stream three times against
//! one store directory:
//!
//! 1. **cold** — empty store; every distinct template pays full TASE
//!    and is written behind the cache;
//! 2. **warm restart** — fresh process (fresh memory cache), same
//!    store, graceful-shutdown index on disk: every template must come
//!    back from the scan-free fast path, no recomputation;
//! 3. **crash restart** — the index file is deleted and the final
//!    segment torn mid-record before reopening, exercising the full
//!    scan/rebuild/truncate recovery path.
//!
//! Every epoch's per-contract signature digests (and the linked
//! proxy-burst digests) must be byte-for-byte identical — the bench
//! doubles as a CI gate on store round-trip fidelity and crash
//! recovery. The warm restart must also read each record at most once
//! and spend at most [`MAX_WARM_US_PER_CONTRACT`] per stream contract:
//! a gate on the warm read path alone, which a faster cold epoch does
//! not move. The machine-readable summary is written to
//! `BENCH_replay.json` in the working directory.

use crate::accuracy::Scale;
use crate::report::TextTable;
use crate::throughput::duplicate_with_skew;
use sigrec_conformance::path_digest;
use sigrec_core::{recover_batch, PersistentStore, RecoveryCache, SigRec, StoreStats};
use sigrec_corpus::datasets;
use sigrec_corpus::metamorph::Transform;
use sigrec_corpus::scenario::{scenario_corpus, ScenarioBundle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Batch chunk size for the replay stream; scenario bursts fire at
/// every chunk boundary, interleaving linked recoveries with batch
/// work the way an indexer interleaves proxy deployments with plain
/// ones.
const CHUNK: usize = 2_048;

/// Workers driving each batch chunk.
const WORKERS: usize = 4;

/// Stream length as a multiple of the distinct template count — the
/// per-epoch duplication factor. Kept modest: one epoch models a block
/// range's worth of *new* deployments (within-range clones are caught
/// by the memory cache either way), while the massive cross-history
/// duplication of a real chain is exactly what the restart models —
/// every template in the warm epoch is a duplicate of chain history.
const DUPLICATION: usize = 4;

/// Most wall-clock microseconds the warm restart may spend per stream
/// contract. Twenty-four runs at `--contracts 2560` on a 2-vCPU VM read
/// 1.94–3.32 µs (median 2.6), three at `--contracts 600` 1.71–2.29 µs,
/// and three at `--contracts 60`, where the fixed per-chunk costs weigh
/// most, 3.33–4.17 µs. The bound is 1.8× the slowest run at the CI
/// scale: scheduling noise stays under it, and a read path about three
/// times slower goes over.
const MAX_WARM_US_PER_CONTRACT: f64 = 6.0;

/// One replay epoch's outcome: wall time, the per-contract signature
/// digests (stream order), the linked-burst digests, and the store's
/// counters for the epoch (each epoch opens its own handle, so the
/// counters are per-epoch, not cumulative).
struct Epoch {
    secs: f64,
    digests: Vec<Vec<String>>,
    linked: Vec<Vec<String>>,
    stats: StoreStats,
    torn_tail_seen: bool,
    stale_index_seen: bool,
    /// Plan-stage program-build time for the epoch. A warm restart
    /// serves every contract from the store's contract records, plans
    /// nothing and so builds nothing: exactly zero.
    compile_ms: f64,
}

/// A scratch store directory under the system temp dir, unique per
/// process and call.
fn replay_scratch() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sigrec-replay-{}-{}", std::process::id(), n))
}

/// Replays the full stream against the store at `dir` with a fresh
/// memory cache — one simulated process lifetime. Flushes the index on
/// the way out (graceful shutdown), so the *next* epoch models a clean
/// restart unless the caller damages the directory first.
fn run_epoch(dir: &Path, stream: &[Vec<u8>], bundles: &[ScenarioBundle]) -> Epoch {
    let store = PersistentStore::open(dir).expect("open replay store");
    let torn_tail_seen = store
        .open_diagnostics()
        .iter()
        .any(|d| matches!(d, sigrec_core::StoreDiagnostic::TornTail { .. }));
    let stale_index_seen = store
        .open_diagnostics()
        .iter()
        .any(|d| matches!(d, sigrec_core::StoreDiagnostic::StaleIndex));
    let rec = SigRec::new()
        .with_cache(RecoveryCache::persistent(store))
        .with_exec_stats();

    // Recovery is timed; digest construction (pure string building for
    // the equivalence check) happens afterwards so the throughput
    // figures measure the pipeline, not the harness.
    let mut batches = Vec::new();
    let mut burst_fns = Vec::new();
    let t = Instant::now();
    for chunk in stream.chunks(CHUNK) {
        batches.push(recover_batch(&rec, chunk, WORKERS));
        // Factory/proxy burst: a wave of wrapped deployments lands
        // between batch chunks, resolved through their link sets.
        for bundle in bundles {
            burst_fns.push(rec.recover_linked(&bundle.deployed, &bundle.links));
        }
    }
    let secs = t.elapsed().as_secs_f64();
    rec.flush_store().expect("flush replay store");

    let mut digests: Vec<Vec<String>> = Vec::with_capacity(stream.len());
    for result in &batches {
        // Items come back in input order, but place by index anyway so
        // the digest stream is robust to scheduler reordering.
        let mut slot: Vec<Vec<String>> = vec![Vec::new(); result.items.len()];
        for item in &result.items {
            slot[item.index] = path_digest(&item.functions);
        }
        digests.extend(slot);
    }
    let linked: Vec<Vec<String>> = burst_fns.iter().map(|f| path_digest(f)).collect();
    let stats = rec.store_stats().expect("replay cache has a store");
    let profile = rec.exec_stats().expect("profiling enabled");
    Epoch {
        secs,
        digests,
        linked,
        stats,
        torn_tail_seen,
        stale_index_seen,
        compile_ms: profile.compile_time.as_secs_f64() * 1e3,
    }
}

/// Deletes the flat index and tears the final segment mid-record,
/// simulating a crash that interrupted an append after the last index
/// flush. Returns the number of bytes torn off.
fn simulate_crash(dir: &Path) -> u64 {
    let _ = std::fs::remove_file(dir.join("index.flat"));
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sigseg"))
        .collect();
    segments.sort();
    let last = segments.last().expect("store has at least one segment");
    let len = std::fs::metadata(last).expect("segment metadata").len();
    // Records are 44 bytes of framing plus payload; chopping 13 bytes
    // always lands inside the final record's payload or framing.
    let cut = 13.min(len.saturating_sub(8));
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(last)
        .expect("open segment for truncation");
    f.set_len(len - cut).expect("tear segment tail");
    cut
}

/// Internal report for [`replay`]; exposed to the module tests so the
/// gates can be checked at a smaller scale without writing JSON.
struct ReplayReport {
    stream_len: usize,
    distinct: usize,
    bursts: usize,
    cold: Epoch,
    warm: Epoch,
    crash: Epoch,
    torn_bytes: u64,
    contracts_on_disk: usize,
}

impl ReplayReport {
    fn warm_speedup(&self) -> f64 {
        self.cold.secs / self.warm.secs.max(1e-9)
    }

    /// Warm-restart wall time per stream contract, in microseconds.
    fn warm_us_per_contract(&self) -> f64 {
        self.warm.secs * 1e6 / self.stream_len.max(1) as f64
    }

    fn crash_speedup(&self) -> f64 {
        self.cold.secs / self.crash.secs.max(1e-9)
    }
}

/// Runs the three-epoch replay and asserts the correctness gates
/// (digest equivalence across all epochs; crash diagnostics observed).
fn run_replay(scale: &Scale) -> ReplayReport {
    let base = datasets::dataset3(scale.contracts.max(4), scale.seed + 90);
    let distinct: Vec<Vec<u8>> = base.contracts.iter().map(|c| c.code.clone()).collect();
    let stream = duplicate_with_skew(
        &distinct,
        distinct.len().saturating_mul(DUPLICATION),
        scale.seed + 91,
    );
    let bundles: Vec<ScenarioBundle> = scenario_corpus()
        .iter()
        .map(|s| s.build(&Transform::Identity))
        .collect();

    let dir = replay_scratch();
    let cold = run_epoch(&dir, &stream, &bundles);
    // Simulated restart #1: graceful shutdown — the flushed index must
    // carry the whole epoch through the scan-free fast path.
    let warm = run_epoch(&dir, &stream, &bundles);
    // Simulated restart #2: crash — no index, torn final record.
    let torn_bytes = simulate_crash(&dir);
    let crash = run_epoch(&dir, &stream, &bundles);
    let contracts_on_disk = PersistentStore::open(&dir)
        .expect("reopen for count")
        .contract_count();
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        cold.digests, warm.digests,
        "warm-restart replay diverged from cold"
    );
    assert_eq!(
        cold.digests, crash.digests,
        "crash-restart replay diverged from cold"
    );
    assert_eq!(
        cold.linked, warm.linked,
        "warm-restart proxy bursts diverged from cold"
    );
    assert_eq!(
        cold.linked, crash.linked,
        "crash-restart proxy bursts diverged from cold"
    );
    assert!(
        !warm.stale_index_seen && !warm.torn_tail_seen,
        "graceful restart must open through the trusted index"
    );
    assert!(
        crash.stale_index_seen,
        "crash restart must report the stale index"
    );
    assert!(
        crash.torn_tail_seen,
        "crash restart must detect the torn segment tail"
    );
    assert_eq!(
        warm.stats.records_appended, 0,
        "warm restart must not recompute anything"
    );
    assert!(
        warm.stats.disk_hits > 0 && warm.stats.disk_misses == 0,
        "warm restart must serve every template from disk"
    );
    // A hit is promoted into memory, so the warm restart reads each
    // record the cold epoch wrote at most once.
    assert!(
        warm.stats.bytes_read <= cold.stats.bytes_appended,
        "warm restart read {} bytes of a store the cold epoch wrote {} bytes to",
        warm.stats.bytes_read,
        cold.stats.bytes_appended
    );
    // The read-path gate: a graceful restart reads only contract
    // records — nothing is planned, so no program is built, and nothing
    // is written.
    assert_eq!(
        warm.compile_ms, 0.0,
        "warm restart must skip the compile phase entirely"
    );

    ReplayReport {
        stream_len: stream.len(),
        distinct: distinct.len(),
        bursts: cold.linked.len(),
        cold,
        warm,
        crash,
        torn_bytes,
        contracts_on_disk,
    }
}

/// The chain-replay experiment: cold vs warm-restart vs crash-restart
/// throughput over a Zipfian deployment stream against one persistent
/// store. Returns the text report and writes `BENCH_replay.json`.
pub fn replay(scale: &Scale) -> String {
    let r = run_replay(scale);
    let speedup = r.warm_speedup();
    let warm_us = r.warm_us_per_contract();
    let cps = |secs: f64| r.stream_len as f64 / secs.max(1e-9);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"stream\": {{ \"contracts\": {}, \"distinct_templates\": {}, \
         \"duplication_factor\": {:.2}, \"scenario_bursts\": {} }},\n",
        r.stream_len,
        r.distinct,
        r.stream_len as f64 / r.distinct.max(1) as f64,
        r.bursts,
    ));
    json.push_str(&format!(
        "  \"cold\": {{ \"seconds\": {:.4}, \"contracts_per_sec\": {:.2}, \
         \"disk_misses\": {}, \"records_appended\": {}, \
         \"bytes_appended\": {}, \"fsyncs\": {}, \
         \"compile\": {{ \"compile_ms\": {:.2} }} }},\n",
        r.cold.secs,
        cps(r.cold.secs),
        r.cold.stats.disk_misses,
        r.cold.stats.records_appended,
        r.cold.stats.bytes_appended,
        r.cold.stats.fsyncs,
        r.cold.compile_ms,
    ));
    json.push_str(&format!(
        "  \"warm_restart\": {{ \"seconds\": {:.4}, \"contracts_per_sec\": {:.2}, \
         \"us_per_contract\": {:.3}, \"max_us_per_contract\": {:.1}, \
         \"speedup_vs_cold\": {:.2}, \"disk_hits\": {}, \"disk_misses\": {}, \
         \"disk_hit_rate\": {:.4}, \"records_appended\": {}, \"bytes_read\": {}, \
         \"compile\": {{ \"compile_ms\": {:.2} }} }},\n",
        r.warm.secs,
        cps(r.warm.secs),
        warm_us,
        MAX_WARM_US_PER_CONTRACT,
        speedup,
        r.warm.stats.disk_hits,
        r.warm.stats.disk_misses,
        r.warm.stats.disk_hit_rate(),
        r.warm.stats.records_appended,
        r.warm.stats.bytes_read,
        r.warm.compile_ms,
    ));
    json.push_str(&format!(
        "  \"crash_restart\": {{ \"seconds\": {:.4}, \"contracts_per_sec\": {:.2}, \
         \"speedup_vs_cold\": {:.2}, \"torn_bytes\": {}, \"torn_tails\": {}, \
         \"index_rebuilds\": {}, \"corrupt_records\": {}, \"disk_hit_rate\": {:.4}, \
         \"records_appended\": {}, \
         \"compile\": {{ \"compile_ms\": {:.2} }} }},\n",
        r.crash.secs,
        cps(r.crash.secs),
        r.crash_speedup(),
        r.torn_bytes,
        r.crash.stats.torn_tails,
        r.crash.stats.index_rebuilds,
        r.crash.stats.corrupt_records,
        r.crash.stats.disk_hit_rate(),
        r.crash.stats.records_appended,
        r.crash.compile_ms,
    ));
    json.push_str(&format!(
        "  \"store\": {{ \"contracts_on_disk\": {} }},\n",
        r.contracts_on_disk,
    ));
    json.push_str("  \"restarts\": 2,\n");
    json.push_str("  \"equivalent\": true\n");
    json.push_str("}\n");
    if let Err(e) = std::fs::write("BENCH_replay.json", &json) {
        eprintln!("warning: could not write BENCH_replay.json: {e}");
    }
    // The artifact is written first so a gate failure still leaves the
    // numbers on disk for diagnosis.
    assert!(
        warm_us <= MAX_WARM_US_PER_CONTRACT,
        "warm-restart cost gate: {warm_us:.2} µs per contract > {MAX_WARM_US_PER_CONTRACT} µs"
    );

    let mut t = TextTable::new(&["metric", "cold", "warm restart", "crash restart"]);
    t.row(&[
        "seconds".into(),
        format!("{:.3}", r.cold.secs),
        format!("{:.3}", r.warm.secs),
        format!("{:.3}", r.crash.secs),
    ]);
    t.row(&[
        "contracts/s".into(),
        format!("{:.1}", cps(r.cold.secs)),
        format!("{:.1}", cps(r.warm.secs)),
        format!("{:.1}", cps(r.crash.secs)),
    ]);
    t.row(&[
        "µs per contract".into(),
        format!("{:.2}", r.cold.secs * 1e6 / r.stream_len.max(1) as f64),
        format!("{warm_us:.2}"),
        format!("{:.2}", r.crash.secs * 1e6 / r.stream_len.max(1) as f64),
    ]);
    t.row(&[
        "speedup vs cold".into(),
        "1.0×".into(),
        format!("{speedup:.1}×"),
        format!("{:.1}×", r.crash_speedup()),
    ]);
    t.row(&[
        "disk hit rate".into(),
        crate::report::pct(r.cold.stats.disk_hit_rate()),
        crate::report::pct(r.warm.stats.disk_hit_rate()),
        crate::report::pct(r.crash.stats.disk_hit_rate()),
    ]);
    t.row(&[
        "records appended".into(),
        r.cold.stats.records_appended.to_string(),
        r.warm.stats.records_appended.to_string(),
        r.crash.stats.records_appended.to_string(),
    ]);
    t.row(&[
        "compile ms".into(),
        format!("{:.2}", r.cold.compile_ms),
        format!("{:.2}", r.warm.compile_ms),
        format!("{:.2}", r.crash.compile_ms),
    ]);
    t.row(&[
        "torn tails / rebuilds".into(),
        format!(
            "{} / {}",
            r.cold.stats.torn_tails, r.cold.stats.index_rebuilds
        ),
        format!(
            "{} / {}",
            r.warm.stats.torn_tails, r.warm.stats.index_rebuilds
        ),
        format!(
            "{} / {}",
            r.crash.stats.torn_tails, r.crash.stats.index_rebuilds
        ),
    ]);
    format!(
        "Chain replay — {} contracts ({} distinct templates, {:.0}× Zipfian \
         duplication, {} proxy bursts) replayed across 2 simulated restarts \
         against one persistent store (all three epochs byte-identical; \
         BENCH_replay.json written)\n{}",
        r.stream_len,
        r.distinct,
        r.stream_len as f64 / r.distinct.max(1) as f64,
        r.bursts,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_replay_round_trips_across_both_restart_kinds() {
        let report = run_replay(&Scale {
            contracts: 6,
            per_version: 2,
            seed: 0xC4A1,
        });
        // The correctness gates (digest equivalence, crash diagnostics,
        // zero warm recomputation) are asserted inside run_replay; here
        // we lock the shape and the warm epoch's disk behaviour.
        assert_eq!(report.stream_len, report.distinct * DUPLICATION);
        assert!(report.bursts > 0);
        assert!(report.warm.stats.disk_hits >= report.distinct as u64);
        assert_eq!(report.warm.stats.disk_misses, 0);
        assert!(report.contracts_on_disk >= report.distinct);
        // At any scale the warm epoch must beat cold; the cost bound
        // is enforced by `replay`.
        assert!(report.warm_speedup() > 1.0);
        assert_eq!(
            report.warm.stats.bytes_read, report.cold.stats.bytes_appended,
            "the warm restart reads each record once"
        );
        assert_eq!(report.crash.stats.torn_tails, 1);
        assert!(report.crash.stats.index_rebuilds >= 1);
    }
}
