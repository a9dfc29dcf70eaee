//! Parallel batch recovery: dedup-first groups, each claimed whole off
//! one shared cursor.
//!
//! Deployed bytecode is massively duplicated (factory clones, token
//! templates), so the batch groups byte-identical contracts before doing
//! any work, recovers each distinct code once, and fans the `Arc`-shared
//! result out to every duplicate without cloning function vectors.
//! Workers claim distinct contracts off one atomic cursor and recover
//! each one whole, so its plan lives only as long as its claim. The
//! calling thread is worker 0, so a one-worker batch spawns nothing.
//! See "Batch scheduling" in `docs/INTERNALS.md`.
//!
//! [`recover_batch_naive`] runs the same code with singleton groups and
//! the cache bypassed, as the equivalence/throughput baseline.

use crate::outcome::{assemble_diagnostics, Diagnostic};
use crate::pipeline::{CacheMode, RecoveredFunction, SigRec};
use crate::rules::RuleStats;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of recovering one contract within a batch.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// Index of the contract in the input order.
    pub index: usize,
    /// Recovered functions — shared, not cloned, across duplicate
    /// contracts served by fan-out.
    pub functions: Arc<Vec<RecoveredFunction>>,
    /// Diagnostics for this contract's recovery: extraction-level issues,
    /// per-function budget exhaustion, and [`Diagnostic::InternalError`]
    /// for any worker panic isolated while recovering it. Shared across
    /// duplicates like `functions`.
    pub diagnostics: Arc<Vec<Diagnostic>>,
}

/// How much work deduplication saved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DedupStats {
    /// Contracts submitted to the batch.
    pub total_contracts: usize,
    /// Byte-distinct contracts actually recovered.
    pub distinct_contracts: usize,
}

impl DedupStats {
    /// Fraction of contracts served by fan-out instead of recovery
    /// (0 for an empty batch).
    pub fn dedup_rate(&self) -> f64 {
        if self.total_contracts == 0 {
            0.0
        } else {
            1.0 - self.distinct_contracts as f64 / self.total_contracts as f64
        }
    }
}

/// Aggregate of per-function recovery times over the work actually
/// performed (duplicates served by fan-out are not re-counted).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchTimings {
    /// Sum of per-function recovery times.
    pub total: Duration,
    /// Slowest single function.
    pub max: Duration,
    /// Functions measured.
    pub count: usize,
}

impl BatchTimings {
    /// Records one function's recovery time.
    pub fn record(&mut self, elapsed: Duration) {
        self.total += elapsed;
        self.max = self.max.max(elapsed);
        self.count += 1;
    }

    /// Mean per-function recovery time (zero when nothing was measured).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

/// A log-bucketed latency histogram: bucket `i` counts observations in
/// `[2^i, 2^(i+1))` nanoseconds, so the whole `u64` nanosecond range fits
/// in 64 fixed buckets and recording is branch-free arithmetic — cheap
/// enough to sit on the batch's completion path. Quantile reads
/// return the *upper bound* of the bucket the quantile lands in (clamped
/// to the exact recorded maximum), i.e. they over-estimate by at most 2×
/// — the right bias for tail monitoring, which must never under-report.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    max: Duration,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            max: Duration::ZERO,
        }
    }
}

impl LatencyHistogram {
    /// The bucket index an observation falls into: `floor(log2(ns))`,
    /// with sub-nanosecond observations clamped into bucket 0.
    fn bucket(d: Duration) -> usize {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        ns.max(1).ilog2() as usize
    }

    /// Records one observation.
    pub fn record(&mut self, d: Duration) {
        self.buckets[Self::bucket(d)] += 1;
        self.count += 1;
        self.max = self.max.max(d);
    }

    /// Accumulates another histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum observation (not bucket-quantised).
    pub fn max(&self) -> Duration {
        self.max
    }

    /// The raw bucket counts (bucket `i` covers `[2^i, 2^(i+1))` ns).
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (clamped to the recorded maximum). Zero when empty.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((self.count as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return Duration::from_nanos(upper).min(self.max);
            }
        }
        self.max
    }

    /// Median (bucket upper bound).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 90th percentile (bucket upper bound).
    pub fn p90(&self) -> Duration {
        self.quantile(0.90)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// Rebuilds a histogram from raw parts (the pipeline's atomic stats
    /// accumulator stores the buckets as plain counters).
    pub(crate) fn from_parts(buckets: [u64; 64], count: u64, max: Duration) -> Self {
        LatencyHistogram {
            buckets,
            count,
            max,
        }
    }
}

/// Aggregated output of [`recover_batch`].
#[derive(Debug, Default)]
pub struct BatchResult {
    /// Per-contract results, sorted by input index.
    pub items: Vec<BatchItem>,
    /// Rule-application counters across the whole batch (Fig. 19),
    /// counted per input contract — duplicates contribute like the naive
    /// batch.
    pub rule_stats: RuleStats,
    /// Deduplication accounting.
    pub dedup: DedupStats,
    /// Per-function timing aggregation over the recoveries performed.
    pub timings: BatchTimings,
    /// Wall-clock latency of each *distinct* contract, plan to seal, in
    /// first-occurrence order.
    pub contract_latencies: Vec<Duration>,
    /// Log-bucketed histogram over `contract_latencies` — the tail
    /// (p50/p90/p99/max) without hauling the raw vector around.
    pub contract_latency_hist: LatencyHistogram,
    /// Always 0. The work-stealing scheduler that counted heavy
    /// admissions is gone; the field is kept because the benchmark in
    /// `perfbench/src/{run,main}.rs` reads it.
    pub heavy_admissions: usize,
}

impl BatchResult {
    /// Total functions recovered (duplicates included).
    pub fn function_count(&self) -> usize {
        self.items.iter().map(|i| i.functions.len()).sum()
    }
}

/// Recovers every contract in `codes` on up to `workers` threads,
/// recovering each byte-distinct code once and fanning the `Arc`-shared
/// result out to duplicates. The calling thread is one of the workers,
/// so with one worker, or one distinct contract, nothing is spawned.
///
/// # Examples
///
/// ```
/// use sigrec_core::{recover_batch, SigRec};
/// use sigrec_abi::FunctionSignature;
/// use sigrec_solc::{compile_single, CompilerConfig, FunctionSpec, Visibility};
///
/// let contract = compile_single(
///     FunctionSpec::new(FunctionSignature::parse("f(bool)").unwrap(), Visibility::External),
///     &CompilerConfig::default(),
/// );
/// let batch = recover_batch(&SigRec::new(), &[contract.code.clone(), contract.code], 2);
/// assert_eq!(batch.function_count(), 2);
/// assert_eq!(batch.dedup.distinct_contracts, 1);
/// ```
pub fn recover_batch(sigrec: &SigRec, codes: &[Vec<u8>], workers: usize) -> BatchResult {
    // Dedup-first: one group per distinct code, keeping every duplicate's
    // input index for fan-out. Grouping only needs byte-equality, and
    // hashing every full code body dominated batch time on big corpora —
    // so codes are bucketed by a cheap fingerprint (length + FNV of the
    // first and last 64 bytes) and confirmed with a byte compare inside
    // the bucket. Duplicates cost one memcmp; colliding distinct codes
    // just share a (short) bucket scan.
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut buckets: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (i, code) in codes.iter().enumerate() {
        let bucket = buckets
            .entry((code.len(), code_fingerprint(code)))
            .or_default();
        match bucket.iter().find(|&&g| codes[groups[g].0] == *code) {
            Some(&g) => groups[g].1.push(i),
            None => {
                bucket.push(groups.len());
                groups.push((i, vec![i]));
            }
        }
    }
    run_batch(sigrec, codes, groups, workers, CacheMode::ReadWrite)
}

/// FNV-1a over the first and last 64 bytes — a grouping prefilter, not an
/// identity: equality is always confirmed byte-for-byte.
fn code_fingerprint(code: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let head = &code[..code.len().min(64)];
    let tail = &code[code.len().saturating_sub(64)..];
    for &b in head.iter().chain(tail) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The baseline batch: every contract is its own group (duplicates are
/// *not* coalesced) and the cache is bypassed, so each function is
/// re-explored exactly as [`SigRec::recover_cold`] would. Otherwise it
/// runs exactly like [`recover_batch`].
pub fn recover_batch_naive(sigrec: &SigRec, codes: &[Vec<u8>], workers: usize) -> BatchResult {
    let groups = (0..codes.len()).map(|i| (i, vec![i])).collect();
    run_batch(sigrec, codes, groups, workers, CacheMode::Bypass)
}

/// One distinct contract's recovery: its `Arc`-shared function list,
/// assembled diagnostics, and plan-to-seal latency.
type Recovered = (Arc<Vec<RecoveredFunction>>, Arc<Vec<Diagnostic>>, Duration);

/// Renders a caught panic payload as an [`Diagnostic::InternalError`].
/// `&str` and `String` payloads (everything `panic!` produces) keep their
/// message; anything else is labelled opaquely.
fn panic_diagnostic(context: &str, payload: &(dyn Any + Send)) -> Diagnostic {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    Diagnostic::InternalError {
        context: format!("{context}: {msg}"),
    }
}

/// The body both batch entry points share. `groups` maps each distinct
/// work unit to (representative index, duplicate indices); `mode` decides
/// cache participation.
fn run_batch(
    sigrec: &SigRec,
    codes: &[Vec<u8>],
    groups: Vec<(usize, Vec<usize>)>,
    workers: usize,
    mode: CacheMode,
) -> BatchResult {
    let mut result = BatchResult {
        dedup: DedupStats {
            total_contracts: codes.len(),
            distinct_contracts: groups.len(),
        },
        ..Default::default()
    };
    let cursor = AtomicUsize::new(0);
    let claim = || claim_until_drained(sigrec, codes, &groups, &cursor, mode);
    // The caller is worker 0; only the workers a batch can use beyond it
    // are spawned, so a one-worker batch spawns nothing.
    let workers = workers.min(groups.len());
    let mut claimed: Vec<(usize, Recovered)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut claimed = claim();
        for h in handles {
            claimed.extend(h.join().expect("batch worker panicked outside a claim"));
        }
        claimed
    });
    assert_eq!(claimed.len(), groups.len(), "every group claimed once");
    claimed.sort_unstable_by_key(|&(g, _)| g);
    for ((_, members), (_, (functions, diagnostics, elapsed))) in groups.iter().zip(claimed) {
        let mut stats = RuleStats::new();
        for f in functions.iter() {
            result.timings.record(f.elapsed);
            stats.absorb(&f.rules);
        }
        result.contract_latencies.push(elapsed);
        result.contract_latency_hist.record(elapsed);
        for &index in members {
            result.rule_stats.merge(&stats);
            result.items.push(BatchItem {
                index,
                functions: Arc::clone(&functions),
                diagnostics: Arc::clone(&diagnostics),
            });
        }
    }
    sigrec.note_contract_latencies(&result.contract_latency_hist);
    result.items.sort_by_key(|i| i.index);
    result
}

/// One worker: claims the next unclaimed group off `cursor` and recovers
/// it whole, until every group is claimed. Returns (group, result) pairs.
fn claim_until_drained(
    sigrec: &SigRec,
    codes: &[Vec<u8>],
    groups: &[(usize, Vec<usize>)],
    cursor: &AtomicUsize,
    mode: CacheMode,
) -> Vec<(usize, Recovered)> {
    let mut claimed = Vec::new();
    loop {
        // Relaxed: the cursor only hands out indices; results travel
        // back through the join.
        let g = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&(rep, _)) = groups.get(g) else {
            return claimed;
        };
        let started = Instant::now();
        let (functions, diagnostics) = recover_contract(sigrec, &codes[rep], mode);
        claimed.push((g, (functions, Arc::new(diagnostics), started.elapsed())));
    }
}

/// Recovers one distinct contract the way
/// [`SigRec::recover_with_outcome`] does, with panic isolation: a panic
/// while planning, or while recovering an entry, becomes an
/// [`Diagnostic::InternalError`] on this contract (its other entries
/// still run), and a contract that panicked is never sealed.
fn recover_contract(
    sigrec: &SigRec,
    code: &[u8],
    mode: CacheMode,
) -> (Arc<Vec<RecoveredFunction>>, Vec<Diagnostic>) {
    let plan = match catch_unwind(AssertUnwindSafe(|| sigrec.plan(code, mode))) {
        Ok(plan) => plan,
        Err(payload) => {
            return (
                Arc::default(),
                vec![panic_diagnostic("planning panicked", &*payload)],
            )
        }
    };
    if let Some(hit) = &plan.cached {
        let diags = assemble_diagnostics(&hit.extraction_diags, &hit.functions);
        return (Arc::clone(&hit.functions), diags);
    }
    let mut functions = Vec::with_capacity(plan.table.len());
    let mut panics = Vec::new();
    for (idx, entry) in plan.table.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| sigrec.run_entry(&plan, idx, mode))) {
            Ok((f, facts)) => {
                facts.recycle();
                functions.push(f);
            }
            Err(payload) => panics.push(panic_diagnostic(
                &format!("recovery of {} panicked", entry.selector),
                &*payload,
            )),
        }
    }
    let functions = Arc::new(functions);
    if panics.is_empty() {
        sigrec.seal(&plan, &functions);
    }
    let mut diags = assemble_diagnostics(&plan.extraction_diags, &functions);
    diags.extend(panics);
    (functions, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrec_solc::{compile, compile_single, CompilerConfig, FunctionSpec, Visibility};

    fn contract(decl: &str) -> Vec<u8> {
        compile_single(
            FunctionSpec::parse(decl, Visibility::External).expect("valid test declaration"),
            &CompilerConfig::default(),
        )
        .code
    }

    #[test]
    fn batch_preserves_order_and_counts() {
        let codes = vec![
            contract("a(uint8)"),
            contract("b(bool,address)"),
            contract("c()"),
            contract("d(uint256[])"),
        ];
        let sigrec = SigRec::new().with_exec_stats();
        let result = recover_batch(&sigrec, &codes, 3);
        assert_eq!(result.items.len(), 4);
        for (i, item) in result.items.iter().enumerate() {
            assert_eq!(item.index, i);
            assert_eq!(item.functions.len(), 1);
        }
        assert_eq!(result.function_count(), 4);
        assert_eq!(result.dedup.distinct_contracts, 4);
        assert_eq!(result.contract_latencies.len(), 4);
        assert_eq!(result.contract_latency_hist.count(), 4);
        let profile = sigrec.exec_stats().expect("profiling enabled");
        assert_eq!(profile.contract_latency.count(), 4);
        assert_eq!(
            profile.contract_latency.max(),
            result.contract_latency_hist.max()
        );
        assert_eq!(
            result.heavy_admissions, 0,
            "kept for the benchmark, always 0"
        );
    }

    #[test]
    fn batch_aggregates_rule_stats() {
        let codes = vec![contract("a(uint8)"), contract("b(uint16)")];
        let result = recover_batch(&SigRec::new(), &codes, 2);
        // Two basic params → at least two R4 applications.
        assert!(result.rule_stats.count(crate::rules::RuleId::R4) >= 2);
    }

    #[test]
    fn empty_batch() {
        let result = recover_batch(&SigRec::new(), &[], 4);
        assert_eq!(result.items.len(), 0);
        assert_eq!(result.function_count(), 0);
        assert_eq!(result.dedup.dedup_rate(), 0.0);
        assert!(result.contract_latencies.is_empty());
        assert_eq!(result.contract_latency_hist.count(), 0);
        assert_eq!(result.contract_latency_hist.p99(), Duration::ZERO);
    }

    #[test]
    fn single_worker_equivalent() {
        let codes = vec![contract("a(uint8)"), contract("b(bytes4)")];
        let seq = recover_batch(&SigRec::new(), &codes, 1);
        let par = recover_batch(&SigRec::new(), &codes, 4);
        assert_eq!(seq.function_count(), par.function_count());
        for (a, b) in seq.items.iter().zip(&par.items) {
            assert_eq!(a.functions[0].params, b.functions[0].params);
        }
    }

    #[test]
    fn infer_engines_agree_through_the_scheduler() {
        // The engine choice threads from TaseConfig through the batch
        // workers: a multi-worker run under each inference engine must
        // produce identical params, languages and rule applications.
        use crate::exec::TaseConfig;
        use crate::infer::InferEngine;
        let codes = vec![
            contract("a(uint8,address)"),
            contract("b(uint256[])"),
            contract("c(bytes)"),
            contract("d(int128,bool)"),
        ];
        let config = |engine| TaseConfig {
            infer_engine: engine,
            ..TaseConfig::default()
        };
        let tree = recover_batch(&SigRec::with_config(config(InferEngine::Tree)), &codes, 3);
        let per = recover_batch(
            &SigRec::with_config(config(InferEngine::PerRule)),
            &codes,
            3,
        );
        assert_eq!(tree.function_count(), per.function_count());
        assert_eq!(tree.rule_stats, per.rule_stats);
        for (a, b) in tree.items.iter().zip(&per.items) {
            assert_eq!(a.index, b.index);
            for (fa, fb) in a.functions.iter().zip(b.functions.iter()) {
                assert_eq!(fa.selector, fb.selector);
                assert_eq!(fa.params, fb.params);
                assert_eq!(fa.language, fb.language);
                assert_eq!(fa.rules, fb.rules, "rule sequences diverge");
            }
        }
    }

    #[test]
    fn duplicates_recovered_once_and_fanned_out() {
        let code = contract("dup(uint8,bool)");
        let codes = vec![code.clone(), contract("other(address)"), code.clone(), code];
        let sigrec = SigRec::new();
        let result = recover_batch(&sigrec, &codes, 2);
        assert_eq!(result.items.len(), 4);
        assert_eq!(result.dedup.total_contracts, 4);
        assert_eq!(result.dedup.distinct_contracts, 2);
        assert!((result.dedup.dedup_rate() - 0.5).abs() < 1e-12);
        // Every duplicate shares one Arc — fan-out clones no functions.
        assert!(Arc::ptr_eq(
            &result.items[0].functions,
            &result.items[2].functions
        ));
        assert!(Arc::ptr_eq(
            &result.items[0].functions,
            &result.items[3].functions
        ));
        // Only two contracts were actually analysed.
        assert_eq!(sigrec.cache_stats().contract_misses, 2);
        assert_eq!(sigrec.cache_stats().contract_hits, 0);
    }

    #[test]
    fn dedup_matches_naive_rule_stats() {
        let code = contract("dup(uint8)");
        let codes = vec![code.clone(), code.clone(), code, contract("other(uint16)")];
        let dedup = recover_batch(&SigRec::new(), &codes, 2);
        let naive = recover_batch_naive(&SigRec::new(), &codes, 2);
        assert_eq!(dedup.function_count(), naive.function_count());
        let collect = |r: &BatchResult| r.rule_stats.iter().collect::<Vec<_>>();
        assert_eq!(collect(&dedup), collect(&naive));
    }

    #[test]
    fn timings_cover_distinct_work() {
        let code = contract("dup(uint8)");
        let codes = vec![code.clone(), code.clone(), code];
        let result = recover_batch(&SigRec::new(), &codes, 2);
        // One distinct contract with one function → one measurement.
        assert_eq!(result.timings.count, 1);
        assert!(result.timings.max >= result.timings.mean());
        assert_eq!(result.contract_latencies.len(), 1);
        let naive = recover_batch_naive(&SigRec::new(), &codes, 2);
        assert_eq!(naive.timings.count, 3);
        assert_eq!(naive.contract_latencies.len(), 3);
        assert_eq!(naive.contract_latency_hist.count(), 3);
    }

    #[test]
    fn wide_contract_keeps_dispatcher_order() {
        // One contract with many functions, on the caller and with
        // surplus workers: the result must keep dispatcher order.
        let decls = [
            "a(uint8)",
            "b(bool)",
            "c(address)",
            "d(uint16)",
            "e(bytes4)",
            "g(uint256)",
        ];
        let specs: Vec<FunctionSpec> = decls
            .iter()
            .map(|d| FunctionSpec::parse(d, Visibility::External).expect("valid test declaration"))
            .collect();
        let compiled = compile(&specs, &CompilerConfig::default());
        let reference = SigRec::new().recover_cold(&compiled.code);
        for workers in [1, 4] {
            let batch = recover_batch(
                &SigRec::new(),
                std::slice::from_ref(&compiled.code),
                workers,
            );
            assert_eq!(batch.items.len(), 1);
            let got = &batch.items[0].functions;
            assert_eq!(got.len(), reference.len());
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!(g.selector, r.selector, "dispatcher order preserved");
                assert_eq!(g.entry, r.entry);
                assert_eq!(g.params, r.params);
            }
        }
    }

    #[test]
    fn naive_and_dedup_agree_on_signatures() {
        let codes = vec![
            contract("a(uint8,bytes)"),
            contract("b(uint256[])"),
            contract("a(uint8,bytes)"),
        ];
        let dedup = recover_batch(&SigRec::new(), &codes, 3);
        let naive = recover_batch_naive(&SigRec::new(), &codes, 3);
        for (d, n) in dedup.items.iter().zip(&naive.items) {
            assert_eq!(d.index, n.index);
            assert_eq!(d.functions.len(), n.functions.len());
            for (df, nf) in d.functions.iter().zip(n.functions.iter()) {
                assert_eq!(df.selector, nf.selector);
                assert_eq!(df.params, nf.params);
            }
        }
    }

    #[test]
    fn histogram_buckets_quantiles_and_merge() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        // 99 fast observations and one slow outlier: p50/p90 stay in the
        // fast bucket's bound, p99 reaches at most the next bucket up,
        // max is exact.
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), Duration::from_millis(50));
        // 100 µs lands in [2^16, 2^17) ns → upper bound 131 071 ns.
        assert!(h.p50() >= Duration::from_micros(100));
        assert!(h.p50() < Duration::from_micros(200));
        assert!(h.p90() < Duration::from_micros(200));
        // p99 is the 99th fast observation, still in the fast bucket.
        assert!(h.p99() < Duration::from_micros(200));
        assert_eq!(h.quantile(1.0), Duration::from_millis(50));
        // Merge keeps counts and the exact max.
        let mut other = LatencyHistogram::default();
        other.record(Duration::from_millis(80));
        h.merge(&other);
        assert_eq!(h.count(), 101);
        assert_eq!(h.max(), Duration::from_millis(80));
        // Sub-nanosecond observations clamp into bucket 0, not a panic.
        let mut zero = LatencyHistogram::default();
        zero.record(Duration::ZERO);
        assert_eq!(zero.count(), 1);
        assert_eq!(zero.buckets()[0], 1);
    }

    #[test]
    fn histogram_quantile_never_underestimates() {
        // The tail-monitoring contract: quantile(q) is an upper bound on
        // the true q-quantile (clamped to the exact max).
        let mut h = LatencyHistogram::default();
        let samples: Vec<Duration> = (1..=200).map(|i| Duration::from_micros(i * 37)).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            assert!(
                h.quantile(q) >= truth,
                "q={q}: histogram {:?} under-reports true {truth:?}",
                h.quantile(q)
            );
            assert!(h.quantile(q) <= h.max());
        }
    }
}
