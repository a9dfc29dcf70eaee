//! Parallel batch recovery with dedup-first, function-grained scheduling
//! on sharded work-stealing deques.
//!
//! The paper's efficiency experiments run SigRec over 47 M functions, and
//! deployed bytecode is massively duplicated (factory clones, token
//! templates). The scheduler therefore groups byte-identical contracts
//! **before** dispatching work, and parallelises *inside* contracts: each
//! distinct code is planned once ([`SigRec::plan`]: disassembly + dispatch
//! extraction), then every (contract, dispatch-entry) pair becomes its own
//! work unit. The finished contract is assembled in dispatcher order,
//! memoised, and the `Arc`-shared result is fanned out to every duplicate
//! index without cloning function vectors.
//!
//! Scheduling is sharded: every worker owns a deque, claims from its own
//! back (LIFO — depth-first, cache-hot), and steals from victims' fronts
//! (FIFO — the oldest, coarsest jobs) when empty. Size-aware admission
//! keeps giant contracts from head-of-line-blocking a batch: plans
//! classified *heavy* at plan time (dispatcher width or bytecode size)
//! scatter their function jobs across every shard's front, where they
//! fill idle capacity without ever jumping ahead of a worker's in-flight
//! light contracts. Light plans keep their fan-out in hand, so a small
//! contract's latency is its own work, not its queue position. See
//! "Sharded scheduling" in `docs/INTERNALS.md` for the full protocol.
//!
//! [`recover_batch_naive`] runs the same scheduler with singleton groups
//! and the cache bypassed, as the equivalence/throughput baseline.
//!
//! [`SigRec::plan`]: crate::pipeline::SigRec
//! [`RecoveryCache`]: crate::cache::RecoveryCache

use crate::outcome::{assemble_diagnostics, Diagnostic};
use crate::pipeline::{CacheMode, ContractPlan, RecoveredFunction, SigRec};
use crate::rules::RuleStats;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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
/// enough to sit on the scheduler's completion path. Quantile reads
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
    /// scheduler.
    pub rule_stats: RuleStats,
    /// Deduplication accounting.
    pub dedup: DedupStats,
    /// Per-function timing aggregation over the recoveries performed.
    pub timings: BatchTimings,
    /// Wall-clock latency of each *distinct* contract, plan to last
    /// function completed (function-grained scheduling shows up here:
    /// a wide contract's entries run on several workers at once).
    pub contract_latencies: Vec<Duration>,
    /// Log-bucketed histogram over `contract_latencies` — the tail
    /// (p50/p90/p99/max) without hauling the raw vector around.
    pub contract_latency_hist: LatencyHistogram,
    /// Distinct contracts the size-aware admission classified *heavy*
    /// (dispatcher width ≥ the admission threshold, or bytecode past the
    /// EIP-170 deploy cap) and therefore scattered across every shard
    /// instead of running depth-first on one worker.
    pub heavy_admissions: usize,
}

impl BatchResult {
    /// Total functions recovered (duplicates included).
    pub fn function_count(&self) -> usize {
        self.items.iter().map(|i| i.functions.len()).sum()
    }
}

/// Recovers every contract in `codes` using `workers` threads, recovering
/// each byte-distinct code once and fanning the `Arc`-shared result out
/// to duplicates. Work is scheduled per (contract, dispatch-entry) unit,
/// so one contract's functions can run on several workers concurrently.
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
    run_scheduler(sigrec, codes, groups, workers, CacheMode::ReadWrite)
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

/// The baseline scheduler: every contract is its own group (duplicates
/// are *not* coalesced) and the cache is bypassed, so each function is
/// re-explored exactly as [`SigRec::recover_cold`] would. Runs on the
/// same sharded work-stealing scheduler as [`recover_batch`].
pub fn recover_batch_naive(sigrec: &SigRec, codes: &[Vec<u8>], workers: usize) -> BatchResult {
    let groups = (0..codes.len()).map(|i| (i, vec![i])).collect();
    run_scheduler(sigrec, codes, groups, workers, CacheMode::Bypass)
}

/// One unit of scheduler work.
enum Job {
    /// Plan group `g`: disassemble, extract the dispatch table, fan one
    /// [`Job::Func`] per entry (in hand for light plans, scattered across
    /// shards for heavy ones).
    Plan(usize),
    /// Recover dispatch entry `idx` of group `group`'s plan. Each job
    /// holds the plan, so the plan (its disassembly and program) is freed
    /// with the contract's last function job, not with the batch.
    Func {
        group: usize,
        idx: usize,
        plan: Arc<ContractPlan>,
    },
}

/// Size-aware admission: a plan whose dispatch table has at least this
/// many entries is *heavy* — its function jobs scatter across every
/// shard's front so the whole pool chips in, instead of running
/// depth-first (and head-of-line-blocking) on one worker. Light plans
/// (the overwhelming majority of real contracts) stay below it and keep
/// their fan-out in hand.
const HEAVY_ENTRIES: usize = 32;

/// The bytecode-size admission trigger: EIP-170's deploy cap. Anything
/// past it is synthetic (adversarial corpus, pre-spurious-dragon chains)
/// and treated as heavy even before its dispatcher width is known to be
/// wide — size is the plan-time signal that exploration will be slow.
const HEAVY_CODE_BYTES: usize = 24_576;

/// Upper bound on jobs moved per shard-lock acquisition, for local claims
/// and steals alike. The actual claim is adaptive (see [`claim_size`]);
/// the cap bounds how much work one worker can hide in hand from thieves.
const CLAIM_CAP: usize = 8;

/// Jobs a worker claims from its *own* shard per lock acquisition,
/// adapted to the backlog-per-worker ratio: `len / workers`, clamped to
/// `[1, CLAIM_CAP]`. A deep backlog amortises the lock over more jobs; a
/// shallow one claims less, leaving the remainder visible to thieves
/// instead of hidden in one worker's hand — the fixed pop constant this
/// replaces over-grabbed exactly when the queue was nearly drained and
/// siblings were starving.
fn claim_size(len: usize, workers: usize) -> usize {
    (len / workers.max(1)).clamp(1, CLAIM_CAP)
}

/// Jobs a thief takes from a victim's front: steal-half, clamped to
/// `[1, CLAIM_CAP]`. Halving keeps the victim supplied while giving the
/// thief enough to amortise the (cross-shard) lock touch.
fn steal_size(len: usize) -> usize {
    (len / 2).clamp(1, CLAIM_CAP)
}

/// Failed steal sweeps (every victim probed, every shard empty) a worker
/// absorbs with an exponential spin before it escalates to parking.
/// Oversubscribed pools (more workers than cores) hammer the shard locks
/// with futile probes — at 16 workers on this corpus the failure count is
/// ~40× the 4-worker figure — so a short spin keeps the worker off the
/// locks while a sibling's fan-out lands, and the park path (with its
/// condvar round-trip) stays reserved for genuine idleness.
const STEAL_BACKOFF_SWEEPS: u32 = 2;

/// Spin-loop hints served on the first backoff round; each further round
/// doubles it.
const BACKOFF_SPINS_BASE: u32 = 32;

/// Per-worker scheduler counters. Plain (non-atomic) `u64`s: each worker
/// owns its struct exclusively for the lifetime of the pool (handed out
/// by `iter_mut` before the scope spawns), and the aggregation happens
/// only after `std::thread::scope` joins every worker — the join is the
/// happens-before edge that makes every increment visible, the same
/// quiescence argument `StatsAccum`'s Relaxed counters rely on, taken to
/// its limit: no atomics at all on the hot path, because no two threads
/// ever touch the same counter and nothing reads them mid-flight.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerCounters {
    /// Jobs obtained by stealing from another worker's shard.
    steals: u64,
    /// Steal probes that found a victim's shard empty.
    steal_failures: u64,
    /// Times this worker parked (registered as a sleeper and waited)
    /// because every shard was drained — the contention/idleness signal.
    parks: u64,
    /// Spin-backoff rounds served after failed steal sweeps, before the
    /// worker escalated to parking.
    backoffs: u64,
}

/// One worker's deque. Owners push and claim at the *back* (LIFO,
/// depth-first, cache-hot); thieves and heavy-admission scatter use the
/// *front* (FIFO — the oldest, coarsest jobs, and the lowest local
/// priority).
struct Shard {
    deque: Mutex<VecDeque<Job>>,
}

/// The sharded work-stealing scheduler core: per-worker deques plus the
/// steal-aware quiescence protocol.
///
/// Termination: `pending` counts every job that has been created and not
/// yet finished, wherever it lives (a shard, a worker's hand, or mid-run).
/// Follow-up jobs are counted *before* their parent decrements, so
/// `pending == 0` is reachable only at true quiescence. An idle worker
/// that fails to claim or steal parks on the epoch condvar; every push
/// bumps the epoch when sleepers are registered, and the sleeper
/// re-scans *after* registering — one side of that pair always observes
/// the other, so a wake-up cannot be lost. The worker finishing the last
/// job bumps the epoch unconditionally, releasing every parked worker to
/// observe `pending == 0` and exit.
struct Scheduler {
    shards: Vec<Shard>,
    /// Jobs created and not yet finished (queued + in hand + running).
    pending: AtomicUsize,
    /// Workers currently registered as (about to be) parked.
    sleepers: AtomicUsize,
    /// Wake-up epoch: bumped by pushes (when sleepers are registered) and
    /// by batch completion; parked workers wait for it to move.
    epoch: Mutex<u64>,
    wake: Condvar,
}

impl Scheduler {
    /// Builds the scheduler with `jobs` seeded round-robin across
    /// `workers` shards.
    fn new(workers: usize, jobs: impl ExactSizeIterator<Item = Job>) -> Self {
        let mut deques: Vec<VecDeque<Job>> = (0..workers).map(|_| VecDeque::new()).collect();
        let total = jobs.len();
        for (k, job) in jobs.enumerate() {
            deques[k % workers].push_back(job);
        }
        Scheduler {
            shards: deques
                .into_iter()
                .map(|deque| Shard {
                    deque: Mutex::new(deque),
                })
                .collect(),
            pending: AtomicUsize::new(total),
            sleepers: AtomicUsize::new(0),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
        }
    }

    fn lock(&self, shard: usize) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.shards[shard].deque.lock().expect("scheduler poisoned")
    }

    /// Bumps the wake-up epoch and wakes every parked worker.
    fn wake_all(&self) {
        let mut epoch = self.epoch.lock().expect("scheduler poisoned");
        *epoch += 1;
        drop(epoch);
        self.wake.notify_all();
    }

    /// Wakes parked workers iff any are registered (pushes call this
    /// after making jobs visible; the sleeper-side re-scan closes the
    /// race, see the type-level docs).
    fn wake_if_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.wake_all();
        }
    }

    /// Scatters `jobs` round-robin across every shard's *front*, starting
    /// after `from` — the heavy-admission path. Counted into `pending`
    /// before becoming visible so quiescence can't be declared between
    /// visibility and accounting.
    fn push_scatter(&self, from: usize, jobs: Vec<Job>) {
        let shards = self.shards.len();
        self.pending.fetch_add(jobs.len(), Ordering::SeqCst);
        let mut per_shard: Vec<Vec<Job>> = (0..shards).map(|_| Vec::new()).collect();
        for (k, job) in jobs.into_iter().enumerate() {
            per_shard[(from + 1 + k) % shards].push(job);
        }
        for (s, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let mut deque = self.lock(s);
            for job in batch {
                deque.push_front(job);
            }
        }
        self.wake_if_sleepers();
    }

    /// Accounts follow-up jobs a worker keeps *in hand* (never visible in
    /// a shard): they still hold the quiescence count until finished.
    fn adopt_in_hand(&self, n: usize) {
        self.pending.fetch_add(n, Ordering::SeqCst);
    }

    /// Claims an adaptive batch from the worker's own back. Returns how
    /// many jobs were appended to `out`.
    fn claim_local(&self, me: usize, out: &mut VecDeque<Job>) -> usize {
        let mut deque = self.lock(me);
        let len = deque.len();
        if len == 0 {
            return 0;
        }
        let n = claim_size(len, self.shards.len());
        for _ in 0..n {
            let job = deque.pop_back().expect("len checked");
            out.push_back(job);
        }
        n
    }

    /// Tries every victim once (round-robin from `me + 1`), stealing half
    /// of the first non-empty shard's front. Returns how many jobs were
    /// appended to `out`; updates the thief's counters either way.
    fn steal(&self, me: usize, out: &mut VecDeque<Job>, counters: &mut WorkerCounters) -> usize {
        let shards = self.shards.len();
        for k in 1..shards {
            let victim = (me + k) % shards;
            let mut deque = self.lock(victim);
            let len = deque.len();
            if len == 0 {
                counters.steal_failures += 1;
                continue;
            }
            let n = steal_size(len);
            for _ in 0..n {
                let job = deque.pop_front().expect("len checked");
                out.push_back(job);
            }
            counters.steals += n as u64;
            return n;
        }
        0
    }

    /// Marks one job finished; the last one wakes everyone so parked
    /// workers can observe quiescence and exit.
    fn finish_job(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.wake_all();
        }
    }

    /// True when any shard has visible work.
    fn any_queued(&self) -> bool {
        (0..self.shards.len()).any(|s| !self.lock(s).is_empty())
    }

    /// Parks until the epoch moves or the batch quiesces. The re-scan
    /// after registering as a sleeper pairs with `wake_if_sleepers`'s
    /// post-push check: whichever side runs second sees the other, so a
    /// job pushed concurrently with parking is never slept through.
    fn park(&self, counters: &mut WorkerCounters) {
        let seen = *self.epoch.lock().expect("scheduler poisoned");
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.pending.load(Ordering::SeqCst) == 0 || self.any_queued() {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        counters.parks += 1;
        let mut epoch = self.epoch.lock().expect("scheduler poisoned");
        while *epoch == seen && self.pending.load(Ordering::SeqCst) != 0 {
            epoch = self.wake.wait(epoch).expect("scheduler poisoned");
        }
        drop(epoch);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A finished group: its `Arc`-shared function list, assembled
/// diagnostics, and plan-to-last-function latency.
type GroupDone = (Arc<Vec<RecoveredFunction>>, Arc<Vec<Diagnostic>>, Duration);

/// Per-group scheduler state: the per-entry result slots and the
/// finished `Arc`-shared function list.
struct GroupState {
    /// Input index of the representative contract.
    rep: usize,
    /// All duplicate input indices (includes `rep`).
    members: Vec<usize>,
    slots: Mutex<Vec<Option<RecoveredFunction>>>,
    remaining: AtomicUsize,
    /// [`Diagnostic::InternalError`]s from isolated worker panics. A
    /// non-empty list marks the group poisoned: its partial result is
    /// still delivered, but never memoised.
    panics: Mutex<Vec<Diagnostic>>,
    started: OnceLock<Instant>,
    done: OnceLock<GroupDone>,
}

impl GroupState {
    fn finish(&self, functions: Arc<Vec<RecoveredFunction>>, diagnostics: Arc<Vec<Diagnostic>>) {
        let elapsed = self.started.get().map(|t| t.elapsed()).unwrap_or_default();
        self.done
            .set((functions, diagnostics, elapsed))
            .expect("group finished once");
    }
}

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

/// Everything a worker needs by reference.
struct Ctx<'a> {
    sigrec: &'a SigRec,
    codes: &'a [Vec<u8>],
    states: &'a [GroupState],
    sched: Scheduler,
    mode: CacheMode,
    /// Distinct contracts classified heavy at plan time.
    heavy: AtomicUsize,
}

/// The one scheduler both batch entry points share. `groups` maps each
/// distinct work unit to (representative index, duplicate indices);
/// `mode` decides cache participation. Workers pull (contract,
/// dispatch-entry) jobs from sharded deques: planning a contract fans its
/// entries (in hand when light, scattered when heavy), and the last entry
/// to finish assembles, seals, and timestamps the contract.
fn run_scheduler(
    sigrec: &SigRec,
    codes: &[Vec<u8>],
    groups: Vec<(usize, Vec<usize>)>,
    workers: usize,
    mode: CacheMode,
) -> BatchResult {
    let dedup = DedupStats {
        total_contracts: codes.len(),
        distinct_contracts: groups.len(),
    };
    let mut result = BatchResult {
        dedup,
        ..Default::default()
    };
    if groups.is_empty() {
        return result;
    }
    let states: Vec<GroupState> = groups
        .into_iter()
        .map(|(rep, members)| GroupState {
            rep,
            members,
            slots: Mutex::new(Vec::new()),
            remaining: AtomicUsize::new(0),
            panics: Mutex::new(Vec::new()),
            started: OnceLock::new(),
            done: OnceLock::new(),
        })
        .collect();
    let workers = workers.max(1);
    // Longest-plan-first seeding, the classic makespan heuristic: a
    // giant planned early has the whole batch to amortise over instead
    // of landing on one worker at the end. Owners claim from their
    // shard's *back*, so the seeds are sorted ascending by code size —
    // the largest plans land at the backs and are claimed first, while
    // thieves (stealing from fronts) start on the small fry. Result
    // assembly is by group index, so the schedule order is free.
    let mut order: Vec<usize> = (0..states.len()).collect();
    order.sort_by_key(|&g| codes[states[g].rep].len());
    let ctx = Ctx {
        sigrec,
        codes,
        states: &states,
        sched: Scheduler::new(workers, order.into_iter().map(Job::Plan)),
        mode,
        heavy: AtomicUsize::new(0),
    };
    let mut counters: Vec<WorkerCounters> = vec![WorkerCounters::default(); workers];
    std::thread::scope(|scope| {
        for (me, mine) in counters.iter_mut().enumerate() {
            let ctx = &ctx;
            scope.spawn(move || worker_loop(ctx, me, mine));
        }
    });
    // Workers are joined; the scheduler is quiescent. Aggregate the
    // per-worker counters and hand them (plus the latency tail) to the
    // stats accumulator.
    let mut parks = 0u64;
    let mut steals = 0u64;
    let mut steal_failures = 0u64;
    let mut steal_backoffs = 0u64;
    for c in &counters {
        parks += c.parks;
        steals += c.steals;
        steal_failures += c.steal_failures;
        steal_backoffs += c.backoffs;
    }
    result.heavy_admissions = ctx.heavy.load(Ordering::Relaxed);
    for gs in &states {
        let (functions, diagnostics, elapsed) = gs.done.get().expect("every group finished");
        for f in functions.iter() {
            result.timings.record(f.elapsed);
        }
        result.contract_latencies.push(*elapsed);
        result.contract_latency_hist.record(*elapsed);
        let mut stats = RuleStats::new();
        for f in functions.iter() {
            stats.absorb(&f.rules);
        }
        for &index in &gs.members {
            result.rule_stats.merge(&stats);
            result.items.push(BatchItem {
                index,
                functions: Arc::clone(functions),
                diagnostics: Arc::clone(diagnostics),
            });
        }
    }
    sigrec.note_scheduler(
        parks,
        steals,
        steal_failures,
        steal_backoffs,
        &result.contract_latencies,
    );
    result.items.sort_by_key(|i| i.index);
    result
}

/// One worker: drain in-hand jobs, then claim from the own shard, then
/// steal, then park; exit at quiescence.
fn worker_loop(ctx: &Ctx<'_>, me: usize, counters: &mut WorkerCounters) {
    let mut hand: VecDeque<Job> = VecDeque::new();
    // Consecutive steal sweeps that came back empty; drives the bounded
    // spin-then-park backoff below.
    let mut failed_sweeps = 0u32;
    loop {
        let job = match hand.pop_front() {
            Some(job) => job,
            None => {
                if ctx.sched.claim_local(me, &mut hand) > 0
                    || ctx.sched.steal(me, &mut hand, counters) > 0
                {
                    failed_sweeps = 0;
                    continue;
                }
                if ctx.sched.pending.load(Ordering::SeqCst) == 0 {
                    return;
                }
                if failed_sweeps < STEAL_BACKOFF_SWEEPS {
                    // Bounded exponential spin: give an in-flight fan-out
                    // a moment to land before re-probing every shard lock
                    // (or paying a condvar park).
                    for _ in 0..(BACKOFF_SPINS_BASE << failed_sweeps) {
                        std::hint::spin_loop();
                    }
                    failed_sweeps += 1;
                    counters.backoffs += 1;
                    continue;
                }
                failed_sweeps = 0;
                ctx.sched.park(counters);
                continue;
            }
        };
        run_job(ctx, me, job, &mut hand);
        ctx.sched.finish_job();
    }
}

/// Executes one job. A light plan's fan-out goes to the *front* of the
/// worker's hand, so the contract drains depth-first before anything else
/// the worker has claimed — its latency measures its own work, not queue
/// position. A heavy plan's fan-out scatters across every shard instead.
fn run_job(ctx: &Ctx<'_>, me: usize, job: Job, hand: &mut VecDeque<Job>) {
    match job {
        Job::Plan(g) => {
            let gs = &ctx.states[g];
            let _ = gs.started.set(Instant::now());
            // Panic isolation: a worker that dies planning (or, below,
            // recovering) one contract must not unwind through the scope
            // and poison the whole batch — the contract gets an
            // `InternalError` diagnostic and every other contract
            // completes, stolen siblings included.
            let planned = catch_unwind(AssertUnwindSafe(|| {
                Arc::new(ctx.sigrec.plan(&ctx.codes[gs.rep], ctx.mode))
            }));
            let plan = match planned {
                Ok(plan) => plan,
                Err(payload) => {
                    gs.finish(
                        Arc::new(Vec::new()),
                        Arc::new(vec![panic_diagnostic("planning panicked", &*payload)]),
                    );
                    return;
                }
            };
            if let Some(hit) = &plan.cached {
                let diags = assemble_diagnostics(&hit.extraction_diags, &hit.functions);
                gs.finish(Arc::clone(&hit.functions), Arc::new(diags));
            } else if plan.table.is_empty() {
                let functions = Arc::new(Vec::new());
                ctx.sigrec.seal(&plan, &functions);
                gs.finish(functions, Arc::new(plan.extraction_diags.clone()));
            } else {
                let n = plan.table.len();
                let heavy = n >= HEAVY_ENTRIES || ctx.codes[gs.rep].len() >= HEAVY_CODE_BYTES;
                *gs.slots.lock().expect("slots poisoned") = (0..n).map(|_| None).collect();
                gs.remaining.store(n, Ordering::Release);
                let jobs: Vec<Job> = (0..n)
                    .map(|idx| Job::Func {
                        group: g,
                        idx,
                        plan: Arc::clone(&plan),
                    })
                    .collect();
                if heavy {
                    ctx.heavy.fetch_add(1, Ordering::Relaxed);
                    ctx.sched.push_scatter(me, jobs);
                } else {
                    ctx.sched.adopt_in_hand(jobs.len());
                    for (at, job) in jobs.into_iter().enumerate() {
                        hand.insert(at, job);
                    }
                }
            }
        }
        Job::Func { group, idx, plan } => {
            let gs = &ctx.states[group];
            let recovered = catch_unwind(AssertUnwindSafe(|| {
                ctx.sigrec
                    .run_entry(&ctx.codes[gs.rep], &plan, idx, ctx.mode)
                    .0
            }));
            match recovered {
                Ok(f) => gs.slots.lock().expect("slots poisoned")[idx] = Some(f),
                Err(payload) => {
                    let entry = plan.table[idx];
                    gs.panics
                        .lock()
                        .expect("panics poisoned")
                        .push(panic_diagnostic(
                            &format!("recovery of {} panicked", entry.selector),
                            &*payload,
                        ));
                }
            }
            if gs.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last entry of the contract: assemble in dispatcher
                // order (panicked entries leave gaps), memoise unless
                // poisoned, timestamp.
                let functions: Vec<RecoveredFunction> = gs
                    .slots
                    .lock()
                    .expect("slots poisoned")
                    .iter_mut()
                    .filter_map(Option::take)
                    .collect();
                let panics = std::mem::take(&mut *gs.panics.lock().expect("panics poisoned"));
                if panics.is_empty() {
                    ctx.sigrec.seal(&plan, &functions);
                }
                let mut diags = assemble_diagnostics(&plan.extraction_diags, &functions);
                diags.extend(panics);
                gs.finish(Arc::new(functions), Arc::new(diags));
            }
        }
    }
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
        let result = recover_batch(&SigRec::new(), &codes, 3);
        assert_eq!(result.items.len(), 4);
        for (i, item) in result.items.iter().enumerate() {
            assert_eq!(item.index, i);
            assert_eq!(item.functions.len(), 1);
        }
        assert_eq!(result.function_count(), 4);
        assert_eq!(result.dedup.distinct_contracts, 4);
        assert_eq!(result.contract_latencies.len(), 4);
        assert_eq!(result.contract_latency_hist.count(), 4);
        assert_eq!(result.heavy_admissions, 0, "small contracts stay light");
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
    fn wide_contract_entries_schedule_independently() {
        // One contract with many functions: the scheduler splits it into
        // per-entry jobs, and reassembly must restore dispatcher order.
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
    fn claim_is_adaptive_in_backlog_and_workers() {
        // Deep backlog, few workers: claim the cap. Shallow backlog, many
        // workers: claim one, leaving the rest visible to thieves.
        assert_eq!(claim_size(64, 4), CLAIM_CAP);
        assert_eq!(claim_size(64, 64), 1);
        assert_eq!(claim_size(3, 8), 1);
        assert_eq!(claim_size(1, 1), 1);
        assert_eq!(claim_size(100, 1), CLAIM_CAP);
        // Never zero, even on an (impossible) zero-worker call.
        assert_eq!(claim_size(5, 0), 5.min(CLAIM_CAP));
    }

    #[test]
    fn steal_takes_half_up_to_the_cap() {
        assert_eq!(steal_size(1), 1);
        assert_eq!(steal_size(2), 1);
        assert_eq!(steal_size(7), 3);
        assert_eq!(steal_size(100), CLAIM_CAP);
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
