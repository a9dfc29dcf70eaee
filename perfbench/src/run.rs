//! The closed-loop workloads. One client thread sends a request,
//! waits for its result, checks it, and only then sends the next. Each
//! workload runs either untraced (through the library's public entry
//! points, `recover_batch` with a given worker count) or traced (through
//! [`Traced`] on one thread), over the same request sequence.

use crate::check::{full_digest, Tally};
use crate::inputs::{shuffle, sizes_of, Backfill, Input, InputSizes, BACKFILL_BATCH};
use crate::trace::{Item, Traced, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sigrec_core::{
    recover_batch, CacheStats, Diagnostic, PersistentStore, RecoveredFunction, RecoveryCache,
    SigRec, StoreStats, TaseConfig,
};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When the client stops sending.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Once the timed phase has lasted this long.
    Time(Duration),
    /// After exactly this many requests (the replays of a timed run).
    Requests(usize),
}

/// How requests reach the library.
pub enum Mode<'t> {
    /// `recover_batch(.., workers)` and the `SigRec` entry points.
    Library { workers: usize },
    /// The traced single-thread pipeline.
    Traced(&'t mut Tracer),
}

/// Everything one run measured and counted.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Latency of each request.
    pub latencies: Vec<Duration>,
    /// The process CPU time each request used (library mode only).
    pub cpu_latencies: Vec<Duration>,
    /// The timed phase: the sum of request latencies.
    pub wall: Duration,
    /// The process CPU time of the timed phase (library mode only).
    pub cpu: Duration,
    /// Contracts whose result was returned.
    pub contracts: u64,
    pub tally: Tally,
    /// Each set-up, constructing the recoverer and opening its store: on
    /// the process CPU clock and on the wall clock.
    pub setups: Vec<Duration>,
    pub setups_wall: Vec<Duration>,
    /// The `PersistentStore::open` part of each set-up.
    pub opens: Vec<Duration>,
    /// Cache and store counters, summed over every recoverer of the run.
    pub cache: CacheStats,
    pub store: StoreStats,
    /// `recover_batch` calls and their `BatchResult` counters, summed.
    pub batch_calls: u64,
    pub heavy_admissions: u64,
    /// Store bytes on disk and contracts stored.
    pub disk_bytes: u64,
    pub stored: u64,
    /// `full_digest` of every returned contract, in request order, when
    /// asked for.
    pub digests: Option<Vec<u64>>,
    /// Keys looked up per restart, in order (restart only), for timing
    /// `PersistentStore::lookup` on its own after a traced run.
    pub lookup_order: Vec<Vec<u32>>,
    /// `VmHWM` when the first full pass completed, in MiB.
    pub first_pass_peak_mb: Option<f64>,
    /// Full passes over the workload's inputs.
    pub passes: u64,
}

impl RunOutput {
    fn new(record_digests: bool) -> RunOutput {
        RunOutput {
            digests: record_digests.then(Vec::new),
            ..RunOutput::default()
        }
    }

    fn done(&self, limit: Limit) -> bool {
        match limit {
            Limit::Time(d) => self.wall >= d,
            Limit::Requests(n) => self.latencies.len() >= n,
        }
    }

    /// Marks a full pass over the workload's inputs as done. The first
    /// one records the process peak: later passes rebuild the same
    /// caches on a fresh recoverer, and only add allocator
    /// fragmentation from the rebuild.
    fn pass_done(&mut self) -> io::Result<()> {
        if self.first_pass_peak_mb.is_none() {
            self.first_pass_peak_mb = Some(peak_rss_mb()?);
        }
        self.passes += 1;
        Ok(())
    }

    fn request(&mut self, latency: Duration, cpu: Option<Duration>) {
        self.latencies.push(latency);
        self.wall += latency;
        if let Some(cpu) = cpu {
            self.cpu_latencies.push(cpu);
            self.cpu += cpu;
        }
    }

    fn absorb(&mut self, cache: &RecoveryCache) {
        let c = cache.stats();
        let s = &mut self.cache;
        s.contract_hits += c.contract_hits;
        s.contract_misses += c.contract_misses;
        s.function_hits += c.function_hits;
        s.function_misses += c.function_misses;
        s.program_hits += c.program_hits;
        s.program_misses += c.program_misses;
        s.disk_hits += c.disk_hits;
        s.disk_misses += c.disk_misses;
        if let Some(st) = cache.store_stats() {
            let s = &mut self.store;
            s.disk_hits += st.disk_hits;
            s.disk_misses += st.disk_misses;
            s.records_appended += st.records_appended;
            s.bytes_appended += st.bytes_appended;
            s.bytes_read += st.bytes_read;
            s.fsyncs += st.fsyncs;
            s.rejected_unsealed += st.rejected_unsealed;
            s.io_errors += st.io_errors;
            s.program_hits += st.program_hits;
            s.program_misses += st.program_misses;
            s.program_stale += st.program_stale;
            s.programs_appended += st.programs_appended;
        }
    }

    fn check(
        &mut self,
        input: &Input,
        functions: &[RecoveredFunction],
        diagnostics: &[Diagnostic],
        score: bool,
    ) {
        self.contracts += 1;
        self.tally.contract(input, functions, diagnostics, score);
        if let Some(d) = &mut self.digests {
            d.push(full_digest(functions, diagnostics));
        }
    }
}

/// One recoverer: the shared cache the traced mode uses directly and
/// the `SigRec` over it the library mode uses.
struct Recoverer {
    cache: RecoveryCache,
    sigrec: SigRec,
}

impl Recoverer {
    fn new(store: Option<PersistentStore>) -> Recoverer {
        let cache = match store {
            Some(store) => RecoveryCache::persistent(store),
            None => RecoveryCache::new(),
        };
        Recoverer {
            sigrec: SigRec::new().with_cache(cache.clone()),
            cache,
        }
    }

    fn traced(&self) -> Traced<'_> {
        Traced {
            cache: &self.cache,
            config: TaseConfig::default(),
        }
    }
}

/// Sets up a recoverer, optionally over a store in `dir`, timing the
/// whole set-up and the store open.
fn set_up(out: &mut RunOutput, dir: Option<&Path>) -> io::Result<Recoverer> {
    let watch = Stopwatch::start();
    let store = match dir {
        Some(dir) => {
            let t1 = Instant::now();
            let store = PersistentStore::open(dir)?;
            out.opens.push(t1.elapsed());
            Some(store)
        }
        None => None,
    };
    let recoverer = Recoverer::new(store);
    let (wall, cpu) = watch.stop();
    out.setups.push(cpu);
    out.setups_wall.push(wall);
    Ok(recoverer)
}

/// Times `n` memory-only set-ups, each recoverer dropped before the
/// next is built, and returns the (wall, CPU) time of all `n`. A single
/// set-up takes well under a microsecond, close to the clocks' own cost.
/// Dropping each one lets the next reuse its memory: kept alive, the
/// batch's allocations land wherever the heap left by input generation
/// has room, and the figure moved by a third between runs.
pub fn time_setups(n: u32) -> (Duration, Duration) {
    let watch = Stopwatch::start();
    for _ in 0..n {
        drop(std::hint::black_box(Recoverer::new(None)));
    }
    watch.stop()
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc/self/status"))
}

/// Resets `VmHWM` to the current resident set (Linux 4.0 and later),
/// after handing the allocator's free memory back to the system, so that
/// `peak_rss_mb` covers the measured run and not its set-up.
pub fn reset_peak_rss() -> io::Result<()> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The CPU time this process has used, over all its threads
/// (`CLOCK_PROCESS_CPUTIME_ID`). Unlike the wall clock it does not run
/// while the host has the vCPU descheduled.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Starts timing one request on both clocks; `stop` returns the wall
/// and CPU time since.
struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    fn start() -> Stopwatch {
        Stopwatch {
            cpu: cpu_time(),
            wall: Instant::now(),
        }
    }

    fn stop(self) -> (Duration, Duration) {
        let wall = self.wall.elapsed();
        (wall, cpu_time().saturating_sub(self.cpu))
    }
}

pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Runs one batch request and records its latency; returns its items
/// in input order.
fn batch(mode: &mut Mode, r: &Recoverer, codes: &[Vec<u8>], out: &mut RunOutput) -> Vec<Item> {
    match mode {
        Mode::Library { workers } => {
            let watch = Stopwatch::start();
            let result = recover_batch(&r.sigrec, codes, *workers);
            let (latency, cpu) = watch.stop();
            out.request(latency, Some(cpu));
            out.batch_calls += 1;
            out.heavy_admissions += result.heavy_admissions as u64;
            result
                .items
                .into_iter()
                .map(|i| (i.functions, i.diagnostics))
                .collect()
        }
        Mode::Traced(t) => {
            let t0 = Instant::now();
            let items = r.traced().batch(t, codes);
            out.request(t0.elapsed().saturating_sub(t.take_excluded()), None);
            items
        }
    }
}

/// `backfill`: the pool in requests of 128, each pass on a fresh
/// memory-only recoverer.
pub fn backfill(
    inputs: &Backfill,
    mut mode: Mode,
    limit: Limit,
    record_digests: bool,
) -> io::Result<RunOutput> {
    let mut out = RunOutput::new(record_digests);
    let mut scored = vec![false; inputs.pool.len()];
    'passes: loop {
        let r = set_up(&mut out, None)?;
        for (b, codes) in inputs.batches.iter().enumerate() {
            if out.done(limit) {
                out.absorb(&r.cache);
                break 'passes;
            }
            let items = batch(&mut mode, &r, codes, &mut out);
            for (k, (functions, diagnostics)) in items.iter().enumerate() {
                let id = b * BACKFILL_BATCH + k;
                let first = !std::mem::replace(&mut scored[id], true);
                out.check(&inputs.pool[id], functions, diagnostics, first);
            }
        }
        out.pass_done()?;
        out.absorb(&r.cache);
    }
    Ok(out)
}

/// Byte-identical copies of the `restart` store; restart `i` opens copy
/// `i % STORE_COPIES`. Each copy's file pages sit in their own place in
/// the page cache, so a run averages over that many placements of the
/// store in memory instead of depending on one.
const STORE_COPIES: usize = 8;

/// The store `restart` reopens: its contracts, recovered once and
/// flushed, with the recovery recorded for each.
pub struct RestartStore {
    /// The store's directory and its copies.
    dirs: Vec<PathBuf>,
    pub inputs: Vec<Input>,
    /// The recovery of each input recorded when the store was built.
    pub recorded: Vec<Arc<Vec<RecoveredFunction>>>,
    /// The build's operations: each result checked like a measured one,
    /// and a contract a fresh handle cannot read back counted as failed.
    pub build: Tally,
}

impl RestartStore {
    /// Builds the store untimed in `dir`, checks what it holds, and
    /// copies it.
    pub fn build(inputs: Vec<Input>, dir: &Path) -> io::Result<RestartStore> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        let dirs: Vec<PathBuf> = (0..STORE_COPIES)
            .map(|c| dir.join(format!("copy-{c}")))
            .collect();
        let r = Recoverer::new(Some(PersistentStore::open(&dirs[0])?));
        let codes: Vec<Vec<u8>> = inputs.iter().map(|i| i.code.clone()).collect();
        let result = recover_batch(&r.sigrec, &codes, 2);
        r.sigrec.flush_store()?;
        drop(r);
        let check = PersistentStore::open(&dirs[0])?;
        let mut build = Tally::default();
        let mut recorded = Vec::with_capacity(inputs.len());
        for (i, item) in result.items.into_iter().enumerate() {
            let ok = build.contract(&inputs[i], &item.functions, &item.diagnostics, false);
            if ok && check.lookup(&sigrec_evm::keccak256(&codes[i])).is_none() {
                build.fail_attempted(format!("contract {i} did not read back from the store"));
            }
            recorded.push(item.functions);
        }
        for copy in &dirs[1..] {
            std::fs::create_dir_all(copy)?;
            for entry in std::fs::read_dir(&dirs[0])? {
                let from = entry?.path();
                std::fs::copy(&from, copy.join(from.file_name().expect("a store file")))?;
            }
        }
        Ok(RestartStore {
            dirs,
            inputs,
            recorded,
            build,
        })
    }

    pub fn sizes(&self) -> InputSizes {
        sizes_of(self.inputs.iter(), self.inputs.len())
    }

    /// The copy restart `i` opens.
    fn dir(&self, i: usize) -> &Path {
        &self.dirs[i % self.dirs.len()]
    }
}

/// `restart`: repeated simulated restarts. Each opens the store and a
/// fresh recoverer over it, then looks up every stored contract once in
/// a seeded shuffled order, one `recover` call per request.
pub fn restart(
    store: &RestartStore,
    seed: u64,
    mut mode: Mode,
    limit: Limit,
    record_digests: bool,
) -> io::Result<RunOutput> {
    let mut out = RunOutput::new(record_digests);
    let mut scored = vec![false; store.inputs.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    'restarts: for i in 0.. {
        let mut order: Vec<u32> = (0..store.inputs.len() as u32).collect();
        shuffle(&mut order, &mut rng);
        let r = set_up(&mut out, Some(store.dir(i)))?;
        let mut looked_up = Vec::with_capacity(order.len());
        for &k in &order {
            if out.done(limit) {
                out.absorb(&r.cache);
                out.lookup_order.push(looked_up);
                break 'restarts;
            }
            let input = &store.inputs[k as usize];
            let code = &input.code;
            let result = match &mut mode {
                Mode::Library { .. } => {
                    let watch = Stopwatch::start();
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let o = r.sigrec.recover_with_outcome(code);
                        (Arc::new(o.functions), o.diagnostics)
                    }));
                    let (latency, cpu) = watch.stop();
                    out.request(latency, Some(cpu));
                    result
                }
                Mode::Traced(t) => {
                    let t0 = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| r.traced().recover(t, code)));
                    out.request(t0.elapsed().saturating_sub(t.take_excluded()), None);
                    result
                }
            };
            looked_up.push(k);
            match result {
                Ok((functions, diagnostics)) => {
                    let first = !std::mem::replace(&mut scored[k as usize], true);
                    out.check(input, &functions, &diagnostics, first);
                    out.tally.digest(&functions, &store.recorded[k as usize]);
                }
                Err(_) => out.tally.panicked("restart lookup"),
            }
        }
        out.pass_done()?;
        out.absorb(&r.cache);
        out.lookup_order.push(looked_up);
    }
    out.stored = store.inputs.len() as u64;
    out.disk_bytes = dir_bytes(store.dir(0))?;
    Ok(out)
}

/// Times `PersistentStore::lookup` on its own: a fresh handle per
/// restart, the same keys in the same order. Returns (open, lookup).
pub fn replay_lookups(
    store: &RestartStore,
    order: &[Vec<u32>],
) -> io::Result<(Duration, Duration)> {
    let mut open = Duration::ZERO;
    let mut lookup = Duration::ZERO;
    for (i, keys) in order.iter().enumerate() {
        let t0 = Instant::now();
        let handle = PersistentStore::open(store.dir(i))?;
        open += t0.elapsed();
        for &k in keys {
            let key = sigrec_evm::keccak256(&store.inputs[k as usize].code);
            let t1 = Instant::now();
            let hit = handle.lookup(&key);
            lookup += t1.elapsed();
            if hit.is_none() {
                return Err(io::Error::other("a stored contract did not read back"));
            }
        }
    }
    Ok((open, lookup))
}
