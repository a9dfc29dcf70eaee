//! The repository benchmark: closed-loop workloads against the
//! SigRec library's public API, end-to-end metrics from an untraced run,
//! and a per-layer split from a separate traced run. See `README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload backfill --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod inputs;
mod json;
mod run;
mod trace;

use inputs::{
    mix, restart_inputs, Backfill, InputSizes, RESTART_HOSTILE, RESTART_TEMPLATES, SALT_WARMUP,
};
use json::Json;
use run::{Limit, Mode, RestartStore, RunOutput};
use sigrec_core::StoreOptions;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use trace::{Layer, Tracer};

/// The seed later claims are made on, and the one held out to confirm
/// them.
const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 1009;
/// `recover_batch` workers. The bench machine has 2 vCPUs, but with a
/// worker on each, run-to-run throughput swung by half between runs
/// minutes apart (the workers contend for the cache and scheduler locks,
/// and a lock holder's vCPU can be descheduled by the host); with one
/// worker the swing halves. One worker also makes the measured run the
/// single-worker reference the traced run is checked against.
const WORKERS: usize = 1;
/// Stand-alone set-up samples timed before a `backfill` run, each over
/// `SETUP_BATCH` set-ups; `setup_s` is the median sample. (`restart`
/// sets up once per restart and takes the median over those.)
const SETUP_SAMPLES: usize = 64;
const SETUP_BATCH: u32 = 256;
/// The warm-up runs on inputs this many times smaller than the measured
/// ones.
const WARM_DIVISOR: usize = 8;
/// Where stores, working files and span dumps go, under the working
/// directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Backfill,
    Restart,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "backfill" => Some(Workload::Backfill),
            "restart" => Some(Workload::Restart),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Backfill => "backfill",
            Workload::Restart => "restart",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: sigrec-perfbench --workload <backfill|restart> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workdir =
        PathBuf::from(OUT_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = std::fs::create_dir_all(&workdir).and_then(|()| bench(&args, &workdir));
    let _ = std::fs::remove_dir_all(&workdir);
    match result {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A workload's inputs, generated before any clock starts.
enum Prepared {
    Backfill(Backfill),
    Restart(RestartStore),
}

impl Prepared {
    /// The inputs, with every corpus cut to `1 / divisor` of its size.
    fn generate(
        workload: Workload,
        seed: u64,
        divisor: usize,
        dir: &Path,
    ) -> std::io::Result<Prepared> {
        Ok(match workload {
            Workload::Backfill => Prepared::Backfill(Backfill::generate(seed, divisor)),
            Workload::Restart => {
                let inputs = restart_inputs(
                    seed,
                    RESTART_TEMPLATES / divisor,
                    RESTART_HOSTILE.div_ceil(divisor),
                );
                Prepared::Restart(RestartStore::build(inputs, &dir.join("store"))?)
            }
        })
    }

    fn sizes(&self) -> InputSizes {
        match self {
            Prepared::Backfill(b) => b.sizes(),
            Prepared::Restart(r) => r.sizes(),
        }
    }

    /// Runs the workload's closed loop once.
    fn run(
        &self,
        mode: Mode,
        limit: Limit,
        digests: bool,
        seed: u64,
    ) -> std::io::Result<RunOutput> {
        match self {
            Prepared::Backfill(b) => run::backfill(b, mode, limit, digests),
            Prepared::Restart(r) => run::restart(r, seed, mode, limit, digests),
        }
    }
}

fn bench(args: &Args, workdir: &Path) -> std::io::Result<String> {
    let warm_requests = match args.workload {
        Workload::Backfill => 8,
        Workload::Restart => 256,
    };
    // Inputs and the restart store are built before any clock starts.
    let prepared = Prepared::generate(args.workload, args.seed, 1, workdir)?;
    // Warm the allocator and page cache on a disjoint seed, through a
    // recoverer of its own: the measured recoverer starts empty.
    let warm_dir = workdir.join("warm");
    std::fs::create_dir_all(&warm_dir)?;
    let warm = Prepared::generate(
        args.workload,
        mix(args.seed, SALT_WARMUP),
        WARM_DIVISOR,
        &warm_dir,
    )?;
    warm.run(
        Mode::Library { workers: WORKERS },
        Limit::Requests(warm_requests),
        false,
        args.seed,
    )?;
    drop(warm);
    std::fs::remove_dir_all(&warm_dir)?;

    // Stand-alone set-ups: the set-ups inside a run follow the teardown
    // of a full cache and would mix allocator-return costs into
    // `setup_s`. `restart` needs none: its restarts are its set-ups.
    // Each sample covers `per_sample` set-ups.
    let (mut setups_wall, mut setups): (Vec<Duration>, Vec<Duration>) = match prepared {
        Prepared::Backfill(_) => (0..SETUP_SAMPLES)
            .map(|_| run::time_setups(SETUP_BATCH))
            .unzip(),
        Prepared::Restart(_) => (Vec::new(), Vec::new()),
    };
    let per_sample = match prepared {
        Prepared::Backfill(_) => SETUP_BATCH,
        Prepared::Restart(_) => 1,
    } as f64;
    run::reset_peak_rss()?;
    let limit = Limit::Time(Duration::from_secs(args.seconds));
    let mut measured = prepared.run(
        Mode::Library { workers: WORKERS },
        limit,
        args.trace,
        args.seed,
    )?;
    let peak_rss_mb = match measured.first_pass_peak_mb {
        Some(mb) => mb,
        None => run::peak_rss_mb()?,
    };
    if let Prepared::Restart(r) = &prepared {
        setups.extend(&measured.setups);
        setups_wall.extend(&measured.setups_wall);
        // The store build's operations are the workload's too.
        measured.tally.absorb(&r.build);
    }

    let mut record = environment(args, &prepared, workdir);
    let mut report = vec![report_line(args.workload, "untraced", &measured)];
    let (correct, metrics) = if args.trace {
        let (ok, metrics, notes) = traced(args, &prepared, &measured, &mut report)?;
        record.push(("traced_run", notes));
        (ok && measured.tally.failed == 0, metrics)
    } else {
        // Timings are on the process CPU clock. The bench VM's host
        // deschedules its vCPUs at times (steal time), and the wall
        // clock would charge that to the program; the wall-clock
        // figures go in the run record.
        let metrics = vec![
            metric(
                "contracts_per_s",
                measured.contracts as f64 / measured.cpu.as_secs_f64(),
                "contracts/cpu-s",
            ),
            metric(
                "request_p50_ms",
                ms(percentile(&measured.cpu_latencies, 0.50)),
                "cpu-ms",
            ),
            metric(
                "request_p90_ms",
                ms(percentile(&measured.cpu_latencies, 0.90)),
                "cpu-ms",
            ),
            metric(
                "setup_s",
                percentile(&setups, 0.50).as_secs_f64() / per_sample,
                "s",
            ),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
            metric("accuracy", measured.tally.accuracy(), "fraction"),
        ];
        (measured.tally.failed == 0, metrics)
    };
    record.push((
        "untraced_run",
        Json::Obj(vec![
            ("requests", Json::Int(measured.latencies.len() as u64)),
            ("timed_phase_s", Json::Num(measured.wall.as_secs_f64())),
            ("timed_phase_cpu_s", Json::Num(measured.cpu.as_secs_f64())),
            (
                "wall_contracts_per_s",
                Json::Num(measured.contracts as f64 / measured.wall.as_secs_f64()),
            ),
            (
                "wall_request_p50_ms",
                Json::Num(ms(percentile(&measured.latencies, 0.50))),
            ),
            (
                "wall_request_p90_ms",
                Json::Num(ms(percentile(&measured.latencies, 0.90))),
            ),
            (
                "wall_setup_s",
                Json::Num(percentile(&setups_wall, 0.50).as_secs_f64() / per_sample),
            ),
            ("contracts", Json::Int(measured.contracts)),
            ("full_passes", Json::Int(measured.passes)),
            ("setup_samples", Json::Int(setups.len() as u64)),
            (
                "labelled_functions_scored",
                Json::Int(measured.tally.scored),
            ),
            (
                "failures",
                Json::Arr(
                    measured
                        .tally
                        .failures
                        .iter()
                        .cloned()
                        .map(Json::Str)
                        .collect(),
                ),
            ),
        ]),
    ));
    for line in &report {
        println!("{line}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value} {unit}");
    }
    println!("{}", Json::Obj(record));
    Ok(Json::Obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(measured.tally.attempted)),
        ("failed", Json::Int(measured.tally.failed)),
        ("metrics", metrics_json(&metrics)),
    ])
    .to_string())
}

/// The per-layer split: the traced replay of the measured request
/// sequence, checked against the measured run.
fn traced(
    args: &Args,
    prepared: &Prepared,
    measured: &RunOutput,
    report: &mut Vec<String>,
) -> std::io::Result<(bool, Vec<Metric>, Json)> {
    let requests = Limit::Requests(measured.latencies.len());
    let mut tracer = Tracer::new();
    let traced = prepared.run(Mode::Traced(&mut tracer), requests, true, args.seed)?;
    report.push(report_line(args.workload, "traced", &traced));

    // Fidelity: the traced results equal the measured run's, contract by
    // contract, and so do its work counts.
    let mut differences: Vec<String> = Vec::new();
    let (a, b) = (
        measured.digests.as_deref().unwrap_or_default(),
        traced.digests.as_deref().unwrap_or_default(),
    );
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count() + a.len().abs_diff(b.len());
    if differing > 0 {
        differences.push(format!(
            "{differing} contract result(s) differ from the untraced run"
        ));
    }
    let (rc, tc, rs, ts) = (
        &measured.cache,
        &traced.cache,
        &measured.store,
        &traced.store,
    );
    for (name, want, got) in [
        ("compiles", rc.program_misses, tc.program_misses),
        ("explored functions", rc.function_misses, tc.function_misses),
        ("function cache hits", rc.function_hits, tc.function_hits),
        ("contract cache hits", rc.contract_hits, tc.contract_hits),
        (
            "contract cache misses",
            rc.contract_misses,
            tc.contract_misses,
        ),
        ("program memo hits", rc.program_hits, tc.program_hits),
        ("store appends", rs.records_appended, ts.records_appended),
        (
            "store program appends",
            rs.programs_appended,
            ts.programs_appended,
        ),
        ("store bytes appended", rs.bytes_appended, ts.bytes_appended),
        ("store reads (hits)", rs.disk_hits, ts.disk_hits),
        ("store reads (misses)", rs.disk_misses, ts.disk_misses),
        ("store bytes read", rs.bytes_read, ts.bytes_read),
        ("store program hits", rs.program_hits, ts.program_hits),
        (
            "explored functions (span count)",
            rc.function_misses,
            tracer.counts.functions,
        ),
        (
            "compiles (span count)",
            rc.program_misses,
            tracer.counts.compiles,
        ),
    ] {
        if want != got {
            differences.push(format!("{name}: untraced {want}, traced {got}"));
        }
    }
    if tracer.counts.probe_mismatches > 0 {
        differences.push(format!(
            "{} exploration(s) counted different steps or paths under the statistics probe",
            tracer.counts.probe_mismatches
        ));
    }
    if !tracer.spans_disjoint() {
        differences.push("spans overlap".into());
    }
    for d in &differences {
        report.push(format!("fidelity: {d}"));
    }

    let busy = tracer.busy();
    let busy_ms = |layer: Layer| busy[layer as usize] as f64 / 1e6;
    let total_busy: u64 = busy.iter().sum();
    let traced_wall = traced.wall.as_nanos() as u64;
    let residual_ns = traced_wall as i64 - total_busy as i64;
    let overhead_ns = traced_wall as i64 - measured.wall.as_nanos() as i64;
    // `PersistentStore::lookup` runs inside `RecoveryCache::lookup_contract`
    // on restart; it is timed on its own by replaying the same keys.
    let (replay_open, replay_lookup) = match prepared {
        Prepared::Restart(r) => run::replay_lookups(r, &traced.lookup_order)?,
        _ => (Duration::ZERO, Duration::ZERO),
    };
    let m = &measured;
    let c = &tracer.counts;
    let metrics = vec![
        metric("disasm.busy_ms", busy_ms(Layer::Disasm), "ms"),
        metric("disasm.instructions", c.instructions as f64, "count"),
        metric("extract.busy_ms", busy_ms(Layer::Extract), "ms"),
        metric("extract.entries", c.entries as f64, "count"),
        metric("extract.diagnostics", c.extract_diagnostics as f64, "count"),
        metric("program.busy_ms", busy_ms(Layer::Program), "ms"),
        metric("program.compiles", c.compiles as f64, "count"),
        metric("program.blocks_compiled", c.blocks_compiled as f64, "count"),
        metric("program.blocks_skipped", c.blocks_skipped as f64, "count"),
        metric("exec.busy_ms", busy_ms(Layer::Exec), "ms"),
        metric("exec.functions", c.functions as f64, "count"),
        metric("exec.steps", c.steps as f64, "count"),
        metric("exec.paths", c.paths as f64, "count"),
        metric("exec.forks", c.forks as f64, "count"),
        metric(
            "exec.fork_units_copied",
            c.fork_units_copied as f64,
            "count",
        ),
        metric("exec.budget_cuts", c.budget_cuts as f64, "count"),
        metric("infer.busy_ms", busy_ms(Layer::Infer), "ms"),
        metric("infer.index_ms", c.infer_index_ns as f64 / 1e6, "ms"),
        metric("infer.match_ms", c.infer_match_ns as f64 / 1e6, "ms"),
        metric("infer.refine_ms", c.infer_refine_ns as f64 / 1e6, "ms"),
        metric("cache.busy_ms", busy_ms(Layer::Cache), "ms"),
        metric(
            "cache.contract_hit_rate",
            m.cache.contract_hit_rate(),
            "fraction",
        ),
        metric(
            "cache.function_hit_rate",
            m.cache.function_hit_rate(),
            "fraction",
        ),
        metric(
            "cache.program_hit_rate",
            m.cache.program_hit_rate(),
            "fraction",
        ),
        metric(
            "store.open_ms",
            ms(traced.opens.iter().sum::<Duration>()),
            "ms",
        ),
        metric("store.lookup_ms", ms(replay_lookup), "ms"),
        metric("store.bytes_read", m.store.bytes_read as f64, "bytes"),
        metric("store.program_hits", m.store.program_hits as f64, "count"),
        metric(
            "disk_bytes_per_contract",
            if m.stored == 0 {
                0.0
            } else {
                m.disk_bytes as f64 / m.stored as f64
            },
            "bytes",
        ),
        metric("batch.calls", m.batch_calls as f64, "count"),
        metric("batch.heavy_admissions", m.heavy_admissions as f64, "count"),
        metric(
            "batch.efficiency",
            total_busy as f64 / (WORKERS as f64 * m.wall.as_nanos() as f64),
            "fraction",
        ),
        metric("pipeline.residual_ms", residual_ns as f64 / 1e6, "ms"),
        metric("pipeline.trace_overhead_ms", overhead_ns as f64 / 1e6, "ms"),
        metric(
            "pipeline.fidelity_differences",
            differences.len() as f64,
            "count",
        ),
    ];
    let mut notes = vec![
        "spans never nest: a layer's busy time is the sum of its spans, and the traced wall minus all spans is pipeline.residual_ms".to_string(),
        "pipeline.trace_overhead_ms is the traced wall minus the untraced (single-worker) wall; the traced run groups duplicates and recovers contracts in one loop on the client thread, so it also drops recover_batch's worker start-up and queueing, and may come out negative".to_string(),
        "exec.forks and exec.fork_units_copied come from a second exploration with collect_stats, excluded from the request latency".to_string(),
        "cache rates, StoreStats counters and BatchResult counters come from the untraced run".to_string(),
    ];
    if let Prepared::Restart(_) = prepared {
        notes.push(format!(
            "RecoveryCache::lookup_contract is recorded under core::cache, including the store read and the verify-only program promote it performs; store.lookup_ms times PersistentStore::lookup on its own, replaying the traced run's keys in order on fresh handles (whose opens took {:.3} ms)",
            ms(replay_open)
        ));
    }
    let spans_path = Path::new(OUT_DIR).join(format!("spans-{}.bin", args.workload.name()));
    tracer.write_spans(&spans_path)?;
    let notes = Json::Obj(vec![
        ("requests", Json::Int(traced.latencies.len() as u64)),
        ("wall_ms", Json::Num(traced_wall as f64 / 1e6)),
        ("spans", Json::Int(tracer.spans.len() as u64)),
        ("span_sum_ms", Json::Num(total_busy as f64 / 1e6)),
        ("untraced_wall_ms", Json::Num(ms(measured.wall))),
        ("spans_file", Json::Str(spans_path.display().to_string())),
        (
            "span_layers",
            Json::Arr(
                Layer::ALL
                    .iter()
                    .map(|l| Json::Str(l.module().into()))
                    .collect(),
            ),
        ),
        (
            "fidelity_differences",
            Json::Arr(differences.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "notes",
            Json::Arr(notes.into_iter().map(Json::Str).collect()),
        ),
    ]);
    Ok((
        differences.is_empty() && traced.tally.failed == 0,
        metrics,
        notes,
    ))
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    (name, value, unit)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                let fields = vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ];
                (name, Json::Obj(fields))
            })
            .collect(),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile.
fn percentile(samples: &[Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn report_line(workload: Workload, run: &str, out: &RunOutput) -> String {
    format!(
        "{} {run}: {} requests, {} contracts, timed phase {:.3} s, {} attempted, {} failed, accuracy {:.4}",
        workload.name(),
        out.latencies.len(),
        out.contracts,
        out.wall.as_secs_f64(),
        out.tally.attempted,
        out.tally.failed,
        out.tally.accuracy()
    )
}

/// The environment every result records.
fn environment(args: &Args, prepared: &Prepared, workdir: &Path) -> Vec<(&'static str, Json)> {
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse::<u64>().ok());
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .ok();
    let options = StoreOptions::default();
    let sizes = prepared.sizes();
    vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed)),
        ("default_seed", Json::Int(DEFAULT_SEED)),
        ("held_out_seed", Json::Int(HELD_OUT_SEED)),
        ("seconds", Json::Int(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", nproc.map_or(Json::Null, Json::Int)),
        (
            "available_parallelism",
            parallelism.map_or(Json::Null, Json::Int),
        ),
        ("batch_workers", Json::Int(WORKERS as u64)),
        ("clients", Json::Int(1)),
        ("store_dir", Json::Str(workdir.display().to_string())),
        (
            "store_filesystem",
            filesystem_of(workdir).map_or(Json::Null, Json::Str),
        ),
        (
            "store_fsync_policy",
            Json::Str(format!(
                "fsync every {} appends, segments roll at {} bytes (StoreOptions::default)",
                options.fsync_every, options.max_segment_bytes
            )),
        ),
        (
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("commit", git_commit().map_or(Json::Null, Json::Str)),
        (
            "source_digest",
            source_digest().map_or(Json::Null, Json::Str),
        ),
        (
            "inputs",
            Json::Obj(vec![
                ("contracts_per_pass", Json::Int(sizes.contracts as u64)),
                ("distinct_contracts", Json::Int(sizes.distinct as u64)),
                ("labelled_functions", Json::Int(sizes.functions as u64)),
                ("bytes", Json::Int(sizes.bytes as u64)),
            ]),
        ),
    ]
}

/// The filesystem type of the mount holding `dir`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map(|(_, fs)| fs)
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
fn git_commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Keccak-256 over the library sources (`crates/`, `Cargo.lock`), which
/// identifies the code measured even where no git metadata is present.
fn source_digest() -> Option<String> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.is_dir() {
                walk(&path, files)?;
            } else {
                files.push(path);
            }
        }
        Ok(())
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files).ok()?;
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).ok()?);
    }
    Some(
        sigrec_evm::keccak256(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect(),
    )
}
