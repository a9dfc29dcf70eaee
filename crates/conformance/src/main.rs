//! The conformance CLI: runs the metamorphic differential harness over
//! the deterministic rule-coverage corpus plus extra random sources and
//! the dispatcher-scenario battery (proxies, forwarders, diamonds,
//! factory children, handler-only contracts, alternate codegen), prints
//! a summary, writes the coverage JSON, and exits non-zero on any
//! mismatch, uncovered rule, or scenario class with zero covered cases
//! (CI gates on this). A usage error — an unknown argument, a flag
//! without a value, or a value that is not a number where one is due —
//! exits 2 with a message before anything runs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sigrec_conformance::{run, write_coverage_json, RunOptions};
use sigrec_core::InferEngine;
use sigrec_corpus::metamorph::{conformance_corpus, random_sources};
use std::str::FromStr;

/// Parses `value`, the value after `flag`, or exits 2 naming both.
fn number<T: FromStr>(flag: &str, value: String) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes a number, got {value:?}");
        std::process::exit(2);
    })
}

fn main() {
    let mut extra_contracts = 12usize;
    let mut seed = 0x0051_e7ec_u64;
    let mut out = String::from("CONFORMANCE_coverage.json");
    let mut workers = 4usize;
    let mut infer_engine = InferEngine::default();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    eprintln!("missing value after {}", args[i]);
                    std::process::exit(2);
                })
                .clone()
        };
        match args[i].as_str() {
            "--contracts" => {
                extra_contracts = number(&args[i], value(i));
                i += 2;
            }
            "--seed" => {
                seed = number(&args[i], value(i));
                i += 2;
            }
            "--out" => {
                out = value(i);
                i += 2;
            }
            "--workers" => {
                workers = number(&args[i], value(i));
                i += 2;
            }
            "--infer-engine" => {
                infer_engine = match value(i).as_str() {
                    "tree" => InferEngine::Tree,
                    "perrule" | "per-rule" => InferEngine::PerRule,
                    other => {
                        eprintln!("--infer-engine takes `tree` or `perrule`, got `{other}`");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: sigrec-conformance [--contracts N] [--seed S] [--workers W]\n\
                     \x20                         [--infer-engine tree|perrule] [--out FILE]\n\
                     \n\
                     Runs the targeted R1-R31 coverage corpus plus N random extra\n\
                     sources (default 12) through every transform and execution\n\
                     path (each case also cross-checks the other inference\n\
                     engine), then the dispatcher-scenario battery (per-class\n\
                     coverage is gated); writes FILE (default\n\
                     CONFORMANCE_coverage.json)."
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other} (try --help)");
                std::process::exit(2);
            }
        }
    }

    let mut sources = conformance_corpus();
    let mut rng = StdRng::seed_from_u64(seed);
    sources.extend(random_sources(&mut rng, extra_contracts));

    let report = run(
        &sources,
        &RunOptions {
            seed,
            batch_workers: workers,
            infer_engine,
        },
    );
    print!("{}", report.summary());
    match write_coverage_json(&report, &out) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("could not write {out}: {e}");
            std::process::exit(1);
        }
    }
    if !report.is_green() {
        std::process::exit(1);
    }
}
