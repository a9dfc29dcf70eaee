//! Concurrent accumulation into the shared executor-stats accumulator.
//!
//! `SigRec::with_exec_stats` hands every clone the same atomic
//! accumulator, all of it updated with `Ordering::Relaxed`. That is sound
//! because the counters are independent monotonic sums read only at
//! quiescence (see the `StatsAccum` docs): after the worker threads are
//! joined, the totals must equal a serial run's exactly — no lost
//! increments. These tests pin that equivalence.

use sigrec_abi::FunctionSignature;
use sigrec_core::pipeline::PipelineStats;
use sigrec_core::SigRec;
use sigrec_solc::{compile, CompilerConfig, FunctionSpec, Visibility};

fn corpus() -> Vec<Vec<u8>> {
    let decls: &[&[&str]] = &[
        &["transfer(address,uint256)", "balanceOf(address)"],
        &["sum(uint256[])", "set(bytes)"],
        &["mix(bool,int128,bytes4)", "grid(uint256[3][2])"],
        &["note(string)", "rows(uint256[4][])"],
        &["pair(uint8,uint16)", "hash(bytes32)"],
        &["all(uint256[][])", "one(int256)"],
        &["flag(bool)", "owner(address)"],
        &["blob(bytes)", "third(uint8[3])"],
    ];
    let config = CompilerConfig::default();
    decls
        .iter()
        .map(|fns| {
            let specs: Vec<FunctionSpec> = fns
                .iter()
                .map(|d| {
                    FunctionSpec::new(FunctionSignature::parse(d).unwrap(), Visibility::External)
                })
                .collect();
            compile(&specs, &config).code
        })
        .collect()
}

/// Serial reference: the same recoveries through one instance on one
/// thread. `recover_cold` bypasses the cache, so every run explores every
/// function and the counters are exactly reproducible.
fn serial_stats(codes: &[Vec<u8>]) -> PipelineStats {
    let sigrec = SigRec::new().with_exec_stats();
    for code in codes {
        let _ = sigrec.recover_cold(code);
    }
    sigrec.exec_stats().unwrap()
}

#[test]
fn parallel_accumulation_equals_serial_totals() {
    let codes = corpus();
    let expected = serial_stats(&codes);

    let sigrec = SigRec::new().with_exec_stats();
    std::thread::scope(|s| {
        for chunk in codes.chunks(2) {
            let worker = sigrec.clone();
            s.spawn(move || {
                for code in chunk {
                    let _ = worker.recover_cold(code);
                }
            });
        }
    });
    // The scope join gives the happens-before edge; from here the
    // Relaxed-accumulated totals must be complete.
    let got = sigrec.exec_stats().unwrap();

    assert_eq!(got.functions_explored, expected.functions_explored);
    assert_eq!(got.exec.steps, expected.exec.steps, "lost step increments");
    assert_eq!(got.exec.paths, expected.exec.paths);
    assert_eq!(got.exec.forks, expected.exec.forks);
    assert_eq!(
        got.exec.worklist_peak, expected.exec.worklist_peak,
        "fetch_max must converge to the same peak"
    );
}

#[test]
fn repeated_parallel_runs_are_stable() {
    // Relaxed ordering must not introduce run-to-run variance in the
    // joined totals: three concurrent runs, identical counters.
    let codes = corpus();
    let runs: Vec<PipelineStats> = (0..3)
        .map(|_| {
            let sigrec = SigRec::new().with_exec_stats();
            std::thread::scope(|s| {
                for chunk in codes.chunks(3) {
                    let worker = sigrec.clone();
                    s.spawn(move || {
                        for code in chunk {
                            let _ = worker.recover_cold(code);
                        }
                    });
                }
            });
            sigrec.exec_stats().unwrap()
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run.functions_explored, runs[0].functions_explored);
        assert_eq!(run.exec.steps, runs[0].exec.steps);
    }
}
