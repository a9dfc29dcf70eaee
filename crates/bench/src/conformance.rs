//! Conformance experiment: metamorphic differential coverage at scale.
//!
//! Runs the targeted R1–R31 corpus plus a scale-dependent batch of random
//! sources through the full conformance harness (every transform, every
//! execution path, shared-cache and whole-corpus batch relations) and
//! renders the per-rule hit table next to the differential verdict. The
//! machine-readable report lands in `CONFORMANCE_coverage.json`, same
//! convention as `BENCH_replay.json`.

use crate::accuracy::Scale;
use crate::report::TextTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sigrec_conformance::{run, write_coverage_json, RunOptions};
use sigrec_core::RuleId;
use sigrec_corpus::metamorph::{conformance_corpus, random_sources};
use sigrec_corpus::scenario::ScenarioClass;

/// Runs the conformance harness and renders the coverage report.
pub fn conformance(scale: &Scale) -> String {
    // One random source per ~25 corpus contracts keeps the experiment a
    // few seconds at the default scale while still mixing freely drawn
    // shapes into the targeted set.
    let extras = (scale.contracts / 25).max(4);
    let mut sources = conformance_corpus();
    let targeted = sources.len();
    let mut rng = StdRng::seed_from_u64(scale.seed);
    sources.extend(random_sources(&mut rng, extras));
    let report = run(
        &sources,
        &RunOptions {
            seed: scale.seed,
            batch_workers: 4,
            ..RunOptions::default()
        },
    );

    let mut table = TextTable::new(&["rule", "hits", "rule", "hits", "rule", "hits"]);
    // Three columns of ~11 rules each keeps the table terminal-sized.
    let per_col = RuleId::ALL.len().div_ceil(3);
    for i in 0..per_col {
        let mut cells = Vec::new();
        for col in 0..3 {
            match RuleId::ALL.get(col * per_col + i) {
                Some(&r) => {
                    cells.push(r.to_string());
                    cells.push(report.rule_hits.count(r).to_string());
                }
                None => {
                    cells.push(String::new());
                    cells.push(String::new());
                }
            }
        }
        table.row(&cells);
    }

    // The dispatcher-scenario battery's per-class coverage (gated by the
    // harness: a class at zero turns the whole run red).
    let mut scenarios = TextTable::new(&["scenario class", "cases"]);
    for class in ScenarioClass::all() {
        let n = report
            .scenario_class_hits
            .get(class.name())
            .copied()
            .unwrap_or(0);
        scenarios.row(&[class.name().to_string(), n.to_string()]);
    }

    if let Err(e) = write_coverage_json(&report, "CONFORMANCE_coverage.json") {
        eprintln!("warning: could not write CONFORMANCE_coverage.json: {e}");
    }

    format!(
        "Conformance ({} targeted + {} random sources; \
         CONFORMANCE_coverage.json written)\n{}\n{}\n{}",
        targeted,
        extras,
        report.summary().trim_end(),
        table.render(),
        scenarios.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_experiment_reports_full_coverage() {
        let report = conformance(&Scale {
            contracts: 25,
            per_version: 1,
            seed: 9,
        });
        assert!(report.contains("rule coverage: 31/31"), "{report}");
        assert!(report.contains("scenario classes: 7/7"), "{report}");
        assert!(report.contains("minimal-proxy"), "{report}");
        assert!(report.contains("mismatches: 0"), "{report}");
        let _ = std::fs::remove_file("CONFORMANCE_coverage.json");
    }
}
