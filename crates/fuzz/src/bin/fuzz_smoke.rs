//! Bounded adversarial smoke campaign for CI.
//!
//! Runs `run_adversarial` with a fixed seed over ~200 hostile contracts
//! and exits non-zero on any violated guarantee (panic, path
//! disagreement, silent truncation, identity miss, deadline overrun, or
//! unbounded work).
//! Usage:
//!
//! ```text
//! fuzz_smoke [cases] [seed]
//! ```

use sigrec_fuzz::{run_adversarial, AdversarialCampaign};

fn main() {
    let mut args = std::env::args().skip(1);
    let cases = args
        .next()
        .map(|a| a.parse().expect("cases must be a number"))
        .unwrap_or(210);
    let seed = args
        .next()
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(0xad5e_c0de);
    let campaign = AdversarialCampaign {
        seed,
        cases,
        ..AdversarialCampaign::default()
    };
    let report = run_adversarial(&campaign);
    print!("{}", report.summary());
    if !report.is_green() {
        std::process::exit(1);
    }
}
