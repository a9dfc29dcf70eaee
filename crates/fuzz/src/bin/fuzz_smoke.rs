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
//!
//! A value that is not a number exits 2 with a message.

use sigrec_fuzz::{run_adversarial, AdversarialCampaign};
use std::str::FromStr;

/// Parses the `what` argument, or exits 2 naming it and its value.
fn number<T: FromStr>(what: &str, value: String) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{what} takes a number, got {value:?}\nusage: fuzz_smoke [cases] [seed]");
        std::process::exit(2);
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cases = args.next().map(|a| number("cases", a)).unwrap_or(210);
    let seed = args
        .next()
        .map(|a| number("seed", a))
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
