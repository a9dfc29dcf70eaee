//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--contracts N] [--seed S] [--per-version K]
//! experiments: rq1 fig15 fig16 fig17 fig18 fig19
//!              table1 table2 table3 table4 table5
//!              attacks fuzzing erays ablation obfuscation
//!              replay conformance all
//! ```
//!
//! An unknown experiment, or a flag without a numeric value, exits 2.

use sigrec_bench::{Scale, *};
use std::str::FromStr;

/// Parses the value after `flag`, or exits 2 naming the flag.
fn flag_value<T: FromStr>(flag: &str, value: Option<String>) -> T {
    match value {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} takes a number, got {v:?}"))),
        None => usage_error(&format!("{flag} takes a number")),
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::default();
    let mut which = String::from("all");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--contracts" => scale.contracts = flag_value(&arg, args.next()),
            "--seed" => scale.seed = flag_value(&arg, args.next()),
            "--per-version" => scale.per_version = flag_value(&arg, args.next()),
            _ => which = arg,
        }
    }
    let run = |name: &str| -> Option<String> {
        Some(match name {
            "rq1" => rq1(&scale),
            "fig15" => fig15(&scale),
            "fig16" => fig16(&scale),
            "fig17" => fig17(&scale),
            "fig18" => fig18(),
            "fig19" => fig19(&scale),
            "table1" => table1(&scale),
            "table2" => table2(&scale),
            "table3" => table3(&scale),
            "table4" => table4(&scale),
            "table5" => table5(&scale),
            "attacks" => attacks(&scale),
            "fuzzing" => fuzzing(&scale),
            "erays" => erays(&scale),
            "ablation" => ablation(&scale),
            "obfuscation" => obfuscation(&scale),
            "replay" => replay(&scale),
            "conformance" => conformance(&scale),
            _ => return None,
        })
    };
    let all = [
        "rq1",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "attacks",
        "fuzzing",
        "erays",
        "ablation",
        "obfuscation",
        "replay",
        "conformance",
    ];
    if which == "all" {
        for name in all {
            println!("{}", run(name).unwrap());
            println!();
        }
    } else {
        match run(&which) {
            Some(out) => println!("{}", out),
            None => usage_error(&format!(
                "unknown experiment {which:?}; choose one of {all:?} or 'all'"
            )),
        }
    }
}
