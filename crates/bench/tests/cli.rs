//! `repro`'s command line: a usage error exits 2 with a message on
//! stderr, before any experiment runs.

use std::process::Command;

fn exit_code(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_flag_without_a_value_exits_2() {
    for flag in ["--contracts", "--seed", "--per-version"] {
        let (code, stderr) = exit_code(&["rq1", flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

#[test]
fn a_non_numeric_flag_value_exits_2() {
    for flag in ["--contracts", "--seed", "--per-version"] {
        let (code, stderr) = exit_code(&["rq1", flag, "abc"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("abc"), "{flag}: {stderr}");
    }
}

#[test]
fn the_retired_throughput_experiment_is_unknown() {
    let (code, stderr) = exit_code(&["throughput"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment"), "{stderr}");
}
