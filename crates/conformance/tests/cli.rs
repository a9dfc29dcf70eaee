//! `sigrec-conformance`'s command line: a usage error exits 2 with a
//! message on stderr, before any case runs.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sigrec-conformance"))
        .args(args)
        .output()
        .expect("sigrec-conformance runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn a_non_numeric_flag_value_exits_2() {
    for flag in ["--contracts", "--seed", "--workers"] {
        let (code, stderr) = run(&[flag, "abc"]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(flag) && stderr.contains("abc"),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn a_flag_without_a_value_exits_2() {
    for flag in [
        "--contracts",
        "--seed",
        "--workers",
        "--out",
        "--infer-engine",
    ] {
        let (code, stderr) = run(&[flag]);
        assert_eq!(code, Some(2), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
}

#[test]
fn an_unknown_argument_or_engine_exits_2() {
    let (code, stderr) = run(&["--bogus"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--bogus"), "{stderr}");
    let (code, stderr) = run(&["--infer-engine", "magic"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("magic"), "{stderr}");
}
