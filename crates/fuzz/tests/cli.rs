//! `fuzz_smoke`'s command line: an argument that is not a number exits
//! 2 with a message on stderr, before the campaign runs.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fuzz_smoke"))
        .args(args)
        .output()
        .expect("fuzz_smoke runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn non_numeric_cases_exit_2() {
    let (code, stderr) = run(&["abc"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("cases") && stderr.contains("abc"),
        "{stderr}"
    );
}

#[test]
fn a_non_numeric_seed_exits_2() {
    let (code, stderr) = run(&["5", "xyz"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("seed") && stderr.contains("xyz"),
        "{stderr}"
    );
}
