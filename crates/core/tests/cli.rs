//! The `sigrec` command line: input that cannot be read or is not hex
//! bytecode exits 2 with a message on stderr instead of panicking, and a
//! compiled contract recovers with exit code 0.

use sigrec_abi::FunctionSignature;
use sigrec_solc::{compile, CompilerConfig, FunctionSpec, Visibility};
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

fn sigrec(args: &[&str], stdin: &[u8]) -> Run {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sigrec"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("sigrec runs");
    // A run that exits before reading its input closes the pipe; the
    // write error that causes is not the test's concern.
    let _ = child.stdin.take().expect("piped stdin").write_all(stdin);
    let out = child.wait_with_output().expect("sigrec exits");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into(),
        stderr: String::from_utf8_lossy(&out.stderr).into(),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sigrec-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn stdin_that_is_not_ascii_hex_exits_2() {
    for input in [&b"a\xc3\xa90"[..], b"\xff\xfe", b"zz", b"+f+f"] {
        let run = sigrec(&["-"], input);
        assert_eq!(run.code, Some(2), "{input:02x?}: {}", run.stderr);
        assert!(
            run.stderr.contains("sigrec: input is not hex bytecode"),
            "{input:02x?}: {}",
            run.stderr
        );
    }
}

#[test]
fn no_argument_exits_2_with_usage() {
    let run = sigrec(&[], b"");
    assert_eq!(run.code, Some(2), "{}", run.stderr);
    assert!(run.stderr.contains("usage: sigrec"), "{}", run.stderr);
}

#[test]
fn an_unreadable_file_exits_2() {
    let dir = scratch("missing");
    let path = dir.join("no-such-file.hex");
    let run = sigrec(&[path.to_str().unwrap()], b"");
    assert_eq!(run.code, Some(2), "{}", run.stderr);
    assert!(run.stderr.contains("sigrec: cannot read"), "{}", run.stderr);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_compiled_transfer_recovers_from_a_file() {
    let contract = compile(
        &[FunctionSpec::new(
            FunctionSignature::parse("transfer(address,uint256)").unwrap(),
            Visibility::External,
        )],
        &CompilerConfig::default(),
    );
    let hex: String = contract.code.iter().map(|b| format!("{b:02x}")).collect();
    let dir = scratch("transfer");
    let path = dir.join("transfer.hex");
    std::fs::write(&path, format!("0x{hex}\n")).unwrap();
    let run = sigrec(&[path.to_str().unwrap()], b"");
    assert_eq!(run.code, Some(0), "{}", run.stderr);
    let line = run
        .stdout
        .lines()
        .find(|l| l.contains("0xa9059cbb"))
        .unwrap_or_else(|| panic!("no 0xa9059cbb line in {}", run.stdout));
    assert!(line.contains("(address,uint256)"), "{line}");
    std::fs::remove_dir_all(&dir).unwrap();
}
