//! Command-line signature recovery.
//!
//! ```text
//! sigrec <file>      # file containing hex runtime bytecode (0x prefix ok)
//! sigrec -           # read hex from stdin
//! ```
//!
//! Prints one line per recovered function: selector, parameter list,
//! detected language, applied rules, and recovery time.

use sigrec_core::SigRec;
use std::io::Read;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let explain = args.iter().any(|a| a == "--explain");
    args.retain(|a| a != "--explain");
    let arg = args.into_iter().next().unwrap_or_else(|| {
        eprintln!("usage: sigrec [--explain] <file-with-hex-bytecode | ->");
        std::process::exit(2);
    });
    let read = if arg == "-" {
        let mut buf = Vec::new();
        std::io::stdin().read_to_end(&mut buf).map(|_| buf)
    } else {
        std::fs::read(&arg)
    };
    let raw = read.unwrap_or_else(|e| {
        let source = if arg == "-" { "stdin" } else { &arg };
        eprintln!("sigrec: cannot read {source}: {e}");
        std::process::exit(2);
    });
    let code = match parse_hex(&raw) {
        Some(code) if !code.is_empty() => code,
        _ => {
            eprintln!("sigrec: input is not hex bytecode");
            std::process::exit(2);
        }
    };
    if explain {
        for e in SigRec::new().explain(&code) {
            println!(
                "{}  paths={} {}",
                e.function.signature(),
                e.paths_explored,
                if e.hit_symbolic_jump {
                    "(cut at symbolic jump)"
                } else {
                    ""
                }
            );
            for (pc, loc) in &e.loads {
                println!("  load  @{pc:<5} cd[{loc}]");
            }
            for (pc, src, len) in &e.copies {
                println!("  copy  @{pc:<5} src={src} len={len}");
            }
            for (pc, cond, is_loop) in &e.guards {
                println!(
                    "  guard @{pc:<5} {cond}{}",
                    if *is_loop { "  [loop]" } else { "" }
                );
            }
        }
        return;
    }
    let outcome = SigRec::new().recover_with_outcome(&code);
    let recovered = &outcome.functions;
    if recovered.is_empty() {
        println!(
            "no public/external functions found ({} bytes of code)",
            code.len()
        );
        for d in &outcome.diagnostics {
            println!("  note: {d}");
        }
        return;
    }
    println!(
        "{} function(s) in {} bytes of runtime code:",
        recovered.len(),
        code.len()
    );
    for f in recovered {
        let rules: Vec<String> = {
            let mut seen = std::collections::BTreeSet::new();
            f.rules.iter().for_each(|r| {
                seen.insert(r.to_string());
            });
            seen.into_iter().collect()
        };
        println!(
            "  {}  {:<40}  {:?}  [{}]  {:?}",
            f.selector,
            f.signature().param_list(),
            f.language,
            rules.join(","),
            f.elapsed
        );
    }
    for d in outcome.losses() {
        println!("  warning: {d}");
    }
}

/// Decodes hex bytecode: ASCII whitespace anywhere and one leading `0x` are
/// allowed; anything else that is not an ASCII hex digit is refused.
fn parse_hex(raw: &[u8]) -> Option<Vec<u8>> {
    let cleaned: Vec<u8> = raw
        .iter()
        .copied()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    let digits = cleaned.strip_prefix(b"0x").unwrap_or(&cleaned);
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |b: u8| (b as char).to_digit(16);
    digits
        .chunks(2)
        .map(|pair| Some((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect()
}
