//! Function-id extraction from the dispatcher.
//!
//! A compiled contract begins with a dispatcher that loads the first
//! calldata word, moves the 4-byte selector to the low end (`DIV 2²²⁴` or
//! `SHR 224`), and compares it against each function id, jumping to the
//! body on a match. SigRec extracts the `(id, entry)` pairs by symbolically
//! walking this prologue: at each `JUMPI` whose condition is
//! `EQ(selector_expr, constant)`, it records the pair and continues down
//! the not-taken chain.

use crate::expr::{BinOp, ExprArena, ExprId, ExprKind, UnOp};
use crate::outcome::{Diagnostic, MalformedKind, TruncationKind};
use sigrec_abi::Selector;
use sigrec_evm::{Disassembly, Opcode, U256};

/// A dispatch table entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DispatchEntry {
    /// The 4-byte function id compared against.
    pub selector: Selector,
    /// pc of the function body (a `JUMPDEST`).
    pub entry: usize,
}

/// The dispatch table plus everything that limited its extraction.
#[derive(Clone, Debug, Default)]
pub struct DispatchExtraction {
    /// The extracted entries, dispatcher order, selector-deduplicated.
    pub table: Vec<DispatchEntry>,
    /// Truncation and malformed-code diagnostics. When non-empty the
    /// table may be missing entries; it never contains fabricated ones.
    pub diagnostics: Vec<Diagnostic>,
}

/// Walks the dispatcher and returns the dispatch table, dropping the
/// diagnostics — see [`extract_dispatch_diag`] for the full result.
pub fn extract_dispatch(disasm: &Disassembly) -> Vec<DispatchEntry> {
    extract_dispatch_diag(disasm).table
}

/// Walks the dispatcher and returns the dispatch table with diagnostics.
///
/// Unknown values (environment reads, memory) become opaque symbols. The
/// walk follows fallthrough at selector `EQ` comparisons and *forks* at
/// selector range splits (`LT`/`GT` on the selector — solc's binary-search
/// dispatch for contracts with many functions), stopping each branch at a
/// terminator or after a step cap. Every cut that can drop entries is
/// surfaced as a [`Diagnostic`]: the per-chain step cap, the fork budget,
/// and malformed code (shorter than a selector, or a truncated `PUSH`
/// executed by the walk — the EVM zero-fills those, so a selector compare
/// built from one is untrustworthy and is never emitted as an entry).
pub fn extract_dispatch_diag(disasm: &Disassembly) -> DispatchExtraction {
    let mut diagnostics = Vec::new();
    let code_len = disasm.code_len();
    if code_len > 0 && code_len < 4 {
        // Shorter than one selector: no dispatcher can compare anything.
        diagnostics.push(Diagnostic::MalformedCode(MalformedKind::CodeTooShort {
            len: code_len,
        }));
        return DispatchExtraction {
            table: Vec::new(),
            diagnostics,
        };
    }
    let mut out = Vec::new();
    // The walk's own expressions, shared by every chain of this extraction.
    let mut arena = ExprArena::new();
    let mut worklist: Vec<(usize, Vec<ExprId>)> = vec![(0, Vec::new())];
    let mut forked: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut walk = WalkDiag::default();
    let mut branches = 0;
    while let Some((start_pc, start_stack)) = worklist.pop() {
        branches += 1;
        if branches > 64 {
            // A chain was pending: some range-split subtree stays unwalked.
            diagnostics.push(Diagnostic::DispatcherTruncated(TruncationKind::Branches));
            break;
        }
        walk_chain(
            disasm,
            &mut arena,
            start_pc,
            start_stack,
            &mut out,
            &mut worklist,
            &mut forked,
            &mut walk,
        );
    }
    if walk.step_capped {
        diagnostics.push(Diagnostic::DispatcherTruncated(TruncationKind::Steps));
    }
    if let Some(pc) = walk.truncated_push_pc {
        diagnostics.push(Diagnostic::MalformedCode(MalformedKind::TruncatedPush {
            pc,
        }));
    }
    // Deduplicate (a selector reachable via two forks) preserving order.
    let mut seen = std::collections::HashSet::new();
    out.retain(|e: &DispatchEntry| seen.insert(e.selector));
    DispatchExtraction {
        table: out,
        diagnostics,
    }
}

/// What the chain walks ran into, aggregated across every chain of one
/// extraction.
#[derive(Default)]
struct WalkDiag {
    /// Some chain hit the step cap mid-walk.
    step_capped: bool,
    /// First truncated `PUSH` the walk executed, if any.
    truncated_push_pc: Option<usize>,
}

#[allow(clippy::too_many_arguments)]
fn walk_chain(
    disasm: &Disassembly,
    arena: &mut ExprArena,
    start_pc: usize,
    start_stack: Vec<ExprId>,
    out: &mut Vec<DispatchEntry>,
    worklist: &mut Vec<(usize, Vec<ExprId>)>,
    forked: &mut std::collections::HashSet<usize>,
    diag: &mut WalkDiag,
) {
    let mut stack = start_stack;
    let mut pc = start_pc;
    let mut steps = 0;
    let mut next_sym = 0u32;
    let max_steps = 100_000;
    loop {
        if steps >= max_steps {
            // The chain was still making progress: entries past this
            // point are silently missing without the diagnostic.
            diag.step_capped = true;
            break;
        }
        steps += 1;
        let Some(ins) = disasm.at(pc) else { break };
        if ins.is_truncated_push() && diag.truncated_push_pc.is_none() {
            diag.truncated_push_pc = Some(ins.pc);
        }
        let op = ins.opcode;
        let next_pc = ins.next_pc();
        use Opcode::*;
        match op {
            Stop | Return | Revert | SelfDestruct | Invalid(_) => break,
            Push(_) => stack.push(arena.constant(ins.push_value().unwrap_or(U256::ZERO))),
            Pop => {
                if stack.pop().is_none() {
                    break;
                }
            }
            Dup(n) => {
                let n = n as usize;
                if stack.len() < n {
                    break;
                }
                stack.push(stack[stack.len() - n]);
            }
            Swap(n) => {
                let n = n as usize;
                if stack.len() < n + 1 {
                    break;
                }
                let top = stack.len() - 1;
                stack.swap(top, top - n);
            }
            JumpDest => {}
            CallDataLoad => {
                let Some(loc) = stack.pop() else { break };
                stack.push(arena.calldata_word(loc));
            }
            CallDataSize => stack.push(arena.calldata_size()),
            IsZero => {
                let Some(a) = stack.pop() else { break };
                stack.push(arena.un(UnOp::IsZero, a));
            }
            Not => {
                let Some(a) = stack.pop() else { break };
                stack.push(arena.un(UnOp::Not, a));
            }
            Add | Sub | Mul | Div | Mod | And | Or | Xor | Lt | Gt | Eq | SDiv | SMod | Exp
            | SLt | SGt => {
                let (Some(a), Some(b)) = (stack.pop(), stack.pop()) else {
                    break;
                };
                let bop = match op {
                    Add => BinOp::Add,
                    Sub => BinOp::Sub,
                    Mul => BinOp::Mul,
                    Div => BinOp::Div,
                    Mod => BinOp::Mod,
                    And => BinOp::And,
                    Or => BinOp::Or,
                    Xor => BinOp::Xor,
                    Lt => BinOp::Lt,
                    Gt => BinOp::Gt,
                    Eq => BinOp::Eq,
                    SDiv => BinOp::SDiv,
                    SMod => BinOp::SMod,
                    Exp => BinOp::Exp,
                    SLt => BinOp::SLt,
                    SGt => BinOp::SGt,
                    _ => unreachable!(),
                };
                stack.push(arena.bin(bop, a, b));
            }
            Shl | Shr | Sar => {
                let (Some(amount), Some(value)) = (stack.pop(), stack.pop()) else {
                    break;
                };
                let bop = match op {
                    Shl => BinOp::Shl,
                    Shr => BinOp::Shr,
                    _ => BinOp::Sar,
                };
                stack.push(arena.bin(bop, value, amount));
            }
            Jump => {
                let Some(t) = stack.pop() else { break };
                match arena.eval(t).and_then(|v| v.as_usize()) {
                    Some(t) if disasm.is_jumpdest(t) => {
                        pc = t;
                        continue;
                    }
                    _ => break,
                }
            }
            JumpI => {
                let (Some(target), Some(cond)) = (stack.pop(), stack.pop()) else {
                    break;
                };
                if let Some((sel, entry)) = selector_comparison(arena, cond, target, disasm) {
                    out.push(DispatchEntry {
                        selector: sel,
                        entry,
                    });
                    // Continue down the "no match" chain.
                    pc = next_pc;
                    continue;
                }
                // A selector range split (binary-search dispatch): explore
                // both halves — queue the jump target, continue inline.
                if is_selector_range_split(arena, cond) {
                    if let Some(t) = arena.eval(target).and_then(|v| v.as_usize()) {
                        if disasm.is_jumpdest(t) && forked.insert(pc) {
                            worklist.push((t, stack.clone()));
                        }
                    }
                    pc = next_pc;
                    continue;
                }
                match arena.eval(cond) {
                    Some(c) if !c.is_zero() => {
                        match arena.eval(target).and_then(|v| v.as_usize()) {
                            Some(t) if disasm.is_jumpdest(t) => {
                                pc = t;
                                continue;
                            }
                            _ => break,
                        }
                    }
                    // Symbolic or false: take the fallthrough (non-selector
                    // guards in prologues typically jump to aborts).
                    _ => {
                        pc = next_pc;
                        continue;
                    }
                }
            }
            _ => {
                // Any other instruction: pop its inputs, push opaque symbols.
                for _ in 0..op.stack_in() {
                    if stack.pop().is_none() {
                        break;
                    }
                }
                for _ in 0..op.stack_out() {
                    next_sym += 1;
                    stack.push(arena.free_sym(1_000_000 + next_sym));
                }
            }
        }
        pc = next_pc;
    }
}

/// A comparison of the selector against a constant (possibly `ISZERO`-
/// negated) — the shape of solc's binary-search dispatcher splits.
fn is_selector_range_split(arena: &ExprArena, cond: ExprId) -> bool {
    let mut base = cond;
    while let ExprKind::Unary(UnOp::IsZero, inner) = *arena.kind(base) {
        base = inner;
    }
    match *arena.kind(base) {
        ExprKind::Binary(BinOp::Lt | BinOp::Gt, a, b) => {
            (is_selector_shaped(arena, a) && arena.as_const(b).is_some())
                || (is_selector_shaped(arena, b) && arena.as_const(a).is_some())
        }
        _ => false,
    }
}

/// Recognises `EQ(selector_expr, const)` (either operand order) where the
/// selector expression is the dispatch idiom: `SHR`/`DIV` applied to
/// `CALLDATALOAD(0)`. Returns the selector and the (constant) jump target.
fn selector_comparison(
    arena: &ExprArena,
    cond: ExprId,
    target: ExprId,
    disasm: &Disassembly,
) -> Option<(Selector, usize)> {
    let ExprKind::Binary(BinOp::Eq, a, b) = *arena.kind(cond) else {
        return None;
    };
    let (sel_expr, constant) = match (arena.as_const(a), arena.as_const(b)) {
        (Some(c), None) => (b, c),
        (None, Some(c)) => (a, c),
        _ => return None,
    };
    if !is_selector_shaped(arena, sel_expr) {
        return None;
    }
    let id = constant.as_u64()?;
    let id = u32::try_from(id).ok()?;
    let t = arena.eval(target)?.as_usize()?;
    if !disasm.is_jumpdest(t) {
        return None;
    }
    Some((Selector::from_u32(id), t))
}

/// The selector idiom: `SHR(cd[0], 224)` or `DIV(cd[0], 2²²⁴)`, possibly
/// wrapped in an `AND` mask.
fn is_selector_shaped(arena: &ExprArena, e: ExprId) -> bool {
    let loads_word_zero = |e: ExprId| matches!(*arena.kind(e), ExprKind::CalldataWord(loc) if arena.as_const(loc) == Some(U256::ZERO));
    match *arena.kind(e) {
        ExprKind::Binary(BinOp::Shr, v, amount) => {
            loads_word_zero(v) && arena.as_const(amount) == Some(U256::from(224u64))
        }
        ExprKind::Binary(BinOp::Div, v, d) => {
            loads_word_zero(v) && arena.as_const(d) == Some(U256::ONE << 224u32)
        }
        ExprKind::Binary(BinOp::And, a, b) => {
            is_selector_shaped(arena, a) || is_selector_shaped(arena, b)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigrec_abi::FunctionSignature;
    use sigrec_solc::{compile, CompilerConfig, FunctionSpec, SolcVersion, Visibility};

    fn specs(decls: &[&str]) -> Vec<FunctionSpec> {
        decls
            .iter()
            .map(|d| FunctionSpec::new(FunctionSignature::parse(d).unwrap(), Visibility::External))
            .collect()
    }

    #[test]
    fn extracts_all_selectors_shr() {
        let fns = specs(&[
            "transfer(address,uint256)",
            "balanceOf(address)",
            "totalSupply()",
        ]);
        let contract = compile(&fns, &CompilerConfig::default());
        let d = Disassembly::new(&contract.code);
        let table = extract_dispatch(&d);
        assert_eq!(table.len(), 3);
        let sels: Vec<String> = table.iter().map(|e| e.selector.to_string()).collect();
        assert!(sels.contains(&"0xa9059cbb".to_string()));
        assert!(sels.contains(&"0x70a08231".to_string()));
        assert!(sels.contains(&"0x18160ddd".to_string()));
    }

    #[test]
    fn extracts_selectors_div_dispatch() {
        let fns = specs(&["f(uint256)", "g(bool)"]);
        let cfg = CompilerConfig::new(SolcVersion::V0_4_24, false);
        let contract = compile(&fns, &cfg);
        let table = extract_dispatch(&Disassembly::new(&contract.code));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn entries_point_at_jumpdests() {
        let fns = specs(&["a()", "b()", "c()", "d()"]);
        let contract = compile(&fns, &CompilerConfig::default());
        let d = Disassembly::new(&contract.code);
        for e in extract_dispatch(&d) {
            assert!(d.is_jumpdest(e.entry));
        }
    }

    #[test]
    fn binary_search_dispatch_fully_extracted() {
        // >8 functions triggers solc-style LT range splitting.
        let fns = specs(&[
            "a0(uint8)",
            "a1(bool)",
            "a2(address)",
            "a3(uint256)",
            "a4(bytes4)",
            "a5(uint16)",
            "a6(int8)",
            "a7(bytes32)",
            "a8(uint32)",
            "a9(uint64)",
            "aa(int256)",
            "ab(uint128)",
        ]);
        let contract = compile(&fns, &CompilerConfig::default());
        let table = extract_dispatch(&Disassembly::new(&contract.code));
        assert_eq!(table.len(), 12, "every half of the split must be walked");
        for f in &fns {
            assert!(
                table.iter().any(|e| e.selector == f.signature.selector),
                "{} missing",
                f.signature.canonical()
            );
        }
    }

    #[test]
    fn binary_dispatch_recovers_end_to_end() {
        use crate::pipeline::SigRec;
        let fns = specs(&[
            "b0(uint8)",
            "b1(bool,address)",
            "b2(uint256[])",
            "b3(bytes)",
            "b4(string)",
            "b5(uint16,uint16)",
            "b6(int64)",
            "b7(bytes8)",
            "b8(uint32[2])",
            "b9(address)",
        ]);
        let contract = compile(&fns, &CompilerConfig::default());
        let rec = SigRec::new().recover(&contract.code);
        assert_eq!(rec.len(), 10);
        for f in &fns {
            let hit = rec
                .iter()
                .find(|r| r.selector == f.signature.selector)
                .unwrap();
            assert!(
                f.signature.matches(&hit.signature()),
                "{} recovered as {}",
                f.signature.canonical(),
                hit.signature().canonical()
            );
        }
    }

    #[test]
    fn empty_code_yields_no_entries() {
        assert!(extract_dispatch(&Disassembly::new(&[])).is_empty());
        // Empty code is vacuous, not malformed.
        let ex = extract_dispatch_diag(&Disassembly::new(&[]));
        assert!(ex.diagnostics.is_empty());
    }

    #[test]
    fn non_dispatcher_code_yields_no_entries() {
        // Plain arithmetic program without a dispatcher.
        let code = [0x60, 0x01, 0x60, 0x02, 0x01, 0x50, 0x00];
        assert!(extract_dispatch(&Disassembly::new(&code)).is_empty());
    }

    #[test]
    fn clean_extraction_has_no_diagnostics() {
        let fns = specs(&["a(uint8)", "b(bool)"]);
        let contract = compile(&fns, &CompilerConfig::default());
        let ex = extract_dispatch_diag(&Disassembly::new(&contract.code));
        assert_eq!(ex.table.len(), 2);
        assert!(ex.diagnostics.is_empty(), "{:?}", ex.diagnostics);
    }

    /// A hand-built dispatcher: selector prologue, `sled` JUMPDESTs of
    /// padding, then one selector compare jumping over a revert to a
    /// JUMPDEST+STOP body. Returns the raw bytecode.
    fn sled_dispatcher(sled: usize) -> Vec<u8> {
        let mut code = vec![
            0x60, 0x00, 0x35, // PUSH1 0; CALLDATALOAD
            0x60, 0xe0, 0x1c, // PUSH1 224; SHR
        ];
        code.extend(vec![0x5bu8; sled]); // JUMPDEST sled
                                         // DUP1; PUSH4 selector; EQ; PUSH3 target; JUMPI; STOP; target: JUMPDEST STOP
        let target = code.len() + 1 + 5 + 1 + 4 + 1 + 1;
        code.push(0x80); // DUP1
        code.extend([0x63, 0xaa, 0xbb, 0xcc, 0xdd]); // PUSH4
        code.push(0x14); // EQ
        code.push(0x62); // PUSH3
        code.extend((target as u32).to_be_bytes()[1..].iter()); // 3 target bytes
        code.push(0x57); // JUMPI
        code.push(0x00); // STOP
        code.push(0x5b); // JUMPDEST (= target)
        code.push(0x00); // STOP
        assert_eq!(code[target], 0x5b);
        code
    }

    #[test]
    fn walk_step_cap_is_surfaced_not_silent() {
        use crate::outcome::{Diagnostic, TruncationKind};
        // Below the 100k-step cap: the entry is found, no diagnostics.
        let ex = extract_dispatch_diag(&Disassembly::new(&sled_dispatcher(1_000)));
        assert_eq!(ex.table.len(), 1);
        assert_eq!(ex.table[0].selector.to_string(), "0xaabbccdd");
        assert!(ex.diagnostics.is_empty(), "{:?}", ex.diagnostics);
        // Past the cap: the entry is silently unreachable — the
        // regression is that this *must* come with a diagnostic now.
        let ex = extract_dispatch_diag(&Disassembly::new(&sled_dispatcher(120_000)));
        assert!(ex.table.is_empty());
        assert!(
            ex.diagnostics
                .contains(&Diagnostic::DispatcherTruncated(TruncationKind::Steps)),
            "{:?}",
            ex.diagnostics
        );
    }

    #[test]
    fn code_shorter_than_a_selector_is_malformed() {
        use crate::outcome::{Diagnostic, MalformedKind};
        for code in [&[0x00u8][..], &[0x60, 0x01], &[0x35, 0x35, 0x35]] {
            let ex = extract_dispatch_diag(&Disassembly::new(code));
            assert!(ex.table.is_empty(), "{code:?}");
            assert_eq!(
                ex.diagnostics,
                vec![Diagnostic::MalformedCode(MalformedKind::CodeTooShort {
                    len: code.len()
                })],
            );
        }
    }

    #[test]
    fn truncated_trailing_push_never_fabricates_a_selector() {
        use crate::outcome::{Diagnostic, MalformedKind};
        // The dispatcher compare's own PUSH4 is cut by the end of code:
        // PUSH1 0; CALLDATALOAD; PUSH1 224; SHR; DUP1; PUSH4 aa bb <eof>.
        let code = [0x60, 0x00, 0x35, 0x60, 0xe0, 0x1c, 0x80, 0x63, 0xaa, 0xbb];
        let ex = extract_dispatch_diag(&Disassembly::new(&code));
        assert!(ex.table.is_empty(), "{:?}", ex.table);
        assert!(
            ex.diagnostics
                .contains(&Diagnostic::MalformedCode(MalformedKind::TruncatedPush {
                    pc: 7
                })),
            "{:?}",
            ex.diagnostics
        );
    }
}
