//! Static detection of whole-contract delegatecall forwarders.
//!
//! The in-the-wild deployment mix the paper evaluates over is dominated
//! by contracts that carry *no* dispatcher of their own: EIP-1167
//! minimal proxies, hand-rolled `calldatacopy`/`delegatecall`
//! forwarders, and upgradeable proxies that read their implementation
//! address from storage. Their real signatures live in the target's
//! code. For these the pipeline must never return a silent empty result
//! — it reports
//! [`Diagnostic::UnresolvedIndirection`](crate::Diagnostic::UnresolvedIndirection)
//! with as much of the target as the bytes reveal, which
//! [`SigRec::recover_linked`](crate::SigRec::recover_linked) can then
//! resolve when the implementation code is supplied.
//!
//! Detection here is purely static and a function of the code bytes
//! alone, so its verdict is safe to seal into the contract-level
//! [`RecoveryCache`](crate::RecoveryCache) entry. It is only consulted
//! when dispatcher extraction produced an *empty, untruncated* table:
//! a contract with its own dispatcher handles per-entry delegation
//! through the TASE delegate fact instead, and a truncated or malformed
//! walk already carries its own diagnostic (a proxy whose `PUSH20`
//! target is cut off by the end of the code must surface
//! `MalformedCode`, not a zero-filled fabricated address).

use crate::outcome::DelegateTarget;
use sigrec_evm::{Disassembly, Opcode};

/// Step cap for the fall-through scan. Forwarder bodies are tiny (the
/// canonical minimal proxy is 23 instructions); the cap only exists so
/// pathological dispatcher-free contracts cannot turn planning into a
/// full-code sweep.
const SCAN_STEPS: usize = 512;

/// Statically detects a whole-contract delegatecall forwarder.
///
/// Returns `Some(target)` when the code's fall-through entry path
/// executes a `DELEGATECALL` before any dynamic jump or terminator. The
/// target is the most recent `PUSH20` immediate still trusted at the
/// call site (an `SLOAD` after it means the address on the stack came
/// from storage, not the immediate — the target is then
/// [`DelegateTarget::Unknown`]). The EIP-1167 minimal proxy needs no
/// pattern of its own: its runtime is `PUSH20 addr; GAS; DELEGATECALL`
/// after a straight-line prologue, so the scan returns its embedded
/// address.
///
/// The scan is a linear decode, not an execution: it follows the
/// fall-through arm of `JUMPI` (forwarder prologues jump forward only
/// on failure/returndata paths) and gives up at the first `JUMP`,
/// terminator, or truncated `PUSH`. Callers gate it on an empty
/// dispatch table, so a real dispatcher's body is never scanned.
pub fn detect_forwarder(disasm: &Disassembly) -> Option<DelegateTarget> {
    let mut last_push20: Option<[u8; 20]> = None;
    for ins in disasm.instructions().iter().take(SCAN_STEPS) {
        if ins.is_truncated_push() {
            // The dispatcher walk already reported `MalformedCode` for
            // this; fabricating a zero-filled target would be worse
            // than none.
            return None;
        }
        match ins.opcode {
            Opcode::Push(20) => {
                let word = ins.push_value().unwrap_or_default().to_be_bytes();
                let mut addr = [0u8; 20];
                addr.copy_from_slice(&word[12..]);
                last_push20 = Some(addr);
            }
            Opcode::SLoad => last_push20 = None,
            Opcode::DelegateCall => {
                return Some(match last_push20 {
                    Some(addr) => DelegateTarget::Address(addr),
                    None => DelegateTarget::Unknown,
                });
            }
            Opcode::Jump
            | Opcode::Stop
            | Opcode::Return
            | Opcode::Revert
            | Opcode::SelfDestruct
            | Opcode::Invalid(_) => return None,
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::any;

    /// The EIP-1167 minimal-proxy runtime: 10 bytes of calldata-forwarding
    /// prologue, a 20-byte implementation address, and a 15-byte
    /// returndata-forwarding epilogue — 45 bytes total.
    const EIP1167_PREFIX: [u8; 10] = [0x36, 0x3d, 0x3d, 0x37, 0x3d, 0x3d, 0x3d, 0x36, 0x3d, 0x73];
    const EIP1167_SUFFIX: [u8; 15] = [
        0x5a, 0xf4, 0x3d, 0x82, 0x80, 0x3e, 0x90, 0x3d, 0x91, 0x60, 0x2b, 0x57, 0xfd, 0x5b, 0xf3,
    ];

    fn eip1167(addr: [u8; 20]) -> Vec<u8> {
        let mut code = Vec::with_capacity(45);
        code.extend_from_slice(&EIP1167_PREFIX);
        code.extend_from_slice(&addr);
        code.extend_from_slice(&EIP1167_SUFFIX);
        code
    }

    #[test]
    fn minimal_proxy_resolves_to_embedded_address() {
        let addr = [0x11u8; 20];
        let code = eip1167(addr);
        let d = Disassembly::new(&code);
        assert_eq!(detect_forwarder(&d), Some(DelegateTarget::Address(addr)));
    }

    proptest::proptest! {
        #[test]
        fn minimal_proxy_resolves_to_any_embedded_address(
            bytes in proptest::collection::vec((any::<u8>(), 0usize..24), 20..21),
        ) {
            // Half the address bytes are opcodes that would end or divert
            // the scan if it decoded them as instructions: STOP, JUMP,
            // JUMPI, JUMPDEST, RETURN, REVERT, INVALID, SLOAD,
            // DELEGATECALL, SELFDESTRUCT and PUSH1..PUSH32.
            const STOPPERS: [u8; 10] = [0x00, 0x56, 0x57, 0x5b, 0xf3, 0xfd, 0xfe, 0x54, 0xf4, 0xff];
            let mut addr = [0u8; 20];
            for (slot, &(byte, pick)) in addr.iter_mut().zip(&bytes) {
                *slot = match pick {
                    0..=9 => STOPPERS[pick],
                    10..=11 => 0x60 + byte % 32,
                    _ => byte,
                };
            }
            let d = Disassembly::new(&eip1167(addr));
            proptest::prop_assert_eq!(detect_forwarder(&d), Some(DelegateTarget::Address(addr)));
        }
    }

    #[test]
    fn truncated_proxy_yields_no_target() {
        let addr = [0x22u8; 20];
        let mut code = eip1167(addr);
        // Cut inside the PUSH20 immediate: the zero-filled address must
        // not be fabricated.
        code.truncate(15);
        let d = Disassembly::new(&code);
        assert_eq!(detect_forwarder(&d), None);
    }

    #[test]
    fn storage_proxy_is_unknown_target() {
        // PUSH1 slot; SLOAD; <forward calldata>; DELEGATECALL
        let code = [
            0x60, 0x00, // PUSH1 0
            0x54, // SLOAD
            0x36, 0x3d, 0x3d, 0x37, // CALLDATASIZE RDS RDS CALLDATACOPY
            0x3d, 0x3d, 0x3d, 0x36, // RDS RDS RDS CALLDATASIZE
            0x5a, 0xf4, // GAS DELEGATECALL (address from SLOAD)
            0x00, // STOP
        ];
        let d = Disassembly::new(&code);
        assert_eq!(detect_forwarder(&d), Some(DelegateTarget::Unknown));
    }

    #[test]
    fn sload_after_push20_invalidates_the_immediate() {
        let mut code = vec![0x73];
        code.extend_from_slice(&[0x33u8; 20]);
        code.extend_from_slice(&[0x54, 0x5a, 0xf4, 0x00]); // SLOAD GAS DELEGATECALL STOP
        let d = Disassembly::new(&code);
        assert_eq!(detect_forwarder(&d), Some(DelegateTarget::Unknown));
    }

    #[test]
    fn plain_contracts_are_not_forwarders() {
        for code in [
            &[][..],
            &[0x00],
            &[0x60, 0x00, 0x60, 0x00, 0xf3], // PUSH PUSH RETURN
            &[0x5b, 0x56],                   // JUMPDEST JUMP
        ] {
            let d = Disassembly::new(code);
            assert_eq!(detect_forwarder(&d), None, "{code:02x?}");
        }
    }
}
