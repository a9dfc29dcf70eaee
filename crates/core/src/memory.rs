//! The symbolic memory model.
//!
//! Step 3 of TASE (§4.2) marks memory regions written from the call data so
//! that later `MLOAD`s propagate parameter identity. We implement the
//! stronger form: a `CALLDATACOPY` records a *region mapping*, and an
//! `MLOAD` inside a copied region synthesises the `CalldataWord` expression
//! of the corresponding source bytes — so masks applied to copied array
//! elements attribute to exact calldata positions with no separate taint
//! machinery.

use crate::expr::{BinOp, ExprArena, ExprId};
use sigrec_evm::U256;

/// Cap on how far past its start an unbounded (symbolic-length) copy region
/// is considered to extend when matching reads.
const UNBOUNDED_REGION_SPAN: u64 = 4096;

#[derive(Clone, Debug)]
enum Write {
    /// `MSTORE` of a full word at a concrete address.
    Word { addr: u64, value: ExprId },
    /// `CALLDATACOPY` to a concrete destination.
    Copy {
        dst: u64,
        src: ExprId,
        len: Option<u64>,
    },
}

/// Symbolic memory: a journal of writes, scanned newest-first on read.
/// A path fork clones it.
#[derive(Clone, Debug, Default)]
pub struct SymMemory {
    writes: Vec<Write>,
}

impl SymMemory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total writes recorded on this path.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Records `MSTORE(addr, value)`. Non-concrete addresses are dropped
    /// (their values cannot be recovered by concrete-address reads anyway).
    pub fn store_word(&mut self, addr: Option<u64>, value: ExprId) {
        if let Some(addr) = addr {
            self.writes.push(Write::Word { addr, value });
        }
    }

    /// Records `CALLDATACOPY(dst, src, len)`. A source that does not depend
    /// on the call data and evaluates to a constant is folded, so reads from
    /// the region synthesise constant-location `CalldataWord`s (static
    /// arrays match by position range).
    pub fn record_copy(
        &mut self,
        arena: &mut ExprArena,
        dst: Option<u64>,
        src: ExprId,
        len: Option<U256>,
    ) {
        if let Some(dst) = dst {
            let len = len.and_then(|l| l.as_u64());
            let src = match (arena.depends_on_calldata(src), arena.eval(src)) {
                (false, Some(c)) => arena.constant(c),
                _ => src,
            };
            self.writes.push(Write::Copy { dst, src, len });
        }
    }

    /// Resolves `MLOAD(addr)`.
    ///
    /// - an exact word previously `MSTORE`d → that stored expression;
    /// - inside a copied region → the synthesised
    ///   `CalldataWord(src + (addr - dst))`;
    /// - otherwise `None` (the caller introduces a free symbol).
    ///
    /// Windows and regions are compared by distance, never by `start +
    /// length`, so addresses near `u64::MAX` neither overflow nor wrap.
    pub fn load_word(&self, arena: &mut ExprArena, addr: u64) -> Option<ExprId> {
        for w in self.writes.iter().rev() {
            match w {
                Write::Word { addr: a, value } if *a == addr => return Some(*value),
                Write::Word { addr: a, .. } => {
                    // Overlapping unaligned store: give up on this address
                    // if it intersects the 32-byte window.
                    if a.abs_diff(addr) < 32 {
                        return None;
                    }
                }
                Write::Copy { dst, src, len } => {
                    // A read *starting* inside the region matches even if it
                    // runs past the end — the EVM zero-fills, and compilers
                    // routinely over-read short payloads.
                    let span = len.unwrap_or(UNBOUNDED_REGION_SPAN);
                    let delta = addr.checked_sub(*dst).filter(|&d| d < span);
                    if let Some(delta) = delta {
                        let loc = if delta == 0 {
                            *src
                        } else {
                            let d = arena.c64(delta);
                            arena.bin(BinOp::Add, *src, d)
                        };
                        return Some(arena.calldata_word(loc));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprKind;

    /// The constant a read returns, if any.
    fn read(m: &SymMemory, a: &mut ExprArena, addr: u64) -> Option<U256> {
        m.load_word(a, addr).and_then(|v| a.as_const(v))
    }

    /// The constant location of the calldata word a read synthesises.
    fn read_loc(m: &SymMemory, a: &mut ExprArena, addr: u64) -> Option<U256> {
        let e = m.load_word(a, addr)?;
        match *a.kind(e) {
            ExprKind::CalldataWord(loc) => a.eval(loc),
            _ => panic!("expected CalldataWord, got {}", a.show(e)),
        }
    }

    #[test]
    fn word_store_load_round_trip() {
        let mut a = ExprArena::new();
        let mut m = SymMemory::new();
        let v = a.c64(99);
        m.store_word(Some(0x80), v);
        assert_eq!(m.load_word(&mut a, 0x80), Some(v));
        assert_eq!(m.load_word(&mut a, 0xa0), None);
    }

    #[test]
    fn latest_write_wins() {
        let mut a = ExprArena::new();
        let mut m = SymMemory::new();
        m.store_word(Some(0x80), a.c64(1));
        m.store_word(Some(0x80), a.c64(2));
        assert_eq!(read(&m, &mut a, 0x80), Some(U256::from(2u64)));
    }

    #[test]
    fn copy_region_synthesises_calldata_word() {
        let mut a = ExprArena::new();
        let mut m = SymMemory::new();
        // CALLDATACOPY(dst=0x80, src=36, len=96)
        let src = a.c64(36);
        m.record_copy(&mut a, Some(0x80), src, Some(U256::from(96u64)));
        // Element 1 (delta 32) → cd[36 + 32] = cd[0x44] (adds fold).
        assert_eq!(read_loc(&m, &mut a, 0xa0), Some(U256::from(68u64)));
        // Past the region: unmapped.
        assert_eq!(m.load_word(&mut a, 0x80 + 96), None);
    }

    #[test]
    fn symbolic_source_copy_preserves_structure() {
        let mut a = ExprArena::new();
        let mut m = SymMemory::new();
        let c4 = a.c64(4);
        let offset = a.calldata_word(c4);
        let c36 = a.c64(36);
        let src = a.bin(BinOp::Add, offset, c36);
        m.record_copy(&mut a, Some(0x100), src, None);
        let e = m.load_word(&mut a, 0x120).unwrap();
        assert!(a.depends_on_calldata(e));
        match *a.kind(e) {
            ExprKind::CalldataWord(loc) => assert!(a.contains(loc, offset)),
            _ => panic!("expected CalldataWord, got {}", a.show(e)),
        }
    }

    #[test]
    fn unbounded_region_capped() {
        let mut a = ExprArena::new();
        let mut m = SymMemory::new();
        let src = a.c64(36);
        m.record_copy(&mut a, Some(0x80), src, None);
        assert!(m.load_word(&mut a, 0x80 + UNBOUNDED_REGION_SPAN).is_none());
        assert!(m
            .load_word(&mut a, 0x80 + UNBOUNDED_REGION_SPAN - 32)
            .is_some());
    }

    #[test]
    fn clone_keeps_history_but_diverges() {
        let mut a = ExprArena::new();
        let mut m = SymMemory::new();
        m.store_word(Some(0x80), a.c64(1));
        let mut child = m.clone();
        m.store_word(Some(0xa0), a.c64(2));
        child.store_word(Some(0xa0), a.c64(3));
        // The history before the clone is visible on both sides…
        assert_eq!(read(&m, &mut a, 0x80), Some(U256::from(1u64)));
        assert_eq!(read(&child, &mut a, 0x80), Some(U256::from(1u64)));
        // …while later writes stay private.
        assert_eq!(read(&m, &mut a, 0xa0), Some(U256::from(2u64)));
        assert_eq!(read(&child, &mut a, 0xa0), Some(U256::from(3u64)));
        assert_eq!((m.write_count(), child.write_count()), (2, 2));
    }

    #[test]
    fn word_windows_compare_without_overflow_at_the_top() {
        let top = u64::MAX;
        let mut a = ExprArena::new();
        let mut m = SymMemory::new();
        m.store_word(Some(top - 31), a.c64(1));
        assert_eq!(read(&m, &mut a, top - 31), Some(U256::from(1u64)));
        // A newer store at the last address overlaps the older word's
        // final byte, so the older value is hidden.
        m.store_word(Some(top), a.c64(2));
        assert_eq!(m.load_word(&mut a, top - 31), None);
        assert_eq!(read(&m, &mut a, top), Some(U256::from(2u64)));
        // A window 32 bytes below the top store does not touch it.
        m.store_word(Some(top - 32), a.c64(3));
        m.store_word(Some(top), a.c64(4));
        assert_eq!(read(&m, &mut a, top - 32), Some(U256::from(3u64)));
    }

    #[test]
    fn copy_regions_compare_without_overflow_at_the_top() {
        let mut a = ExprArena::new();
        let c4 = a.c64(4);
        // A copy of length u64::MAX covers every read above its start.
        let mut m = SymMemory::new();
        m.record_copy(&mut a, Some(0x80), c4, Some(U256::from(u64::MAX)));
        assert_eq!(read_loc(&m, &mut a, 0xa0), Some(U256::from(0x24u64)));
        assert!(m.load_word(&mut a, u64::MAX).is_some());
        assert_eq!(m.load_word(&mut a, 0x7f), None);
        // Bounded and unbounded regions starting near the top.
        let mut m = SymMemory::new();
        m.record_copy(&mut a, Some(u64::MAX - 10), c4, Some(U256::from(64u64)));
        assert!(m.load_word(&mut a, u64::MAX).is_some());
        assert_eq!(m.load_word(&mut a, u64::MAX - 11), None);
        let mut m = SymMemory::new();
        m.record_copy(&mut a, Some(u64::MAX - 100), c4, None);
        assert!(m.load_word(&mut a, u64::MAX).is_some());
        assert_eq!(m.load_word(&mut a, u64::MAX - 101), None);
    }

    #[test]
    fn overlapping_unaligned_store_blocks_read() {
        let mut a = ExprArena::new();
        let mut m = SymMemory::new();
        let src = a.c64(36);
        m.record_copy(&mut a, Some(0x80), src, Some(U256::from(64u64)));
        m.store_word(Some(0x90), a.c64(7)); // unaligned overlap
        assert_eq!(m.load_word(&mut a, 0x80), None);
    }
}
