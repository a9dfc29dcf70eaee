//! The symbolic memory model.
//!
//! Step 3 of TASE (§4.2) marks memory regions written from the call data so
//! that later `MLOAD`s propagate parameter identity. We implement the
//! stronger form: a `CALLDATACOPY` records a *region mapping*, and an
//! `MLOAD` inside a copied region synthesises the `CalldataWord` expression
//! of the corresponding source bytes — so masks applied to copied array
//! elements attribute to exact calldata positions with no separate taint
//! machinery.

use crate::cow::CowJournal;
use crate::expr::{bin, BinOp, Expr};
use sigrec_evm::U256;
use std::rc::Rc;

/// Cap on how far past its start an unbounded (symbolic-length) copy region
/// is considered to extend when matching reads.
const UNBOUNDED_REGION_SPAN: u64 = 4096;

#[derive(Clone, Debug)]
enum Write {
    /// `MSTORE` of a full word at a concrete address.
    Word { addr: u64, value: Rc<Expr> },
    /// `CALLDATACOPY` to a concrete destination.
    Copy {
        dst: u64,
        src: Rc<Expr>,
        len: Option<u64>,
    },
}

/// Symbolic memory: a journal of writes, scanned newest-first on read.
///
/// The journal is copy-on-write: a path fork shares the frozen write
/// history and copies nothing but segment handles, so fork cost does not
/// grow with how much the path has written.
#[derive(Debug, Default)]
pub struct SymMemory {
    writes: CowJournal<Write>,
}

impl SymMemory {
    /// Creates empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits off an independent copy in O(tail), sharing the frozen
    /// write history with `self`.
    pub fn fork(&mut self) -> Self {
        SymMemory {
            writes: self.writes.fork(),
        }
    }

    /// The reference fork: a flat deep copy of the journal (the pre-CoW
    /// clone), O(total writes).
    pub fn deep_clone(&self) -> Self {
        SymMemory {
            writes: self.writes.deep_clone(),
        }
    }

    /// Units a [`SymMemory::fork`] call would copy right now.
    pub fn fork_cost(&self) -> usize {
        self.writes.fork_cost()
    }

    /// Total writes recorded on this path.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Records `MSTORE(addr, value)`. Non-concrete addresses are dropped
    /// (their values cannot be recovered by concrete-address reads anyway).
    pub fn store_word(&mut self, addr: Option<u64>, value: Rc<Expr>) {
        if let Some(addr) = addr {
            self.writes.push(Write::Word { addr, value });
        }
    }

    /// Records `CALLDATACOPY(dst, src, len)`. A source that does not depend
    /// on the call data and evaluates to a constant is folded, so reads from
    /// the region synthesise constant-location `CalldataWord`s (static
    /// arrays match by position range).
    pub fn record_copy(&mut self, dst: Option<u64>, src: Rc<Expr>, len: Option<U256>) {
        if let Some(dst) = dst {
            let len = len.and_then(|l| l.as_u64());
            let src = match (src.depends_on_calldata(), src.eval()) {
                (false, Some(c)) => Expr::constant(c),
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
    pub fn load_word(&self, addr: u64) -> Option<Rc<Expr>> {
        for w in self.writes.iter_rev() {
            match w {
                Write::Word { addr: a, value } if *a == addr => return Some(Rc::clone(value)),
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
                            Rc::clone(src)
                        } else {
                            bin(BinOp::Add, Rc::clone(src), Expr::c64(delta))
                        };
                        return Some(Expr::calldata_word(loc));
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

    #[test]
    fn word_store_load_round_trip() {
        let mut m = SymMemory::new();
        let v = Expr::c64(99);
        m.store_word(Some(0x80), Rc::clone(&v));
        assert_eq!(m.load_word(0x80), Some(v));
        assert_eq!(m.load_word(0xa0), None);
    }

    #[test]
    fn latest_write_wins() {
        let mut m = SymMemory::new();
        m.store_word(Some(0x80), Expr::c64(1));
        m.store_word(Some(0x80), Expr::c64(2));
        assert_eq!(
            m.load_word(0x80).unwrap().as_const(),
            Some(U256::from(2u64))
        );
    }

    #[test]
    fn copy_region_synthesises_calldata_word() {
        let mut m = SymMemory::new();
        // CALLDATACOPY(dst=0x80, src=36, len=96)
        m.record_copy(Some(0x80), Expr::c64(36), Some(U256::from(96u64)));
        // Element 1 (delta 32) → cd[36 + 32] = cd[0x44] (adds fold).
        let e = m.load_word(0xa0).unwrap();
        match e.kind() {
            ExprKind::CalldataWord(loc) => assert_eq!(loc.eval(), Some(U256::from(68u64))),
            _ => panic!("expected CalldataWord, got {e}"),
        }
        // Past the region: unmapped.
        assert_eq!(m.load_word(0x80 + 96), None);
    }

    #[test]
    fn symbolic_source_copy_preserves_structure() {
        let mut m = SymMemory::new();
        let src = bin(BinOp::Add, Expr::calldata_word(Expr::c64(4)), Expr::c64(36));
        m.record_copy(Some(0x100), Rc::clone(&src), None);
        let e = m.load_word(0x120).unwrap();
        assert!(e.depends_on_calldata());
        match e.kind() {
            ExprKind::CalldataWord(loc) => {
                assert!(loc.contains(&Expr::calldata_word(Expr::c64(4))))
            }
            _ => panic!("expected CalldataWord, got {e}"),
        }
    }

    #[test]
    fn unbounded_region_capped() {
        let mut m = SymMemory::new();
        m.record_copy(Some(0x80), Expr::c64(36), None);
        assert!(m.load_word(0x80 + UNBOUNDED_REGION_SPAN).is_none());
        assert!(m.load_word(0x80 + UNBOUNDED_REGION_SPAN - 32).is_some());
    }

    #[test]
    fn fork_shares_history_but_diverges() {
        let mut m = SymMemory::new();
        m.store_word(Some(0x80), Expr::c64(1));
        let mut child = m.fork();
        m.store_word(Some(0xa0), Expr::c64(2));
        child.store_word(Some(0xa0), Expr::c64(3));
        // The shared prefix is visible on both sides…
        assert_eq!(
            m.load_word(0x80).unwrap().as_const(),
            Some(U256::from(1u64))
        );
        assert_eq!(
            child.load_word(0x80).unwrap().as_const(),
            Some(U256::from(1u64))
        );
        // …while post-fork writes stay private.
        assert_eq!(
            m.load_word(0xa0).unwrap().as_const(),
            Some(U256::from(2u64))
        );
        assert_eq!(
            child.load_word(0xa0).unwrap().as_const(),
            Some(U256::from(3u64))
        );
        // A deep clone reads identically to the CoW original.
        assert_eq!(
            m.deep_clone().load_word(0xa0).unwrap().as_const(),
            Some(U256::from(2u64))
        );
    }

    #[test]
    fn word_windows_compare_without_overflow_at_the_top() {
        let top = u64::MAX;
        let mut m = SymMemory::new();
        m.store_word(Some(top - 31), Expr::c64(1));
        assert_eq!(
            m.load_word(top - 31).unwrap().as_const(),
            Some(U256::from(1u64))
        );
        // A newer store at the last address overlaps the older word's
        // final byte, so the older value is hidden.
        m.store_word(Some(top), Expr::c64(2));
        assert_eq!(m.load_word(top - 31), None);
        assert_eq!(m.load_word(top).unwrap().as_const(), Some(U256::from(2u64)));
        // A window 32 bytes below the top store does not touch it.
        m.store_word(Some(top - 32), Expr::c64(3));
        m.store_word(Some(top), Expr::c64(4));
        assert_eq!(
            m.load_word(top - 32).unwrap().as_const(),
            Some(U256::from(3u64))
        );
    }

    #[test]
    fn copy_regions_compare_without_overflow_at_the_top() {
        // A copy of length u64::MAX covers every read above its start.
        let mut m = SymMemory::new();
        m.record_copy(Some(0x80), Expr::c64(4), Some(U256::from(u64::MAX)));
        let e = m.load_word(0xa0).unwrap();
        match e.kind() {
            ExprKind::CalldataWord(loc) => assert_eq!(loc.eval(), Some(U256::from(0x24u64))),
            _ => panic!("expected CalldataWord, got {e}"),
        }
        assert!(m.load_word(u64::MAX).is_some());
        assert_eq!(m.load_word(0x7f), None);
        // Bounded and unbounded regions starting near the top.
        let mut m = SymMemory::new();
        m.record_copy(Some(u64::MAX - 10), Expr::c64(4), Some(U256::from(64u64)));
        assert!(m.load_word(u64::MAX).is_some());
        assert_eq!(m.load_word(u64::MAX - 11), None);
        let mut m = SymMemory::new();
        m.record_copy(Some(u64::MAX - 100), Expr::c64(4), None);
        assert!(m.load_word(u64::MAX).is_some());
        assert_eq!(m.load_word(u64::MAX - 101), None);
    }

    #[test]
    fn overlapping_unaligned_store_blocks_read() {
        let mut m = SymMemory::new();
        m.record_copy(Some(0x80), Expr::c64(36), Some(U256::from(64u64)));
        m.store_word(Some(0x90), Expr::c64(7)); // unaligned overlap
        assert_eq!(m.load_word(0x80), None);
    }
}
