//! The cap every per-thread scratch pool shares.
//!
//! Recovery runs the same few steps for every contract a thread sees, so
//! the buffers that do not escape into a result (the disassembly's
//! tables here, and in `sigrec-core` the expression arena, the
//! exploration scratch, the fact buffers and the inference indexes) are
//! cleared and kept for the thread's next contract instead of freed.
//! Clearing a buffer costs O(capacity), and a kept buffer stays allocated
//! for the thread's life, so one giant (possibly hostile) input must not
//! leave a giant buffer behind: a buffer grown past
//! [`MAX_POOLED_NODES`] elements is freed instead of kept.

/// Most elements a pooled buffer may hold capacity for and still be kept.
pub const MAX_POOLED_NODES: usize = 1 << 14;

/// Empties a buffer for reuse, or frees it when it grew past
/// [`MAX_POOLED_NODES`].
pub fn recycle<T>(v: &mut Vec<T>) {
    if v.capacity() > MAX_POOLED_NODES {
        *v = Vec::new();
    } else {
        v.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycle_keeps_small_and_frees_oversized() {
        let mut small: Vec<u8> = Vec::with_capacity(64);
        small.push(1);
        recycle(&mut small);
        assert!(small.is_empty());
        assert!(small.capacity() >= 64);
        let mut big: Vec<u8> = Vec::with_capacity(MAX_POOLED_NODES + 1);
        big.push(1);
        recycle(&mut big);
        assert_eq!(big.capacity(), 0);
    }
}
