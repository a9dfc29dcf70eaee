//! Read-only memory mapping with a buffered fallback.
//!
//! The persistent store reads segments (the open-time scan and every
//! contract-record lookup) and the flat index through a [`Mapping`]: on
//! Linux/x86-64 that is a real `mmap(2)` issued as a raw syscall (the
//! workspace deliberately has no libc binding), so record payloads are
//! verified and decoded straight out of the page cache with zero copies
//! into userspace buffers. Everywhere else — or when the kernel refuses
//! the mapping — the file is read once into an owned buffer with
//! identical semantics. Callers never observe the difference:
//! [`Mapping::as_slice`] is the whole contract.
//!
//! Lifetime rule: a mapping's bytes are only borrowed *inside* the store
//! while a record is verified and decoded into owned structures (a
//! contract's `RecoveredFunction`s and diagnostics). Nothing borrowed
//! from the mapping escapes the store's API, so segment files can be
//! remapped or the cache dropped without dangling references.

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// A read-only view of one file: memory-mapped when the platform
/// supports it, an owned buffer otherwise.
pub(crate) enum Mapping {
    /// A live `mmap(2)` region, unmapped on drop.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Mapped {
        /// Page-aligned base address returned by the kernel.
        ptr: *const u8,
        /// Mapped length in bytes (the file length at map time).
        len: usize,
    },
    /// Fallback: the file contents read into an owned buffer.
    Buffered(Vec<u8>),
}

// The mapped region is read-only (PROT_READ, MAP_PRIVATE) and the raw
// pointer is never handed out mutably, so sharing across threads is
// sound.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps (or reads) `path`. The view covers the file length at call
    /// time; bytes appended to the file afterwards are not visible —
    /// callers open a fresh mapping to read them.
    pub(crate) fn open(path: &Path) -> io::Result<Mapping> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if len > 0 {
            if let Some(mapping) = map_readonly(&file, len) {
                return Ok(mapping);
            }
        }
        let mut buf = Vec::with_capacity(len);
        file.read_to_end(&mut buf)?;
        Ok(Mapping::Buffered(buf))
    }

    /// The file bytes as of [`Mapping::open`].
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, unmapped only in `Drop`.
            Mapping::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Mapping::Buffered(buf) => buf,
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Mapping::Mapped { ptr, len } = *self {
            // SAFETY: munmap(2) on the exact region mmap returned. A
            // failure here leaks the mapping, which is harmless.
            unsafe {
                let mut _ret: isize = 11; // __NR_munmap
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") _ret,
                    in("rdi") ptr as usize,
                    in("rsi") len,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
        }
    }
}

/// `mmap(NULL, len, PROT_READ, MAP_PRIVATE, fd, 0)` via a raw syscall.
/// Returns `None` when the kernel declines (the caller falls back to a
/// buffered read).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn map_readonly(file: &File, len: usize) -> Option<Mapping> {
    use std::os::unix::io::AsRawFd;
    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    let mut ret: isize = 9; // __NR_mmap
                            // SAFETY: all six arguments follow the x86-64 syscall ABI; the
                            // kernel either returns a valid mapping base or an errno in
                            // [-4095, -1].
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") ret,
            in("rdi") 0usize,
            in("rsi") len,
            in("rdx") PROT_READ,
            in("r10") MAP_PRIVATE,
            in("r8") file.as_raw_fd() as isize,
            in("r9") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if (-4095..0).contains(&ret) {
        return None;
    }
    Some(Mapping::Mapped {
        ptr: ret as *const u8,
        len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn scratch_file(contents: &[u8]) -> std::path::PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "sigrec-mmap-unit-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        File::create(&path).unwrap().write_all(contents).unwrap();
        path
    }

    #[test]
    fn mapping_exposes_exact_file_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = scratch_file(&data);
        let mapping = Mapping::open(&path).unwrap();
        assert_eq!(mapping.as_slice(), &data[..]);
        drop(mapping);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = scratch_file(&[]);
        let mapping = Mapping::open(&path).unwrap();
        assert!(mapping.as_slice().is_empty());
        // Zero-length files always take the buffered path (mmap of 0
        // bytes is EINVAL).
        assert!(matches!(mapping, Mapping::Buffered(_)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let data = vec![0xabu8; 4096];
        let path = scratch_file(&data);
        let mapping = std::sync::Arc::new(Mapping::open(&path).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&mapping);
                s.spawn(move || assert_eq!(m.as_slice().len(), 4096));
            }
        });
        std::fs::remove_file(&path).unwrap();
    }
}
