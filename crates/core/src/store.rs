//! On-disk persistence tier beneath [`RecoveryCache`].
//!
//! The paper's evaluation sweeps 37 M deployed contracts; at that scale a
//! recovery corpus only stays affordable if results survive the process.
//! This module gives the content-addressed contract cache a durable
//! backing store so a restarted service re-pays disk reads, not TASE:
//!
//! - **append-only segments** (`seg-NNNNN.sigseg`): each sealed contract
//!   recovery is one self-framing record `key[32] | payload_len:u32 |
//!   checksum:u64 | payload`, appended under a short lock and never
//!   rewritten. The checksum (FNV-1a over key, length, and payload)
//!   makes every record independently verifiable.
//! - **a rebuildable flat index** (`index.flat`): an `O(1)`-lookup map
//!   from contract key to `(segment, offset, length)`, written on
//!   [`PersistentStore::flush`]. The index is a pure acceleration
//!   structure — it records the segment lengths it covers, and a
//!   mismatch at open time (new appends, a crash, a missing file) simply
//!   triggers a full segment scan that rebuilds it. Correctness never
//!   depends on the index having been written.
//! - **crash-safe open**: a process killed mid-append leaves a torn
//!   final record (short header or short payload). Opening detects it,
//!   truncates the segment back to its last record boundary, and reports
//!   a structured [`StoreDiagnostic::TornTail`] instead of aborting or
//!   deserialising garbage. A checksum-corrupt record (bit rot, torn
//!   sector that preserved the length field) is skipped and reported as
//!   [`StoreDiagnostic::CorruptRecord`]; the records around it stay
//!   readable because framing is per-record.
//!
//! **Seal semantics.** The store enforces the same no-seal rules the
//! in-memory cache relies on, as defense in depth at the persistence
//! boundary: a recovery carrying a [`BudgetKind::Deadline`] budget
//! (nondeterministic cut) or an [`Diagnostic::InternalError`]
//! (panic-poisoned) is *rejected* by [`PersistentStore::append`] and
//! counted in [`StoreStats::rejected_unsealed`], even if a buggy caller
//! tries to write it. Linked-recovery purity is structural: persistence
//! hangs off [`RecoveryCache::store_contract`], which only ever sees
//! direct per-contract results — spliced
//! [`SigRec::recover_linked`](crate::SigRec::recover_linked) outputs
//! never reach a segment under the proxy's key.
//!
//! **The compile tier.** Compiled [`Program`](sigrec_evm::Program)s are
//! persisted alongside contract records: sealing a recovery also appends
//! a program record (same framing, same segments) whose payload starts
//! with [`PROGRAM_PAYLOAD_TAG`] and a `PROGRAM_FORMAT_VERSION` stamp. A
//! program record is read only when a program is asked for — by
//! `explain`, or by a contract whose own record missed; a contract hit
//! never touches it, so a restart that serves stored contracts reads one
//! record per contract. [`PersistentStore::lookup_program`] checks the
//! checksum, tag and version and decodes in the same pass: a
//! version-matching record rebuilds the program in O(steps) via
//! `Program::from_parts` and skips compilation entirely; a stale version
//! or any decode failure is a structured miss ([`ProgramLookup::Stale`]
//! / [`ProgramLookup::Miss`]) — the caller recompiles and rewrites, and
//! a mismatched payload can never misdecode into a wrong program.
//! Contract and program payloads share segments but live in separate
//! indexes, discriminated by the payload's first byte (contract
//! payloads start with `PAYLOAD_VERSION`, program payloads with the
//! tag). Sealed segments and the flat index are read through a memory
//! mapping ([`mmap`](crate::mmap)): records are checksum-verified and
//! decoded straight from the mapped bytes, and only owned structures
//! leave the store, so the mapping's lifetime never escapes.
//!
//! **Poisoning.** A panic while the store's lock is held poisons it. The
//! store then degrades instead of panicking: lookups miss, appends and
//! [`PersistentStore::flush`] return an error (no index is written, so
//! the next open rescans), and every refused call is counted in
//! [`StoreStats::poisoned_refusals`]. The cache above keeps serving from
//! memory.
//!
//! [`RecoveryCache`]: crate::RecoveryCache
//! [`RecoveryCache::store_contract`]: crate::RecoveryCache::store_contract
//! [`BudgetKind::Deadline`]: crate::BudgetKind::Deadline
//! [`Diagnostic::InternalError`]: crate::Diagnostic::InternalError

use crate::infer::Language;
use crate::mmap::Mapping;
use crate::outcome::{BudgetKind, DelegateTarget, Diagnostic, MalformedKind, TruncationKind};
use crate::pipeline::RecoveredFunction;
use crate::rules::RuleId;
use sigrec_abi::{AbiType, Selector};
use sigrec_evm::Program;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Magic + version stamp opening every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"SIGRECS1";
/// Magic + version stamp opening the index file ("I2" added the program
/// entry section; an "I1" index fails the magic check and is rebuilt).
const INDEX_MAGIC: &[u8; 8] = b"SIGRECI2";
/// Fixed bytes before a record's payload: key, payload length, checksum.
const RECORD_HEADER: usize = 32 + 4 + 8;
/// Leading byte of every contract payload; bumped on any codec change so
/// stale records decode to a clean miss instead of garbage.
const PAYLOAD_VERSION: u8 = 1;
/// Leading byte of every program payload — distinct from any
/// `PAYLOAD_VERSION` a contract record will ever carry, so the two
/// record kinds sharing a segment are discriminated by their first byte.
pub const PROGRAM_PAYLOAD_TAG: u8 = 0x50;
/// Version stamp following [`PROGRAM_PAYLOAD_TAG`]; bumped on any change
/// to the program codec *or* to `Program`'s compiled layout. A mismatch
/// is a [`ProgramLookup::Stale`] — recompile, never misdecode.
pub const PROGRAM_FORMAT_VERSION: u16 = 1;
/// Decoder recursion bound for nested [`AbiType`]s — a corrupt payload
/// must produce a miss, not a stack overflow.
const MAX_TYPE_DEPTH: usize = 64;
/// Hard cap on a single record's payload. Nothing legitimate comes
/// close (a contract is a few KB of signatures); the cap stops a corrupt
/// length field from driving a multi-GB allocation at open or read time.
const MAX_PAYLOAD: u32 = 16 << 20;

/// Options for [`PersistentStore::open_with`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Records between automatic `fsync`s of the active segment. `0`
    /// syncs on every append. Durability is only *guaranteed* after
    /// [`PersistentStore::flush`]; anything unsynced at a crash is
    /// recovered as a torn tail.
    pub fsync_every: u64,
    /// Segment size at which appends roll over to a fresh segment file.
    pub max_segment_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            fsync_every: 64,
            max_segment_bytes: 64 << 20,
        }
    }
}

/// Counters for the disk tier, mirroring [`CacheStats`] one level down.
///
/// [`CacheStats`]: crate::CacheStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served from a segment record.
    pub disk_hits: u64,
    /// Lookups that found no record (the caller recovers cold).
    pub disk_misses: u64,
    /// Records appended (post-gate; rejections are not counted here).
    pub records_appended: u64,
    /// Bytes appended to segments.
    pub bytes_appended: u64,
    /// Bytes read back out of segments.
    pub bytes_read: u64,
    /// `fsync` calls issued (segment and index).
    pub fsyncs: u64,
    /// Appends rejected by the seal gate (deadline-truncated or
    /// panic-poisoned recoveries must never reach disk).
    pub rejected_unsealed: u64,
    /// Torn final records detected and truncated away at open.
    pub torn_tails: u64,
    /// Checksum-corrupt or undecodable records skipped (at open or read).
    pub corrupt_records: u64,
    /// Opens that rebuilt the index by scanning segments (stale or
    /// missing `index.flat`).
    pub index_rebuilds: u64,
    /// Appends dropped by an I/O error (the write-behind tier absorbs
    /// them; the in-memory result is unaffected).
    pub io_errors: u64,
    /// Program records read, verified and decoded by
    /// [`PersistentStore::lookup_program`], each one a compile skipped.
    /// A contract hit never reads its program record, so a restart that
    /// only serves stored contracts leaves this at 0: only `explain` and
    /// contracts whose own record missed ask the store for a program.
    pub program_hits: u64,
    /// Program lookups with no usable record — the caller compiles.
    pub program_misses: u64,
    /// Program records found with a mismatched `PROGRAM_FORMAT_VERSION`;
    /// the caller recompiles and rewrites (counted separately from
    /// misses so a format bump is visible in replay stats).
    pub program_stale: u64,
    /// Program records appended (not counted in `records_appended`,
    /// which stays contract-only).
    pub programs_appended: u64,
    /// Calls refused because a panic while the store's lock was held
    /// poisoned it. From then on lookups miss, appends and flushes fail,
    /// and the cache above carries on from memory alone.
    pub poisoned_refusals: u64,
}

impl StoreStats {
    /// Fraction of disk lookups served from a segment (0 when idle).
    pub fn disk_hit_rate(&self) -> f64 {
        let total = self.disk_hits + self.disk_misses;
        if total == 0 {
            0.0
        } else {
            self.disk_hits as f64 / total as f64
        }
    }
}

/// A structured report of damage found while opening a store — the
/// durable-tier analogue of [`Diagnostic`]. Damage never aborts an open:
/// the affected record becomes a miss and the rest of the store serves.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreDiagnostic {
    /// A segment ended inside a record (crash mid-append). The segment
    /// was truncated back to its last complete record.
    TornTail {
        /// Segment file the tail was found in.
        segment: u32,
        /// Byte offset the segment was truncated back to.
        offset: u64,
        /// Bytes of partial record discarded.
        dropped_bytes: u64,
    },
    /// A fully-framed record failed its checksum or did not decode; it
    /// was skipped (its key reads as a miss).
    CorruptRecord {
        /// Segment file holding the record.
        segment: u32,
        /// Byte offset of the record header.
        offset: u64,
    },
    /// The index file was missing, unreadable, or did not match the
    /// segments on disk; it was rebuilt by scanning.
    StaleIndex,
}

impl fmt::Display for StoreDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreDiagnostic::TornTail {
                segment,
                offset,
                dropped_bytes,
            } => write!(
                f,
                "segment {segment}: torn tail, truncated to {offset} ({dropped_bytes} bytes dropped)"
            ),
            StoreDiagnostic::CorruptRecord { segment, offset } => {
                write!(f, "segment {segment}: corrupt record at {offset} skipped")
            }
            StoreDiagnostic::StaleIndex => f.write_str("index stale or missing; rebuilt from segments"),
        }
    }
}

/// Location of one record inside the segment set.
#[derive(Clone, Copy, Debug)]
struct RecordLoc {
    segment: u32,
    /// Offset of the record *header* within the segment file.
    offset: u64,
    /// Total record length (header + payload).
    len: u32,
}

/// The result of [`PersistentStore::lookup_program`].
#[derive(Debug)]
pub enum ProgramLookup {
    /// A version-matching program decoded from disk — compilation can be
    /// skipped.
    Hit(Program),
    /// A record exists but its `PROGRAM_FORMAT_VERSION` does not match
    /// this build: recompile and rewrite.
    Stale,
    /// No usable program record (absent, torn away, or corrupt).
    Miss,
}

/// Mutable state behind the store's lock: the key indexes, the active
/// append segment, and lazily-opened read handles and mappings.
struct StoreState {
    index: HashMap<[u8; 32], RecordLoc>,
    /// Program records, keyed by the same contract key as `index` but
    /// kept separate so `contract_count` and contract lookups never see
    /// them.
    program_index: HashMap<[u8; 32], RecordLoc>,
    /// Id and clean length of every segment, in id order.
    segments: Vec<(u32, u64)>,
    /// Append handle for the last segment (opened on first append).
    active: Option<File>,
    /// Appends since the active segment was last synced.
    unsynced: u64,
    /// Read handles, keyed by segment id (the fallback for records past
    /// a mapping's length).
    readers: HashMap<u32, File>,
    /// Lazily-created read-only mappings, keyed by segment id. A mapping
    /// covers the file length at creation time; records appended later
    /// fall back to `readers`.
    maps: HashMap<u32, Arc<Mapping>>,
}

struct StoreInner {
    dir: PathBuf,
    options: StoreOptions,
    state: Mutex<StoreState>,
    open_diags: Vec<StoreDiagnostic>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    records_appended: AtomicU64,
    bytes_appended: AtomicU64,
    bytes_read: AtomicU64,
    fsyncs: AtomicU64,
    rejected_unsealed: AtomicU64,
    torn_tails: AtomicU64,
    corrupt_records: AtomicU64,
    index_rebuilds: AtomicU64,
    io_errors: AtomicU64,
    program_hits: AtomicU64,
    program_misses: AtomicU64,
    program_stale: AtomicU64,
    programs_appended: AtomicU64,
    poisoned_refusals: AtomicU64,
}

impl fmt::Debug for StoreInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PersistentStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

/// A shared, thread-safe, append-only on-disk store of sealed contract
/// recoveries. Clones share one handle, the way [`RecoveryCache`] clones
/// share one table.
///
/// [`RecoveryCache`]: crate::RecoveryCache
#[derive(Clone, Debug)]
pub struct PersistentStore {
    inner: Arc<StoreInner>,
}

impl PersistentStore {
    /// Opens (or creates) a store in `dir` with default [`StoreOptions`].
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Opens (or creates) a store in `dir`.
    ///
    /// After a graceful shutdown ([`PersistentStore::flush`]) the flat
    /// index exactly describes the segment files and the open is
    /// scan-free. Any mismatch — a crash, appends after the last flush,
    /// a deleted index — falls back to a full segment scan that rebuilds
    /// the index, detecting torn or checksum-corrupt records on the way.
    /// Damage is skipped and reported through
    /// [`PersistentStore::open_diagnostics`] — an open never fails on
    /// damaged records, only on I/O errors touching the directory
    /// itself. (Bit rot inside a flush-covered segment is caught lazily:
    /// every read verifies its record's checksum.)
    pub fn open_with(dir: impl AsRef<Path>, options: StoreOptions) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut diags = Vec::new();
        let mut torn = 0u64;
        let mut corrupt = 0u64;
        let mut rebuilds = 0u64;

        let seg_ids = list_segments(&dir)?;
        let mut disk_layout = Vec::with_capacity(seg_ids.len());
        for &id in &seg_ids {
            disk_layout.push((id, fs::metadata(segment_path(&dir, id))?.len()));
        }

        let (segments, index, program_index) = match load_index(&dir, &disk_layout) {
            // Fast path: the index covers exactly the bytes on disk, so
            // the last flush postdates the last append — nothing to scan.
            Some((index, programs)) => (disk_layout, index, programs),
            None => {
                let mut segments = Vec::with_capacity(seg_ids.len());
                let mut scanned: HashMap<[u8; 32], RecordLoc> = HashMap::new();
                let mut scanned_programs: HashMap<[u8; 32], RecordLoc> = HashMap::new();
                for &(id, disk_len) in &disk_layout {
                    let path = segment_path(&dir, id);
                    let (clean_len, records, seg_diags) = scan_segment(&path, id)?;
                    for d in &seg_diags {
                        match d {
                            StoreDiagnostic::TornTail { .. } => torn += 1,
                            StoreDiagnostic::CorruptRecord { .. } => corrupt += 1,
                            StoreDiagnostic::StaleIndex => {}
                        }
                    }
                    diags.extend(seg_diags);
                    if disk_len > clean_len {
                        // Physically drop the torn tail so future appends
                        // start at a record boundary.
                        OpenOptions::new()
                            .write(true)
                            .open(&path)?
                            .set_len(clean_len)?;
                    }
                    segments.push((id, clean_len));
                    // Later records win on duplicate keys (append order).
                    for (key, loc, is_program) in records {
                        if is_program {
                            scanned_programs.insert(key, loc);
                        } else {
                            scanned.insert(key, loc);
                        }
                    }
                }
                if !segments.is_empty() || index_path(&dir).exists() {
                    diags.push(StoreDiagnostic::StaleIndex);
                    rebuilds += 1;
                }
                (segments, scanned, scanned_programs)
            }
        };

        let inner = StoreInner {
            dir,
            options,
            state: Mutex::new(StoreState {
                index,
                program_index,
                segments,
                active: None,
                unsynced: 0,
                readers: HashMap::new(),
                maps: HashMap::new(),
            }),
            open_diags: diags,
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            records_appended: AtomicU64::new(0),
            bytes_appended: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            rejected_unsealed: AtomicU64::new(0),
            torn_tails: AtomicU64::new(torn),
            corrupt_records: AtomicU64::new(corrupt),
            index_rebuilds: AtomicU64::new(rebuilds),
            io_errors: AtomicU64::new(0),
            program_hits: AtomicU64::new(0),
            program_misses: AtomicU64::new(0),
            program_stale: AtomicU64::new(0),
            programs_appended: AtomicU64::new(0),
            poisoned_refusals: AtomicU64::new(0),
        };
        Ok(PersistentStore {
            inner: Arc::new(inner),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Damage found (and recovered from) while opening.
    pub fn open_diagnostics(&self) -> &[StoreDiagnostic] {
        &self.inner.open_diags
    }

    /// Number of distinct contract keys readable from disk (0 once the
    /// store is poisoned).
    pub fn contract_count(&self) -> usize {
        self.state().map_or(0, |state| state.index.len())
    }

    /// The one way into the store's mutable state. A panic while the
    /// lock was held leaves the indexes and the active segment in an
    /// unknown state, so a poisoned lock is never recovered: the call is
    /// refused with an error and counted in
    /// [`StoreStats::poisoned_refusals`], and each caller degrades —
    /// lookups miss, appends and flushes fail.
    fn state(&self) -> io::Result<MutexGuard<'_, StoreState>> {
        self.inner.state.lock().map_err(|_| {
            self.inner.poisoned_refusals.fetch_add(1, Ordering::Relaxed);
            io::Error::other("store lock poisoned by a panic")
        })
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        let r = Ordering::Relaxed;
        StoreStats {
            disk_hits: self.inner.disk_hits.load(r),
            disk_misses: self.inner.disk_misses.load(r),
            records_appended: self.inner.records_appended.load(r),
            bytes_appended: self.inner.bytes_appended.load(r),
            bytes_read: self.inner.bytes_read.load(r),
            fsyncs: self.inner.fsyncs.load(r),
            rejected_unsealed: self.inner.rejected_unsealed.load(r),
            torn_tails: self.inner.torn_tails.load(r),
            corrupt_records: self.inner.corrupt_records.load(r),
            index_rebuilds: self.inner.index_rebuilds.load(r),
            io_errors: self.inner.io_errors.load(r),
            program_hits: self.inner.program_hits.load(r),
            program_misses: self.inner.program_misses.load(r),
            program_stale: self.inner.program_stale.load(r),
            programs_appended: self.inner.programs_appended.load(r),
            poisoned_refusals: self.inner.poisoned_refusals.load(r),
        }
    }

    /// Appends one sealed contract recovery under its keccak key.
    ///
    /// Returns `Ok(false)` without writing when the recovery violates
    /// the seal rules (a [`BudgetKind::Deadline`] budget on any function,
    /// or an [`Diagnostic::InternalError`] among the diagnostics): such
    /// results are nondeterministic or partial and must never be
    /// replayed from disk. The in-memory callers already gate these —
    /// this check is the disk tier's own last line of defense. A write
    /// error, or a poisoned store, is returned and counted in
    /// [`StoreStats::io_errors`].
    pub fn append(
        &self,
        key: [u8; 32],
        functions: &[RecoveredFunction],
        extraction_diags: &[Diagnostic],
    ) -> io::Result<bool> {
        if !sealable(functions, extraction_diags) {
            self.inner.rejected_unsealed.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        let payload = codec::encode_contract(functions, extraction_diags);
        let record = frame_record(&key, &payload);
        let result = self.append_record(key, &record, false);
        if let Err(e) = result {
            self.inner.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.inner.records_appended.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_appended
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        Ok(true)
    }

    /// Appends one compiled program under its contract's keccak key, to
    /// be read back by [`PersistentStore::lookup_program`] in place of a
    /// recompile. Programs carry no seal state (they are a pure function
    /// of the bytecode), so there is no gate; a rewrite after a format
    /// bump simply appends a newer record that shadows the stale one.
    pub fn append_program(&self, key: [u8; 32], program: &Program) -> io::Result<()> {
        let payload = codec::encode_program(program);
        let record = frame_record(&key, &payload);
        if let Err(e) = self.append_record(key, &record, true) {
            self.inner.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.inner.programs_appended.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_appended
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn append_record(&self, key: [u8; 32], record: &[u8], is_program: bool) -> io::Result<()> {
        let mut state = self.state()?;
        // Roll to a fresh segment when the active one is full (or none
        // exists yet).
        let roll = match state.segments.last() {
            Some(&(_, len)) => len >= self.inner.options.max_segment_bytes,
            None => true,
        };
        if roll || state.active.is_none() {
            let next_id = match state.segments.last() {
                Some(&(id, _)) if !roll => id,
                Some(&(id, _)) => id + 1,
                None => 0,
            };
            let path = segment_path(&self.inner.dir, next_id);
            let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
            if file.metadata()?.len() == 0 {
                file.write_all(SEGMENT_MAGIC)?;
            }
            if roll {
                state.segments.push((next_id, SEGMENT_MAGIC.len() as u64));
            }
            state.active = Some(file);
        }
        let (segment, offset) = {
            let &(id, len) = state.segments.last().expect("segment exists");
            (id, len)
        };
        state
            .active
            .as_mut()
            .expect("active segment")
            .write_all(record)?;
        let entry = state.segments.last_mut().expect("segment exists");
        entry.1 += record.len() as u64;
        let loc = RecordLoc {
            segment,
            offset,
            len: record.len() as u32,
        };
        if is_program {
            state.program_index.insert(key, loc);
        } else {
            state.index.insert(key, loc);
        }
        state.unsynced += 1;
        if state.unsynced > self.inner.options.fsync_every {
            state.active.as_mut().expect("active segment").sync_data()?;
            self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
            state.unsynced = 0;
        }
        Ok(())
    }

    /// Reads one contract recovery back, verifying its checksum.
    ///
    /// A record that fails verification or decoding is dropped from the
    /// index, counted in [`StoreStats::corrupt_records`], and reported
    /// as a miss — the caller recovers cold and reseals a good record.
    pub fn lookup(&self, key: &[u8; 32]) -> Option<(Vec<RecoveredFunction>, Vec<Diagnostic>)> {
        let loc = self
            .state()
            .ok()
            .and_then(|state| state.index.get(key).copied());
        let Some(loc) = loc else {
            self.inner.disk_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match self.with_record(key, loc, codec::decode_contract) {
            Some(decoded) => {
                self.inner.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .bytes_read
                    .fetch_add(loc.len as u64, Ordering::Relaxed);
                Some(decoded)
            }
            None => {
                self.inner.corrupt_records.fetch_add(1, Ordering::Relaxed);
                self.inner.disk_misses.fetch_add(1, Ordering::Relaxed);
                if let Ok(mut state) = self.state() {
                    state.index.remove(key);
                }
                None
            }
        }
    }

    /// Reads one persisted compiled program back, verifying its checksum
    /// and `PROGRAM_FORMAT_VERSION`.
    ///
    /// Never wrong, sometimes absent: a missing, torn, or
    /// checksum-corrupt record is a [`ProgramLookup::Miss`]; a record
    /// from a different format version is a [`ProgramLookup::Stale`].
    /// Both mean "compile it yourself" — [`ProgramLookup::Stale`]
    /// additionally invites an `append_program` rewrite.
    pub fn lookup_program(&self, key: &[u8; 32]) -> ProgramLookup {
        let loc = self
            .state()
            .ok()
            .and_then(|state| state.program_index.get(key).copied());
        let Some(loc) = loc else {
            self.inner.program_misses.fetch_add(1, Ordering::Relaxed);
            return ProgramLookup::Miss;
        };
        match self.with_record(key, loc, |payload| Some(codec::decode_program(payload))) {
            Some(codec::ProgramDecode::Current(program)) => {
                self.inner.program_hits.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .bytes_read
                    .fetch_add(loc.len as u64, Ordering::Relaxed);
                ProgramLookup::Hit(*program)
            }
            Some(codec::ProgramDecode::Stale) => {
                self.inner.program_stale.fetch_add(1, Ordering::Relaxed);
                ProgramLookup::Stale
            }
            Some(codec::ProgramDecode::Malformed) | None => {
                self.inner.corrupt_records.fetch_add(1, Ordering::Relaxed);
                self.inner.program_misses.fetch_add(1, Ordering::Relaxed);
                if let Ok(mut state) = self.state() {
                    state.program_index.remove(key);
                }
                ProgramLookup::Miss
            }
        }
    }

    /// Verifies the record at `loc` (key echo, framing, checksum) and
    /// hands its payload to `decode`, preferring a borrowed slice of the
    /// segment's memory mapping over a file read. Only `decode`'s owned
    /// output leaves — mapped bytes never escape the call.
    fn with_record<T>(
        &self,
        key: &[u8; 32],
        loc: RecordLoc,
        decode: impl FnOnce(&[u8]) -> Option<T>,
    ) -> Option<T> {
        let start = loc.offset as usize;
        let end = start.checked_add(loc.len as usize)?;
        if let Some(map) = self.mapping_for(loc.segment) {
            if let Some(record) = map.as_slice().get(start..end) {
                return verify_record(key, record).and_then(decode);
            }
            // The record sits past the mapping (appended after the map
            // was created): fall through to the read handle.
        }
        let mut buf = vec![0u8; loc.len as usize];
        {
            // `File` writes are unbuffered, so a record indexed by the
            // appender is immediately visible to a separate read handle.
            let mut state = self.state().ok()?;
            let dir = self.inner.dir.clone();
            let file = match state.readers.entry(loc.segment) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(File::open(segment_path(&dir, loc.segment)).ok()?)
                }
            };
            file.seek(SeekFrom::Start(loc.offset)).ok()?;
            file.read_exact(&mut buf).ok()?;
        }
        verify_record(key, &buf).and_then(decode)
    }

    /// The (lazily created) read-only mapping of one segment file.
    fn mapping_for(&self, segment: u32) -> Option<Arc<Mapping>> {
        let mut state = self.state().ok()?;
        if let Some(map) = state.maps.get(&segment) {
            return Some(Arc::clone(map));
        }
        let map = Arc::new(Mapping::open(&segment_path(&self.inner.dir, segment)).ok()?);
        state.maps.insert(segment, Arc::clone(&map));
        Some(map)
    }

    /// Syncs the active segment and writes the flat index, making every
    /// appended record durable and the next open scan-free. Called on
    /// graceful shutdown; a crash that skips it costs an index rebuild,
    /// never data written before the last sync. A poisoned store returns
    /// an error and writes no index, so the next open rescans.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.state()?;
        if let Some(f) = state.active.as_mut() {
            f.sync_data()?;
            self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
            state.unsynced = 0;
        }
        let bytes = encode_index(&state.index, &state.program_index, &state.segments);
        let tmp = self.inner.dir.join("index.flat.tmp");
        let final_path = index_path(&self.inner.dir);
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
        drop(f);
        fs::rename(&tmp, &final_path)?;
        Ok(())
    }
}

/// The seal gate: true when `functions` + `extraction_diags` form a
/// result that is safe to replay from disk forever.
fn sealable(functions: &[RecoveredFunction], extraction_diags: &[Diagnostic]) -> bool {
    let deadline_cut = functions
        .iter()
        .any(|f| f.budgets.contains(&BudgetKind::Deadline));
    let poisoned = extraction_diags
        .iter()
        .any(|d| matches!(d, Diagnostic::InternalError { .. }));
    !deadline_cut && !poisoned
}

/// Frames one payload into a self-verifying record: `key | len | checksum
/// | payload`.
fn frame_record(key: &[u8; 32], payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
    record.extend_from_slice(key);
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&checksum(key, payload).to_le_bytes());
    record.extend_from_slice(payload);
    record
}

/// Checks a raw record's key echo, framing, and checksum; returns the
/// payload slice on success. Borrowed from the record (possibly a memory
/// mapping) — callers decode to owned data before returning.
fn verify_record<'a>(key: &[u8; 32], record: &'a [u8]) -> Option<&'a [u8]> {
    if record.len() < RECORD_HEADER || &record[..32] != key {
        return None;
    }
    let len = u32::from_le_bytes(record[32..36].try_into().unwrap()) as usize;
    let stored = u64::from_le_bytes(record[36..44].try_into().unwrap());
    let payload = &record[RECORD_HEADER..];
    if len != payload.len() || checksum(key, payload) != stored {
        return None;
    }
    Some(payload)
}

/// FNV-1a over `key || payload_len || payload` — the per-record checksum.
fn checksum(key: &[u8; 32], payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(key);
    eat(&(payload.len() as u32).to_le_bytes());
    eat(payload);
    h
}

fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:05}.sigseg"))
}

fn index_path(dir: &Path) -> PathBuf {
    dir.join("index.flat")
}

/// Segment ids present in `dir`, ascending.
fn list_segments(dir: &Path) -> io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(id) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".sigseg"))
            .and_then(|s| s.parse::<u32>().ok())
        {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

/// A segment scan's outcome: the clean length (the end of the last
/// intact record), the intact records found (with their
/// is-a-program-record flag), and any damage found.
type SegmentScan = (u64, Vec<([u8; 32], RecordLoc, bool)>, Vec<StoreDiagnostic>);

/// Walks one segment, returning its clean length (the end of its last
/// intact record), the records it holds, and any damage found. Records
/// are classified contract-vs-program by their payload's leading byte.
fn scan_segment(path: &Path, id: u32) -> io::Result<SegmentScan> {
    let mapping = Mapping::open(path)?;
    let buf = mapping.as_slice();
    let mut diags = Vec::new();
    if buf.len() < SEGMENT_MAGIC.len() || &buf[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // An empty or alien file: treat everything as a torn tail so
        // appends rewrite it from a clean (zero-length) state.
        diags.push(StoreDiagnostic::TornTail {
            segment: id,
            offset: 0,
            dropped_bytes: buf.len() as u64,
        });
        return Ok((0, Vec::new(), diags));
    }
    let mut records = Vec::new();
    let mut pos = SEGMENT_MAGIC.len();
    let mut clean = pos as u64;
    while pos < buf.len() {
        let start = pos;
        if buf.len() - pos < RECORD_HEADER {
            diags.push(StoreDiagnostic::TornTail {
                segment: id,
                offset: start as u64,
                dropped_bytes: (buf.len() - start) as u64,
            });
            break;
        }
        let mut key = [0u8; 32];
        key.copy_from_slice(&buf[pos..pos + 32]);
        let len = u32::from_le_bytes(buf[pos + 32..pos + 36].try_into().unwrap());
        let stored = u64::from_le_bytes(buf[pos + 36..pos + 44].try_into().unwrap());
        if len > MAX_PAYLOAD || buf.len() - (pos + RECORD_HEADER) < len as usize {
            diags.push(StoreDiagnostic::TornTail {
                segment: id,
                offset: start as u64,
                dropped_bytes: (buf.len() - start) as u64,
            });
            break;
        }
        let payload = &buf[pos + RECORD_HEADER..pos + RECORD_HEADER + len as usize];
        pos += RECORD_HEADER + len as usize;
        clean = pos as u64;
        if checksum(&key, payload) != stored {
            // Framing is intact: skip just this record, keep walking.
            diags.push(StoreDiagnostic::CorruptRecord {
                segment: id,
                offset: start as u64,
            });
            continue;
        }
        records.push((
            key,
            RecordLoc {
                segment: id,
                offset: start as u64,
                len: (RECORD_HEADER + len as usize) as u32,
            },
            payload.first() == Some(&PROGRAM_PAYLOAD_TAG),
        ));
    }
    Ok((clean, records, diags))
}

/// Serialises the index: magic, the segment layout it covers, then the
/// contract and program key → location sections.
fn encode_index(
    index: &HashMap<[u8; 32], RecordLoc>,
    programs: &HashMap<[u8; 32], RecordLoc>,
    segments: &[(u32, u64)],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 12 * segments.len() + 48 * (index.len() + programs.len()));
    out.extend_from_slice(INDEX_MAGIC);
    out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for &(id, len) in segments {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    for section in [index, programs] {
        out.extend_from_slice(&(section.len() as u64).to_le_bytes());
        // Deterministic order so byte-identical stores write
        // byte-identical indexes.
        let mut entries: Vec<_> = section.iter().collect();
        entries.sort_unstable_by_key(|(k, _)| **k);
        for (key, loc) in entries {
            out.extend_from_slice(key);
            out.extend_from_slice(&loc.segment.to_le_bytes());
            out.extend_from_slice(&loc.offset.to_le_bytes());
            out.extend_from_slice(&loc.len.to_le_bytes());
        }
    }
    out
}

/// The two sections of a loaded index: contract and program entries.
type LoadedIndex = (HashMap<[u8; 32], RecordLoc>, HashMap<[u8; 32], RecordLoc>);

/// Loads `index.flat` if it exactly describes the on-disk segment
/// layout; any mismatch (crash, appends since the last flush, manual
/// deletion, an index written by an older format) returns `None` and
/// the caller falls back to the scan. The file is read through a memory
/// mapping — entries decode straight from the mapped bytes.
fn load_index(dir: &Path, segments: &[(u32, u64)]) -> Option<LoadedIndex> {
    let mapping = Mapping::open(&index_path(dir)).ok()?;
    let mut r = codec::Reader::new(mapping.as_slice());
    if r.take(8)? != INDEX_MAGIC.as_slice() {
        return None;
    }
    let seg_count = r.u32()? as usize;
    if seg_count != segments.len() {
        return None;
    }
    for &(id, len) in segments {
        if r.u32()? != id || r.u64()? != len {
            return None;
        }
    }
    let mut sections = [HashMap::new(), HashMap::new()];
    for section in &mut sections {
        let entries = r.u64()? as usize;
        section.reserve(entries.min(1 << 20));
        for _ in 0..entries {
            let key: [u8; 32] = r.take(32)?.try_into().ok()?;
            let segment = r.u32()?;
            let offset = r.u64()?;
            let len = r.u32()?;
            // An entry pointing past its segment's clean length is stale.
            let seg_len = segments.iter().find(|&&(id, _)| id == segment)?.1;
            if offset + len as u64 > seg_len {
                return None;
            }
            section.insert(
                key,
                RecordLoc {
                    segment,
                    offset,
                    len,
                },
            );
        }
    }
    if !r.at_end() {
        return None;
    }
    let [index, programs] = sections;
    Some((index, programs))
}

/// The record payload codec: hand-rolled, versioned, length-prefixed
/// binary. Decoding is total — any malformed input yields `None`, which
/// the store reports as a corrupt record and a miss.
mod codec {
    use super::*;

    /// Bounded little-endian reader over a payload slice.
    pub(super) struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        pub(super) fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        pub(super) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.pos.checked_add(n)?;
            let slice = self.buf.get(self.pos..end)?;
            self.pos = end;
            Some(slice)
        }

        pub(super) fn u8(&mut self) -> Option<u8> {
            Some(self.take(1)?[0])
        }

        pub(super) fn u16(&mut self) -> Option<u16> {
            Some(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
        }

        pub(super) fn u32(&mut self) -> Option<u32> {
            Some(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }

        pub(super) fn u64(&mut self) -> Option<u64> {
            Some(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        pub(super) fn str(&mut self) -> Option<String> {
            let len = self.u32()? as usize;
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).ok()
        }

        pub(super) fn at_end(&self) -> bool {
            self.pos == self.buf.len()
        }
    }

    fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    fn encode_type(out: &mut Vec<u8>, ty: &AbiType) {
        match ty {
            AbiType::Uint(m) => {
                out.push(0);
                out.extend_from_slice(&m.to_le_bytes());
            }
            AbiType::Int(m) => {
                out.push(1);
                out.extend_from_slice(&m.to_le_bytes());
            }
            AbiType::Address => out.push(2),
            AbiType::Bool => out.push(3),
            AbiType::FixedBytes(m) => {
                out.push(4);
                out.push(*m);
            }
            AbiType::Bytes => out.push(5),
            AbiType::String => out.push(6),
            AbiType::Array(inner, n) => {
                out.push(7);
                out.extend_from_slice(&(*n as u32).to_le_bytes());
                encode_type(out, inner);
            }
            AbiType::DynArray(inner) => {
                out.push(8);
                encode_type(out, inner);
            }
            AbiType::Tuple(fields) => {
                out.push(9);
                out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
                for f in fields {
                    encode_type(out, f);
                }
            }
        }
    }

    fn decode_type(r: &mut Reader<'_>, depth: usize) -> Option<AbiType> {
        if depth > MAX_TYPE_DEPTH {
            return None;
        }
        Some(match r.u8()? {
            0 => AbiType::Uint(r.u16()?),
            1 => AbiType::Int(r.u16()?),
            2 => AbiType::Address,
            3 => AbiType::Bool,
            4 => AbiType::FixedBytes(r.u8()?),
            5 => AbiType::Bytes,
            6 => AbiType::String,
            7 => {
                let n = r.u32()? as usize;
                AbiType::Array(Box::new(decode_type(r, depth + 1)?), n)
            }
            8 => AbiType::DynArray(Box::new(decode_type(r, depth + 1)?)),
            9 => {
                let n = r.u32()? as usize;
                if n > (1 << 16) {
                    return None;
                }
                let mut fields = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    fields.push(decode_type(r, depth + 1)?);
                }
                AbiType::Tuple(fields)
            }
            _ => return None,
        })
    }

    fn budget_tag(b: BudgetKind) -> u8 {
        match b {
            BudgetKind::Paths => 0,
            BudgetKind::PathSteps => 1,
            BudgetKind::TotalSteps => 2,
            BudgetKind::ForkCap => 3,
            BudgetKind::VisitCap => 4,
            BudgetKind::Deadline => 5,
        }
    }

    fn decode_budget(tag: u8) -> Option<BudgetKind> {
        Some(match tag {
            0 => BudgetKind::Paths,
            1 => BudgetKind::PathSteps,
            2 => BudgetKind::TotalSteps,
            3 => BudgetKind::ForkCap,
            4 => BudgetKind::VisitCap,
            5 => BudgetKind::Deadline,
            _ => return None,
        })
    }

    fn encode_delegate(out: &mut Vec<u8>, d: &DelegateTarget) {
        match d {
            DelegateTarget::Address(a) => {
                out.push(0);
                out.extend_from_slice(a);
            }
            DelegateTarget::Unknown => out.push(1),
        }
    }

    fn decode_delegate(r: &mut Reader<'_>) -> Option<DelegateTarget> {
        Some(match r.u8()? {
            0 => DelegateTarget::Address(r.take(20)?.try_into().ok()?),
            1 => DelegateTarget::Unknown,
            _ => return None,
        })
    }

    fn encode_diag(out: &mut Vec<u8>, d: &Diagnostic) {
        match d {
            Diagnostic::BudgetExhausted {
                selector,
                entry,
                kind,
            } => {
                out.push(0);
                out.extend_from_slice(&selector.0);
                out.extend_from_slice(&(*entry as u64).to_le_bytes());
                out.push(budget_tag(*kind));
            }
            Diagnostic::DispatcherTruncated(kind) => {
                out.push(1);
                out.push(match kind {
                    TruncationKind::Steps => 0,
                    TruncationKind::Branches => 1,
                });
            }
            Diagnostic::MalformedCode(kind) => {
                out.push(2);
                match kind {
                    MalformedKind::CodeTooShort { len } => {
                        out.push(0);
                        out.extend_from_slice(&(*len as u64).to_le_bytes());
                    }
                    MalformedKind::TruncatedPush { pc } => {
                        out.push(1);
                        out.extend_from_slice(&(*pc as u64).to_le_bytes());
                    }
                }
            }
            Diagnostic::InternalError { context } => {
                out.push(3);
                put_str(out, context);
            }
            Diagnostic::UnresolvedIndirection { selector, target } => {
                out.push(4);
                match selector {
                    Some(sel) => {
                        out.push(1);
                        out.extend_from_slice(&sel.0);
                    }
                    None => out.push(0),
                }
                encode_delegate(out, target);
            }
        }
    }

    fn decode_diag(r: &mut Reader<'_>) -> Option<Diagnostic> {
        Some(match r.u8()? {
            0 => Diagnostic::BudgetExhausted {
                selector: Selector(r.take(4)?.try_into().ok()?),
                entry: r.u64()? as usize,
                kind: decode_budget(r.u8()?)?,
            },
            1 => Diagnostic::DispatcherTruncated(match r.u8()? {
                0 => TruncationKind::Steps,
                1 => TruncationKind::Branches,
                _ => return None,
            }),
            2 => Diagnostic::MalformedCode(match r.u8()? {
                0 => MalformedKind::CodeTooShort {
                    len: r.u64()? as usize,
                },
                1 => MalformedKind::TruncatedPush {
                    pc: r.u64()? as usize,
                },
                _ => return None,
            }),
            3 => Diagnostic::InternalError { context: r.str()? },
            4 => Diagnostic::UnresolvedIndirection {
                selector: match r.u8()? {
                    0 => None,
                    1 => Some(Selector(r.take(4)?.try_into().ok()?)),
                    _ => return None,
                },
                target: decode_delegate(r)?,
            },
            _ => return None,
        })
    }

    fn encode_function(out: &mut Vec<u8>, f: &RecoveredFunction) {
        out.extend_from_slice(&f.selector.0);
        out.extend_from_slice(&(f.entry as u64).to_le_bytes());
        out.extend_from_slice(&(f.params.len() as u32).to_le_bytes());
        for p in &f.params {
            encode_type(out, p);
        }
        out.push(match f.language {
            Language::Solidity => 0,
            Language::Vyper => 1,
        });
        out.extend_from_slice(&(f.rules.len() as u32).to_le_bytes());
        for r in &f.rules {
            out.push(r.index() as u8);
        }
        out.extend_from_slice(&(f.budgets.len() as u32).to_le_bytes());
        for &b in &f.budgets {
            out.push(budget_tag(b));
        }
        out.extend_from_slice(&(f.elapsed.as_nanos().min(u64::MAX as u128) as u64).to_le_bytes());
        match &f.delegate {
            Some(d) => {
                out.push(1);
                encode_delegate(out, d);
            }
            None => out.push(0),
        }
    }

    fn decode_function(r: &mut Reader<'_>) -> Option<RecoveredFunction> {
        let selector = Selector(r.take(4)?.try_into().ok()?);
        let entry = r.u64()? as usize;
        let n_params = r.u32()? as usize;
        if n_params > (1 << 16) {
            return None;
        }
        let mut params = Vec::with_capacity(n_params.min(256));
        for _ in 0..n_params {
            params.push(decode_type(r, 0)?);
        }
        let language = match r.u8()? {
            0 => Language::Solidity,
            1 => Language::Vyper,
            _ => return None,
        };
        let n_rules = r.u32()? as usize;
        if n_rules > (1 << 16) {
            return None;
        }
        let mut rules = Vec::with_capacity(n_rules.min(256));
        for _ in 0..n_rules {
            rules.push(*RuleId::ALL.get(r.u8()? as usize)?);
        }
        let n_budgets = r.u32()? as usize;
        if n_budgets > (1 << 8) {
            return None;
        }
        let mut budgets = Vec::with_capacity(n_budgets.min(16));
        for _ in 0..n_budgets {
            budgets.push(decode_budget(r.u8()?)?);
        }
        let elapsed = Duration::from_nanos(r.u64()?);
        let delegate = match r.u8()? {
            0 => None,
            1 => Some(decode_delegate(r)?),
            _ => return None,
        };
        Some(RecoveredFunction {
            selector,
            entry,
            params,
            language,
            rules,
            budgets,
            elapsed,
            delegate,
        })
    }

    /// Encodes one contract's sealed recovery into a record payload.
    pub(super) fn encode_contract(
        functions: &[RecoveredFunction],
        extraction_diags: &[Diagnostic],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 * functions.len() + 16);
        out.push(PAYLOAD_VERSION);
        out.extend_from_slice(&(functions.len() as u32).to_le_bytes());
        for f in functions {
            encode_function(&mut out, f);
        }
        out.extend_from_slice(&(extraction_diags.len() as u32).to_le_bytes());
        for d in extraction_diags {
            encode_diag(&mut out, d);
        }
        out
    }

    /// Decodes a record payload; `None` for any malformed or
    /// wrong-version input.
    pub(super) fn decode_contract(
        payload: &[u8],
    ) -> Option<(Vec<RecoveredFunction>, Vec<Diagnostic>)> {
        let mut r = Reader::new(payload);
        if r.u8()? != PAYLOAD_VERSION {
            return None;
        }
        let n_funcs = r.u32()? as usize;
        if n_funcs > (1 << 20) {
            return None;
        }
        let mut functions = Vec::with_capacity(n_funcs.min(1024));
        for _ in 0..n_funcs {
            functions.push(decode_function(&mut r)?);
        }
        let n_diags = r.u32()? as usize;
        if n_diags > (1 << 20) {
            return None;
        }
        let mut diags = Vec::with_capacity(n_diags.min(1024));
        for _ in 0..n_diags {
            diags.push(decode_diag(&mut r)?);
        }
        if !r.at_end() {
            return None;
        }
        Some((functions, diags))
    }

    // ---- the program payload codec ----

    use sigrec_evm::program::{BlockInfo, JumpTarget, Step, StepKind, MAX_SHUFFLE};
    use sigrec_evm::{Opcode, U256};

    /// Outcome of decoding a program payload. `Stale` is the one case
    /// that is not damage: the record was written by a different
    /// `PROGRAM_FORMAT_VERSION` and must be recompiled, never decoded.
    pub(super) enum ProgramDecode {
        /// A version-matching program, rebuilt via `Program::from_parts`.
        Current(Box<Program>),
        /// Valid framing, wrong format version.
        Stale,
        /// Anything else — reported as a corrupt record.
        Malformed,
    }

    /// Writes a step/block index or pc as u16 (compact mode) or u32.
    fn encode_idx(out: &mut Vec<u8>, compact: bool, v: u32) {
        if compact {
            out.extend_from_slice(&(v as u16).to_le_bytes());
        } else {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_idx(r: &mut Reader<'_>, compact: bool) -> Option<u32> {
        if compact {
            Some(r.u16()? as u32)
        } else {
            r.u32()
        }
    }

    fn encode_target(out: &mut Vec<u8>, compact: bool, t: &JumpTarget) {
        match t {
            JumpTarget::Valid { pc, block } => {
                out.push(0);
                encode_idx(out, compact, *pc as u32);
                encode_idx(out, compact, *block);
            }
            JumpTarget::Invalid => out.push(1),
            JumpTarget::Huge => out.push(2),
        }
    }

    fn decode_target(r: &mut Reader<'_>, compact: bool) -> Option<JumpTarget> {
        Some(match r.u8()? {
            0 => JumpTarget::Valid {
                pc: decode_idx(r, compact)? as usize,
                block: decode_idx(r, compact)?,
            },
            1 => JumpTarget::Invalid,
            2 => JumpTarget::Huge,
            _ => return None,
        })
    }

    /// Writes a push value as its minimal big-endian bytes behind a
    /// length prefix — dispatcher code is dominated by PUSH1..PUSH4, so
    /// this is the single biggest payload (and checksum-work) saving.
    fn encode_u256(out: &mut Vec<u8>, v: &U256) {
        let bytes = v.to_be_bytes();
        let first = bytes.iter().position(|&b| b != 0).unwrap_or(32);
        out.push((32 - first) as u8);
        out.extend_from_slice(&bytes[first..]);
    }

    fn u256(r: &mut Reader<'_>) -> Option<U256> {
        let n = r.u8()? as usize;
        if n > 32 {
            return None;
        }
        Some(U256::from_be_bytes(r.take(n)?))
    }

    /// Encodes one compiled program into a record payload: tag, format
    /// version, then steps, blocks, loop exits, and the compiled-block
    /// bitmask. The `pc → step` table is *not* persisted — the decoder
    /// rebuilds it in O(steps). Programs small enough for every pc and
    /// index to fit in 16 bits (virtually all deployed contracts) use a
    /// compact half-width layout, which saves disk bytes.
    pub(super) fn encode_program(p: &Program) -> Vec<u8> {
        let steps = p.steps();
        let blocks = p.blocks();
        // `next_pc` of a truncated trailing push can point up to 33
        // bytes past the end of code, so the compact bound backs off by
        // that much.
        let compact = p.code_len() + 33 <= u16::MAX as usize
            && steps.len() <= u16::MAX as usize
            && blocks.len() <= u16::MAX as usize;
        let mut out = Vec::with_capacity(32 + 12 * steps.len() + 24 * blocks.len());
        out.push(PROGRAM_PAYLOAD_TAG);
        out.extend_from_slice(&PROGRAM_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(p.code_len() as u64).to_le_bytes());
        out.push(compact as u8);
        encode_idx(&mut out, compact, steps.len() as u32);
        for s in steps {
            encode_idx(&mut out, compact, s.pc as u32);
            encode_idx(&mut out, compact, s.next_pc as u32);
            encode_idx(&mut out, compact, s.block);
            out.push(s.width);
            match &s.kind {
                StepKind::Op(op) => {
                    out.push(0);
                    out.push(op.to_byte());
                }
                StepKind::Push(v) => {
                    out.push(1);
                    encode_u256(&mut out, v);
                }
                StepKind::FusedPushOp { value, op } => {
                    out.push(2);
                    encode_u256(&mut out, value);
                    out.push(op.to_byte());
                }
                StepKind::FusedJump(t) => {
                    out.push(3);
                    encode_target(&mut out, compact, t);
                }
                StepKind::FusedJumpI(t) => {
                    out.push(4);
                    encode_target(&mut out, compact, t);
                }
                StepKind::Shuffle { ops, len } => {
                    out.push(5);
                    out.push(*len);
                    out.extend_from_slice(&ops[..*len as usize]);
                }
            }
        }
        encode_idx(&mut out, compact, blocks.len() as u32);
        for b in blocks {
            encode_idx(&mut out, compact, b.start_pc as u32);
            encode_idx(&mut out, compact, b.first_step);
            encode_idx(&mut out, compact, b.len);
            out.extend_from_slice(&b.stack_delta.to_le_bytes());
            out.extend_from_slice(&b.min_depth.to_le_bytes());
            out.push(b.straight_line as u8);
        }
        out.extend_from_slice(&(p.loop_exits().len() as u32).to_le_bytes());
        for &(guard, exit) in p.loop_exits() {
            encode_idx(&mut out, compact, guard as u32);
            encode_idx(&mut out, compact, exit as u32);
        }
        let mask = p.compiled_mask();
        let mut bits = vec![0u8; mask.len().div_ceil(8)];
        for (i, &compiled) in mask.iter().enumerate() {
            if compiled {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        out.extend_from_slice(&bits);
        out
    }

    /// Decodes a program payload. Total: every malformed input comes
    /// back as [`ProgramDecode::Malformed`] (a corrupt-record miss), a
    /// version mismatch as [`ProgramDecode::Stale`].
    pub(super) fn decode_program(payload: &[u8]) -> ProgramDecode {
        let mut r = Reader::new(payload);
        let (Some(tag), Some(version)) = (r.u8(), r.u16()) else {
            return ProgramDecode::Malformed;
        };
        if tag != PROGRAM_PAYLOAD_TAG {
            return ProgramDecode::Malformed;
        }
        if version != PROGRAM_FORMAT_VERSION {
            return ProgramDecode::Stale;
        }
        match decode_program_body(&mut r) {
            Some(p) => ProgramDecode::Current(Box::new(p)),
            None => ProgramDecode::Malformed,
        }
    }

    fn decode_program_body(r: &mut Reader<'_>) -> Option<Program> {
        let code_len = r.u64()? as usize;
        let compact = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let n_steps = decode_idx(r, compact)? as usize;
        if n_steps > (1 << 22) || code_len > (1 << 32) {
            return None;
        }
        let mut steps = Vec::with_capacity(n_steps.min(1 << 16));
        for _ in 0..n_steps {
            let pc = decode_idx(r, compact)? as usize;
            let next_pc = decode_idx(r, compact)? as usize;
            let block = decode_idx(r, compact)?;
            let width = r.u8()?;
            let kind = match r.u8()? {
                0 => StepKind::Op(Opcode::from_byte(r.u8()?)),
                1 => StepKind::Push(u256(r)?),
                2 => StepKind::FusedPushOp {
                    value: u256(r)?,
                    op: Opcode::from_byte(r.u8()?),
                },
                3 => StepKind::FusedJump(decode_target(r, compact)?),
                4 => StepKind::FusedJumpI(decode_target(r, compact)?),
                5 => {
                    let len = r.u8()?;
                    if !(2..=MAX_SHUFFLE as u8).contains(&len) {
                        return None;
                    }
                    let mut ops = [0u8; MAX_SHUFFLE];
                    ops[..len as usize].copy_from_slice(r.take(len as usize)?);
                    StepKind::Shuffle { ops, len }
                }
                _ => return None,
            };
            steps.push(Step {
                pc,
                next_pc,
                block,
                width,
                kind,
            });
        }
        let n_blocks = decode_idx(r, compact)? as usize;
        if n_blocks > (1 << 22) {
            return None;
        }
        let mut blocks = Vec::with_capacity(n_blocks.min(1 << 16));
        for _ in 0..n_blocks {
            blocks.push(BlockInfo {
                start_pc: decode_idx(r, compact)? as usize,
                first_step: decode_idx(r, compact)?,
                len: decode_idx(r, compact)?,
                stack_delta: r.u32()? as i32,
                min_depth: r.u32()?,
                straight_line: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            });
        }
        let n_loops = r.u32()? as usize;
        if n_loops > (1 << 20) {
            return None;
        }
        let mut loop_exits = Vec::with_capacity(n_loops.min(1 << 12));
        for _ in 0..n_loops {
            loop_exits.push((
                decode_idx(r, compact)? as usize,
                decode_idx(r, compact)? as usize,
            ));
        }
        let bits = r.take(n_blocks.div_ceil(8))?;
        let compiled: Vec<bool> = (0..n_blocks)
            .map(|i| bits[i / 8] >> (i % 8) & 1 == 1)
            .collect();
        if !r.at_end() {
            return None;
        }
        Program::from_parts(steps, blocks, code_len, loop_exits, compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn scratch() -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "sigrec-store-unit-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn func(selector: u32, params: Vec<AbiType>) -> RecoveredFunction {
        RecoveredFunction {
            selector: Selector::from_u32(selector),
            entry: 0x42,
            params,
            language: Language::Solidity,
            rules: vec![RuleId::ALL[0], RuleId::ALL[19]],
            budgets: vec![BudgetKind::ForkCap],
            elapsed: Duration::from_micros(17),
            delegate: None,
        }
    }

    #[test]
    fn codec_round_trips_every_variant() {
        let types = vec![
            AbiType::Uint(256),
            AbiType::Int(8),
            AbiType::Address,
            AbiType::Bool,
            AbiType::FixedBytes(32),
            AbiType::Bytes,
            AbiType::String,
            AbiType::Array(Box::new(AbiType::Uint(8)), 3),
            AbiType::DynArray(Box::new(AbiType::Tuple(vec![
                AbiType::Address,
                AbiType::DynArray(Box::new(AbiType::Bytes)),
            ]))),
        ];
        let mut f = func(0xa9059cbb, types);
        f.language = Language::Vyper;
        f.budgets = vec![
            BudgetKind::Paths,
            BudgetKind::PathSteps,
            BudgetKind::TotalSteps,
            BudgetKind::ForkCap,
            BudgetKind::VisitCap,
        ];
        f.delegate = Some(DelegateTarget::Address([0xab; 20]));
        let diags = vec![
            Diagnostic::DispatcherTruncated(TruncationKind::Steps),
            Diagnostic::DispatcherTruncated(TruncationKind::Branches),
            Diagnostic::MalformedCode(MalformedKind::CodeTooShort { len: 3 }),
            Diagnostic::MalformedCode(MalformedKind::TruncatedPush { pc: 0x77 }),
            Diagnostic::UnresolvedIndirection {
                selector: Some(Selector::from_u32(0xdeadbeef)),
                target: DelegateTarget::Unknown,
            },
            Diagnostic::UnresolvedIndirection {
                selector: None,
                target: DelegateTarget::Address([7; 20]),
            },
        ];
        let payload = codec::encode_contract(std::slice::from_ref(&f), &diags);
        let (funcs, got_diags) = codec::decode_contract(&payload).expect("round trip");
        assert_eq!(funcs.len(), 1);
        let g = &funcs[0];
        assert_eq!(g.selector, f.selector);
        assert_eq!(g.entry, f.entry);
        assert_eq!(g.params, f.params);
        assert_eq!(g.language, f.language);
        assert_eq!(g.rules, f.rules);
        assert_eq!(g.budgets, f.budgets);
        assert_eq!(g.elapsed, f.elapsed);
        assert_eq!(g.delegate, f.delegate);
        assert_eq!(got_diags, diags);
    }

    #[test]
    fn truncated_or_mutated_payloads_decode_to_none() {
        let payload = codec::encode_contract(&[func(1, vec![AbiType::Uint(256)])], &[]);
        assert!(codec::decode_contract(&payload).is_some());
        for cut in 0..payload.len() {
            assert!(
                codec::decode_contract(&payload[..cut]).is_none(),
                "truncation at {cut} decoded"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = payload.clone();
        padded.push(0);
        assert!(codec::decode_contract(&padded).is_none());
        // Wrong version is a clean miss.
        let mut wrong = payload;
        wrong[0] = PAYLOAD_VERSION + 1;
        assert!(codec::decode_contract(&wrong).is_none());
    }

    #[test]
    fn store_round_trip_and_stats() {
        let dir = scratch();
        let store = PersistentStore::open(&dir).unwrap();
        assert!(store.open_diagnostics().is_empty());
        let key = [9u8; 32];
        assert!(store.lookup(&key).is_none());
        let fns = vec![func(0xa9059cbb, vec![AbiType::Address, AbiType::Uint(256)])];
        assert!(store.append(key, &fns, &[]).unwrap());
        let (got, diags) = store.lookup(&key).unwrap();
        assert_eq!(got[0].params, fns[0].params);
        assert!(diags.is_empty());
        let stats = store.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.disk_misses, 1);
        assert_eq!(stats.records_appended, 1);
        assert!(stats.bytes_appended > 0);
        assert!((stats.disk_hit_rate() - 0.5).abs() < 1e-12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_survives_without_flush_via_rebuild() {
        let dir = scratch();
        {
            let store = PersistentStore::open(&dir).unwrap();
            store.append([1u8; 32], &[func(1, vec![])], &[]).unwrap();
            store.append([2u8; 32], &[func(2, vec![])], &[]).unwrap();
            // No flush: simulates a crash after the OS wrote the data.
        }
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.contract_count(), 2);
        assert!(store.lookup(&[1u8; 32]).is_some());
        assert!(store.lookup(&[2u8; 32]).is_some());
        assert_eq!(store.stats().index_rebuilds, 1);
        assert!(store
            .open_diagnostics()
            .contains(&StoreDiagnostic::StaleIndex));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flushed_index_is_trusted_on_reopen() {
        let dir = scratch();
        {
            let store = PersistentStore::open(&dir).unwrap();
            store.append([1u8; 32], &[func(1, vec![])], &[]).unwrap();
            store.flush().unwrap();
        }
        let store = PersistentStore::open(&dir).unwrap();
        assert!(store.open_diagnostics().is_empty());
        assert_eq!(store.stats().index_rebuilds, 0);
        assert!(store.lookup(&[1u8; 32]).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_gate_rejects_deadline_and_panic_results() {
        let dir = scratch();
        let store = PersistentStore::open(&dir).unwrap();
        let mut cut = func(1, vec![]);
        cut.budgets.push(BudgetKind::Deadline);
        assert!(!store.append([1u8; 32], &[cut], &[]).unwrap());
        let poisoned = vec![Diagnostic::InternalError {
            context: "worker panicked".into(),
        }];
        assert!(!store
            .append([2u8; 32], &[func(2, vec![])], &poisoned)
            .unwrap());
        assert_eq!(store.stats().rejected_unsealed, 2);
        assert_eq!(store.stats().records_appended, 0);
        assert!(store.lookup(&[1u8; 32]).is_none());
        assert!(store.lookup(&[2u8; 32]).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deterministic_budgets_are_persisted() {
        let dir = scratch();
        let store = PersistentStore::open(&dir).unwrap();
        let mut f = func(1, vec![AbiType::Bytes]);
        f.budgets = vec![BudgetKind::Paths, BudgetKind::VisitCap];
        assert!(store.append([1u8; 32], &[f.clone()], &[]).unwrap());
        let (got, _) = store.lookup(&[1u8; 32]).unwrap();
        assert_eq!(got[0].budgets, f.budgets);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll_at_the_size_cap() {
        let dir = scratch();
        let store = PersistentStore::open_with(
            &dir,
            StoreOptions {
                fsync_every: u64::MAX,
                max_segment_bytes: 256,
            },
        )
        .unwrap();
        for i in 0..16u8 {
            let mut key = [0u8; 32];
            key[0] = i;
            store
                .append(key, &[func(i as u32, vec![AbiType::Uint(256)])], &[])
                .unwrap();
        }
        store.flush().unwrap();
        let segs = list_segments(&dir).unwrap();
        assert!(segs.len() > 1, "expected rollover, got {segs:?}");
        // Every record still readable across segments, with and without
        // a restart.
        for i in 0..16u8 {
            let mut key = [0u8; 32];
            key[0] = i;
            assert!(store.lookup(&key).is_some(), "record {i} lost");
        }
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.contract_count(), 16);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn sample_program() -> Program {
        // PUSH1 6; JUMPI | PUSH1 4; CALLDATALOAD; STOP | JUMPDEST;
        // DUP1; DUP2; SWAP1; STOP — exercises fusion, shuffles, and a
        // resolved jump in one program.
        let code = [
            0x60, 0x06, 0x57, 0x60, 0x04, 0x35, 0x00, 0x5b, 0x80, 0x81, 0x90, 0x00,
        ];
        Program::compile(&sigrec_evm::Disassembly::new(&code))
    }

    fn assert_programs_equal(a: &Program, b: &Program) {
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.blocks(), b.blocks());
        assert_eq!(a.code_len(), b.code_len());
        assert_eq!(a.loop_exits(), b.loop_exits());
        assert_eq!(a.compiled_mask(), b.compiled_mask());
    }

    #[test]
    fn program_records_round_trip_through_disk() {
        let dir = scratch();
        let store = PersistentStore::open(&dir).unwrap();
        let program = sample_program();
        let key = [3u8; 32];
        assert!(matches!(store.lookup_program(&key), ProgramLookup::Miss));
        store.append_program(key, &program).unwrap();
        match store.lookup_program(&key) {
            ProgramLookup::Hit(got) => assert_programs_equal(&got, &program),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = store.stats();
        assert_eq!(stats.programs_appended, 1);
        assert_eq!(stats.program_hits, 1);
        assert_eq!(stats.program_misses, 1);
        // Program records never masquerade as contracts.
        assert_eq!(stats.records_appended, 0);
        assert_eq!(store.contract_count(), 0);
        assert!(store.lookup(&key).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wide_program_round_trips_without_the_compact_layout() {
        // Code too long for u16 pcs forces the full-width (u32) payload
        // layout; the sample program's short code exercises the compact
        // one — together they pin both decoder branches.
        let mut code = vec![0x5b]; // JUMPDEST so block 0 has an anchor
        code.resize(u16::MAX as usize + 8, 0x00); // STOP padding
        let wide = Program::compile(&sigrec_evm::Disassembly::new(&code));
        let payload = codec::encode_program(&wide);
        assert_eq!(payload[11], 0, "wide program must opt out of compact");
        match codec::decode_program(&payload) {
            codec::ProgramDecode::Current(got) => assert_programs_equal(&got, &wide),
            _ => panic!("wide program payload failed to decode"),
        }
        let compact_payload = codec::encode_program(&sample_program());
        assert_eq!(compact_payload[11], 1, "short program must be compact");
    }

    #[test]
    fn program_survives_reopen_flushed_and_rebuilt() {
        let dir = scratch();
        let key = [4u8; 32];
        let program = sample_program();
        {
            let store = PersistentStore::open(&dir).unwrap();
            store.append(key, &[func(1, vec![])], &[]).unwrap();
            store.append_program(key, &program).unwrap();
            store.flush().unwrap();
        }
        // Flushed path: the I2 index carries the program section.
        {
            let store = PersistentStore::open(&dir).unwrap();
            assert_eq!(store.stats().index_rebuilds, 0);
            assert!(matches!(store.lookup_program(&key), ProgramLookup::Hit(_)));
            assert_eq!(store.contract_count(), 1);
        }
        // Rebuild path: the scan reclassifies records by payload tag.
        fs::remove_file(index_path(&dir)).unwrap();
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.stats().index_rebuilds, 1);
        match store.lookup_program(&key) {
            ProgramLookup::Hit(got) => assert_programs_equal(&got, &program),
            other => panic!("expected hit after rebuild, got {other:?}"),
        }
        assert_eq!(store.contract_count(), 1);
        assert!(store.lookup(&key).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_program_version_reports_stale_not_garbage() {
        let dir = scratch();
        let key = [5u8; 32];
        {
            let store = PersistentStore::open(&dir).unwrap();
            store.append(key, &[func(1, vec![])], &[]).unwrap();
            store.flush().unwrap();
        }
        // Hand-write a program record stamped with a future format
        // version (payload otherwise intact, checksum valid).
        let mut payload = codec::encode_program(&sample_program());
        let bumped = (PROGRAM_FORMAT_VERSION + 1).to_le_bytes();
        payload[1..3].copy_from_slice(&bumped);
        let record = frame_record(&key, &payload);
        OpenOptions::new()
            .append(true)
            .open(segment_path(&dir, 0))
            .unwrap()
            .write_all(&record)
            .unwrap();
        let store = PersistentStore::open(&dir).unwrap();
        assert!(matches!(store.lookup_program(&key), ProgramLookup::Stale));
        let stats = store.stats();
        assert_eq!(stats.program_stale, 1);
        assert_eq!(stats.program_hits, 0);
        assert_eq!(stats.corrupt_records, 0);
        // The contract record next to it is untouched.
        assert!(store.lookup(&key).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_program_record_is_a_miss_not_wrong_data() {
        let dir = scratch();
        let key = [6u8; 32];
        let loc_offset;
        {
            let store = PersistentStore::open(&dir).unwrap();
            store.append_program(key, &sample_program()).unwrap();
            store.flush().unwrap();
            let state = store.inner.state.lock().unwrap();
            loc_offset = state.program_index[&key].offset;
        }
        // Flip one payload byte in place (same length: the flushed
        // index stays trusted and still points at the record).
        let seg = segment_path(&dir, 0);
        let mut bytes = fs::read(&seg).unwrap();
        let target = loc_offset as usize + RECORD_HEADER + 9;
        bytes[target] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();
        let store = PersistentStore::open(&dir).unwrap();
        assert!(matches!(store.lookup_program(&key), ProgramLookup::Miss));
        let stats = store.stats();
        assert_eq!(stats.corrupt_records, 1);
        assert_eq!(stats.program_hits, 0);
        // The poisoned entry is dropped: the next lookup is a plain miss.
        assert!(matches!(store.lookup_program(&key), ProgramLookup::Miss));
        assert_eq!(store.stats().corrupt_records, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn program_payload_truncations_never_misdecode() {
        let payload = codec::encode_program(&sample_program());
        assert!(matches!(
            codec::decode_program(&payload),
            codec::ProgramDecode::Current(_)
        ));
        for cut in 0..payload.len() {
            assert!(
                !matches!(
                    codec::decode_program(&payload[..cut]),
                    codec::ProgramDecode::Current(_)
                ),
                "truncation at {cut} decoded to a program"
            );
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert!(matches!(
            codec::decode_program(&padded),
            codec::ProgramDecode::Malformed
        ));
        // A contract payload handed to the program decoder is malformed,
        // not stale, and vice versa the tag keeps them apart.
        let contract = codec::encode_contract(&[func(1, vec![])], &[]);
        assert!(matches!(
            codec::decode_program(&contract),
            codec::ProgramDecode::Malformed
        ));
        assert!(codec::decode_contract(&payload).is_none());
    }

    #[test]
    fn records_appended_after_mapping_fall_back_to_file_reads() {
        let dir = scratch();
        let store = PersistentStore::open(&dir).unwrap();
        store.append([1u8; 32], &[func(1, vec![])], &[]).unwrap();
        // This lookup creates the segment mapping at its current length.
        assert!(store.lookup(&[1u8; 32]).is_some());
        // Appends past the mapped length must still read back correctly.
        store
            .append([2u8; 32], &[func(2, vec![AbiType::Bool])], &[])
            .unwrap();
        store.append_program([2u8; 32], &sample_program()).unwrap();
        let (got, _) = store.lookup(&[2u8; 32]).unwrap();
        assert_eq!(got[0].params, vec![AbiType::Bool]);
        assert!(matches!(
            store.lookup_program(&[2u8; 32]),
            ProgramLookup::Hit(_)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_store_degrades_instead_of_panicking() {
        use crate::{RecoveryCache, SigRec};
        use sigrec_solc::{compile, CompilerConfig, FunctionSpec, Visibility};

        let dir = scratch();
        let store = PersistentStore::open(&dir).unwrap();
        let key = [1u8; 32];
        store.append(key, &[func(1, vec![])], &[]).unwrap();
        store.append_program(key, &sample_program()).unwrap();
        let holder = store.clone();
        let panicked = std::thread::spawn(move || {
            let _state = holder.inner.state.lock().unwrap();
            panic!("a panic while the store lock is held");
        })
        .join();
        assert!(panicked.is_err() && store.inner.state.is_poisoned());

        // No call panics: lookups miss, writes and the flush fail.
        assert!(store.lookup(&key).is_none());
        assert!(matches!(store.lookup_program(&key), ProgramLookup::Miss));
        assert_eq!(store.contract_count(), 0);
        assert!(store.append([2u8; 32], &[func(2, vec![])], &[]).is_err());
        assert!(store.append_program([2u8; 32], &sample_program()).is_err());
        assert!(store.flush().is_err());
        assert!(
            !index_path(&dir).exists(),
            "a poisoned flush writes no index"
        );
        let stats = store.stats();
        assert_eq!(stats.poisoned_refusals, 6);
        assert_eq!(stats.io_errors, 2);
        assert_eq!((stats.disk_hits, stats.disk_misses), (0, 1));
        assert_eq!((stats.program_hits, stats.program_misses), (0, 1));
        assert_eq!(stats.corrupt_records, 0);

        // A recoverer over the poisoned store answers from memory alone,
        // with the same signatures as one that never had a store.
        let contract = compile(
            &[FunctionSpec::new(
                sigrec_abi::FunctionSignature::parse("transfer(address,uint256)").unwrap(),
                Visibility::External,
            )],
            &CompilerConfig::default(),
        );
        let expected = SigRec::new().recover(&contract.code);
        let sigrec = SigRec::new().with_cache(RecoveryCache::persistent(store.clone()));
        let cold = sigrec.recover(&contract.code);
        let warm = sigrec.recover(&contract.code);
        for got in [&cold, &warm] {
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!((g.selector, &g.params), (e.selector, &e.params));
            }
        }
        let cache = sigrec.cache_stats();
        assert_eq!((cache.contract_hits, cache.contract_misses), (1, 1));
        assert!(sigrec.flush_store().is_err());
        assert_eq!(store.stats().io_errors, 3, "the seal's append failed");

        // The next process rescans and serves what was written before.
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.stats().index_rebuilds, 1);
        assert!(reopened.lookup(&key).is_some());
        assert!(matches!(
            reopened.lookup_program(&key),
            ProgramLookup::Hit(_)
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_keys_keep_the_latest_record() {
        let dir = scratch();
        {
            let store = PersistentStore::open(&dir).unwrap();
            store
                .append([1u8; 32], &[func(1, vec![AbiType::Bool])], &[])
                .unwrap();
            store
                .append([1u8; 32], &[func(1, vec![AbiType::Address])], &[])
                .unwrap();
        }
        let store = PersistentStore::open(&dir).unwrap();
        let (got, _) = store.lookup(&[1u8; 32]).unwrap();
        assert_eq!(got[0].params, vec![AbiType::Address]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
