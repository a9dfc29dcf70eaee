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
//! - **a rebuildable flat index** (`index.flat`): the segment lengths it
//!   covers, then 48-byte entries `key[32] | segment:u32 | offset:u64 |
//!   len:u32` sorted by key, written on [`PersistentStore::flush`]. An
//!   open keeps the file mapped and searches it there, so it builds no
//!   map and its heap does not grow with the store: it checks the header
//!   and walks the entries once, checking that keys strictly ascend and
//!   that each entry lies inside its segment. Keys are keccak256
//!   outputs, so a lookup interpolates on their leading 8 bytes and
//!   bisects after a few probes. Records appended since the open sit in
//!   a small overlay map that lookups consult first, and keys whose
//!   record failed verification in a tombstone set; a flush merges both
//!   into the base in key order and maps the file it wrote. The index is
//!   a pure acceleration structure: a mismatch at open time (new
//!   appends, a crash, a missing file, an entry out of order or past its
//!   segment) triggers a full segment scan, which fills the overlay over
//!   an empty base. Correctness never depends on the index having been
//!   written.
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
//! **Legacy program records.** Stores written while compiled programs
//! were persisted also hold one program record per sealed contract: same
//! framing, same key as the contract, payload starting with the tag
//! byte `0x50`. Nothing reads them any more. A segment scan recognises
//! the tag and skips the record — decoding it as a contract would
//! shadow the real record under the same key — and the index format of
//! that era (`SIGRECI2`, which carried a program section) fails the
//! magic check, so such a store opens by rescan. Sealed segments and
//! the flat index are read through a memory mapping
//! ([`mmap`](crate::mmap)): records are checksum-verified and decoded
//! straight from the mapped bytes, index entries are searched in place,
//! and only owned structures leave the store, so the mapping's lifetime
//! never escapes.
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
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Magic + version stamp opening every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"SIGRECS1";
/// Magic + version stamp opening the index file. "I3" dropped the program
/// entry section that "I2" carried; an older index fails the magic check
/// and is rebuilt by scanning.
const INDEX_MAGIC: &[u8; 8] = b"SIGRECI3";
/// Fixed bytes before a record's payload: key, payload length, checksum.
const RECORD_HEADER: usize = 32 + 4 + 8;
/// Bytes of one index entry: key, segment id, offset, record length.
const INDEX_ENTRY: usize = 32 + 4 + 8 + 4;
/// Interpolation probes a lookup in the flushed index makes before it
/// bisects the rest, so a skewed file stays `O(log n)`. Uniform keys
/// take about 3 probes at a thousand entries and 5 at a million.
const INTERPOLATION_PROBES: u32 = 8;
/// Leading byte of every contract payload; bumped on any codec change so
/// stale records decode to a clean miss instead of garbage.
const PAYLOAD_VERSION: u8 = 1;
/// Leading byte of the program records older stores hold beside their
/// contract records — distinct from any `PAYLOAD_VERSION` a contract
/// record will ever carry, so a scan can tell the two apart and skip it.
const LEGACY_PROGRAM_TAG: u8 = 0x50;
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
    /// Always 0: programs are not persisted. Kept only for
    /// `perfbench/src/run.rs`, which sums it.
    pub program_hits: u64,
    /// Always 0, like `program_hits`.
    pub program_misses: u64,
    /// Always 0, like `program_hits`.
    pub program_stale: u64,
    /// Always 0, like `program_hits`.
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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RecordLoc {
    segment: u32,
    /// Offset of the record *header* within the segment file.
    offset: u64,
    /// Total record length (header + payload).
    len: u32,
}

impl RecordLoc {
    /// Decodes the location half of an index entry (after its key).
    fn from_entry(entry: &[u8]) -> RecordLoc {
        RecordLoc {
            segment: u32::from_le_bytes(entry[32..36].try_into().unwrap()),
            offset: u64::from_le_bytes(entry[36..44].try_into().unwrap()),
            len: u32::from_le_bytes(entry[44..48].try_into().unwrap()),
        }
    }

    /// Encodes an index entry: `key`, then this location.
    fn put_entry(self, out: &mut Vec<u8>, key: &[u8; 32]) {
        out.extend_from_slice(key);
        out.extend_from_slice(&self.segment.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
    }
}

/// The flushed `index.flat`, searched where it is mapped: its entries
/// start `start` bytes into the file and ascend strictly by key. Empty
/// when the store opened by rescan and has not been flushed since.
#[derive(Default)]
struct FlatIndex {
    file: Option<Mapping>,
    start: usize,
}

impl FlatIndex {
    /// The entries, [`INDEX_ENTRY`] bytes each.
    fn entries(&self) -> &[u8] {
        self.file
            .as_ref()
            .map_or(&[], |file| &file.as_slice()[self.start..])
    }

    fn len(&self) -> usize {
        self.entries().len() / INDEX_ENTRY
    }

    /// The location of `key`'s entry. Keys are keccak256 outputs, so
    /// uniform: a prefix gap of `d` (the leading 8 bytes as a number)
    /// holds about `d · n / 2⁶⁴` of the `n` entries. The first probe goes
    /// where that puts the key, each later one that many entries on from
    /// the last probe's prefix, and after [`INTERPOLATION_PROBES`] the
    /// search bisects what is left — multiplies only, and `O(log n)` on
    /// a skewed file.
    fn find(&self, key: &[u8; 32]) -> Option<RecordLoc> {
        let entries = self.entries();
        let n = entries.len() / INDEX_ENTRY;
        let expected = |gap: u64| ((gap as u128 * n as u128) >> 64) as usize;
        let target = key_prefix(key);
        let (mut lo, mut hi) = (0, n);
        let mut guess = expected(target);
        let mut probes = 0;
        while lo < hi {
            let mid = if probes < INTERPOLATION_PROBES {
                probes += 1;
                guess.clamp(lo, hi - 1)
            } else {
                lo + (hi - lo) / 2
            };
            let entry = &entries[mid * INDEX_ENTRY..(mid + 1) * INDEX_ENTRY];
            let probe = key_prefix(entry);
            match probe.cmp(&target).then_with(|| entry[8..32].cmp(&key[8..])) {
                std::cmp::Ordering::Less => {
                    lo = mid + 1;
                    guess = lo + expected(target - probe);
                }
                std::cmp::Ordering::Greater => {
                    hi = mid;
                    guess = mid.saturating_sub(1 + expected(probe - target));
                }
                std::cmp::Ordering::Equal => return Some(RecordLoc::from_entry(entry)),
            }
        }
        None
    }
}

/// The leading 8 bytes of a key (or an index entry) as a number: keys
/// ordered by it come out in key order.
fn key_prefix(key: &[u8]) -> u64 {
    u64::from_be_bytes(key[..8].try_into().unwrap())
}

/// Mutable state behind the store's lock: the key index (the flushed
/// base, the overlay of later appends and the tombstones of records
/// that failed verification), the active append segment, and
/// lazily-opened read handles and mappings.
struct StoreState {
    base: FlatIndex,
    /// Records appended since `base` was written; consulted first.
    overlay: HashMap<[u8; 32], RecordLoc>,
    /// Keys of `base` whose record failed verification and that have not
    /// been appended since: misses until then, and left out of the next
    /// flush. Never in `overlay`.
    tombstones: HashSet<[u8; 32]>,
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

impl StoreState {
    /// Where `key`'s current record is: an append since the base was
    /// written wins, and a tombstone hides the base's entry.
    fn locate(&self, key: &[u8; 32]) -> Option<RecordLoc> {
        if let Some(&loc) = self.overlay.get(key) {
            return Some(loc);
        }
        if self.tombstones.contains(key) {
            return None;
        }
        self.base.find(key)
    }

    /// Drops `key`'s record at `loc`, which failed verification, so the
    /// key misses until it is appended again. A record appended after
    /// the failed read is kept.
    fn forget(&mut self, key: &[u8; 32], loc: RecordLoc) {
        if self.overlay.get(key) == Some(&loc) {
            self.overlay.remove(key);
        } else if self.overlay.contains_key(key) {
            return;
        }
        if self.base.find(key).is_some() {
            self.tombstones.insert(*key);
        }
    }

    /// Distinct keys with a current record.
    fn contract_count(&self) -> usize {
        let fresh = self
            .overlay
            .keys()
            .filter(|key| self.base.find(key).is_none())
            .count();
        self.base.len() - self.tombstones.len() + fresh
    }
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
    /// scan-free: it maps the index and checks it in one pass over its
    /// entries, building no map. Any mismatch — a crash, appends after
    /// the last flush, a deleted index, an entry out of key order or
    /// past its segment — falls back to a full segment scan that rebuilds
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

        let (segments, base, overlay) = match load_index(&dir, &disk_layout) {
            // Fast path: the index covers exactly the bytes on disk, so
            // the last flush postdates the last append — nothing to scan.
            Some(base) => (disk_layout, base, HashMap::new()),
            None => {
                let mut segments = Vec::with_capacity(seg_ids.len());
                let mut scanned: HashMap<[u8; 32], RecordLoc> = HashMap::new();
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
                    scanned.extend(records);
                }
                if !segments.is_empty() || index_path(&dir).exists() {
                    diags.push(StoreDiagnostic::StaleIndex);
                    rebuilds += 1;
                }
                (segments, FlatIndex::default(), scanned)
            }
        };

        let inner = StoreInner {
            dir,
            options,
            state: Mutex::new(StoreState {
                base,
                overlay,
                tombstones: HashSet::new(),
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
        self.state().map_or(0, |state| state.contract_count())
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
            program_hits: 0,
            program_misses: 0,
            program_stale: 0,
            programs_appended: 0,
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
        if let Err(e) = self.append_record(key, &record) {
            self.inner.io_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.inner.records_appended.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_appended
            .fetch_add(record.len() as u64, Ordering::Relaxed);
        Ok(true)
    }

    fn append_record(&self, key: [u8; 32], record: &[u8]) -> io::Result<()> {
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
        state.overlay.insert(key, loc);
        state.tombstones.remove(&key);
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
    /// A record that fails verification or decoding is counted in
    /// [`StoreStats::corrupt_records`] and reported as a miss, and its key
    /// misses from then on until it is appended again (the next flush
    /// leaves it out) — the caller recovers cold and reseals a good
    /// record.
    pub fn lookup(&self, key: &[u8; 32]) -> Option<(Vec<RecoveredFunction>, Vec<Diagnostic>)> {
        let loc = self.state().ok().and_then(|state| state.locate(key));
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
                    state.forget(key, loc);
                }
                None
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
    /// appended record durable and the next open scan-free. The overlay
    /// is merged into the base in key order, tombstoned keys are left
    /// out, and the written file becomes the new base, so the overlay
    /// empties. Called on graceful shutdown; a crash that skips it costs
    /// an index rebuild, never data written before the last sync. A
    /// poisoned store returns an error and writes no index, so the next
    /// open rescans.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.state()?;
        if let Some(f) = state.active.as_mut() {
            f.sync_data()?;
            self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
            state.unsynced = 0;
        }
        let bytes = encode_index(&state);
        let tmp = self.inner.dir.join("index.flat.tmp");
        let final_path = index_path(&self.inner.dir);
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_data()?;
        self.inner.fsyncs.fetch_add(1, Ordering::Relaxed);
        drop(f);
        fs::rename(&tmp, &final_path)?;
        // Until the remap succeeds the old base, overlay and tombstones
        // still describe the store.
        state.base = load_index(&self.inner.dir, &state.segments)
            .ok_or_else(|| io::Error::other("the index just written does not check"))?;
        state.overlay = HashMap::new();
        state.tombstones = HashSet::new();
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
/// intact record), the intact contract records found, and any damage
/// found.
type SegmentScan = (u64, Vec<([u8; 32], RecordLoc)>, Vec<StoreDiagnostic>);

/// Walks one segment, returning its clean length (the end of its last
/// intact record), the contract records it holds, and any damage found.
/// Legacy program records are intact records too, so they count toward
/// the clean length, but they are skipped by their payload's leading
/// byte.
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
        if payload.first() == Some(&LEGACY_PROGRAM_TAG) {
            continue;
        }
        records.push((
            key,
            RecordLoc {
                segment: id,
                offset: start as u64,
                len: (RECORD_HEADER + len as usize) as u32,
            },
        ));
    }
    Ok((clean, records, diags))
}

/// Serialises the index: magic, the segment layout it covers, then the
/// base's entries merged with the overlay's in key order (an overlay
/// entry replaces the base's, a tombstoned key is left out). Sorted, so
/// byte-identical stores write byte-identical indexes.
fn encode_index(state: &StoreState) -> Vec<u8> {
    let segments = &state.segments;
    let count = state.contract_count();
    let mut out = Vec::with_capacity(20 + 12 * segments.len() + INDEX_ENTRY * count);
    out.extend_from_slice(INDEX_MAGIC);
    out.extend_from_slice(&(segments.len() as u32).to_le_bytes());
    for &(id, len) in segments {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(&(count as u64).to_le_bytes());
    let mut fresh: Vec<_> = state.overlay.iter().collect();
    fresh.sort_unstable_by_key(|&(key, _)| key);
    let mut fresh = fresh.into_iter().peekable();
    for entry in state.base.entries().chunks_exact(INDEX_ENTRY) {
        let key: &[u8; 32] = entry[..32].try_into().unwrap();
        while let Some((k, loc)) = fresh.next_if(|&(k, _)| k < key) {
            loc.put_entry(&mut out, k);
        }
        if fresh.peek().is_some_and(|&(k, _)| k == key) || state.tombstones.contains(key) {
            continue;
        }
        out.extend_from_slice(entry);
    }
    for (key, loc) in fresh {
        loc.put_entry(&mut out, key);
    }
    out
}

/// Maps `index.flat` if it exactly describes the on-disk segment layout
/// and checks it without decoding it: the header, the entry count
/// against the file length, and in one pass that keys strictly ascend
/// and every entry lies inside its segment's clean length. Any mismatch
/// (crash, appends since the last flush, manual deletion, damage, an
/// index written by an older format) returns `None` and the caller
/// falls back to the scan.
fn load_index(dir: &Path, segments: &[(u32, u64)]) -> Option<FlatIndex> {
    let file = Mapping::open(&index_path(dir)).ok()?;
    let mut r = codec::Reader::new(file.as_slice());
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
    let count = r.u64()?;
    let entries = r.rest();
    if count.checked_mul(INDEX_ENTRY as u64)? != entries.len() as u64 {
        return None;
    }
    let mut prev = None;
    for entry in entries.chunks_exact(INDEX_ENTRY) {
        // The prefix decides almost every comparison.
        let key = (key_prefix(entry), &entry[8..32]);
        if prev.is_some_and(|prev| prev >= key) {
            return None;
        }
        prev = Some(key);
        let loc = RecordLoc::from_entry(entry);
        let seg = segments
            .binary_search_by_key(&loc.segment, |&(id, _)| id)
            .ok()?;
        if loc.offset.checked_add(loc.len as u64)? > segments[seg].1 {
            return None;
        }
    }
    let start = file.as_slice().len() - entries.len();
    Some(FlatIndex {
        file: Some(file),
        start,
    })
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

        /// The bytes not read yet.
        pub(super) fn rest(&self) -> &'a [u8] {
            &self.buf[self.pos..]
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
        let (got, _) = store.lookup(&[2u8; 32]).unwrap();
        assert_eq!(got[0].params, vec![AbiType::Bool]);
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
        let holder = store.clone();
        let panicked = std::thread::spawn(move || {
            let _state = holder.inner.state.lock().unwrap();
            panic!("a panic while the store lock is held");
        })
        .join();
        assert!(panicked.is_err() && store.inner.state.is_poisoned());

        // No call panics: lookups miss, writes and the flush fail.
        assert!(store.lookup(&key).is_none());
        assert_eq!(store.contract_count(), 0);
        assert!(store.append([2u8; 32], &[func(2, vec![])], &[]).is_err());
        assert!(store.flush().is_err());
        assert!(
            !index_path(&dir).exists(),
            "a poisoned flush writes no index"
        );
        let stats = store.stats();
        assert_eq!(stats.poisoned_refusals, 4);
        assert_eq!(stats.io_errors, 1);
        assert_eq!((stats.disk_hits, stats.disk_misses), (0, 1));
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
        assert_eq!(store.stats().io_errors, 2, "the seal's append failed");

        // The next process rescans and serves what was written before.
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.stats().index_rebuilds, 1);
        assert!(reopened.lookup(&key).is_some());
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

    /// A flushed store in a fresh directory holding one record under
    /// each of `n` keccak256 keys (contract keys are such hashes); record
    /// `i` carries selector `i`.
    fn flushed_store(n: u64) -> (PathBuf, Vec<[u8; 32]>) {
        let dir = scratch();
        let keys: Vec<[u8; 32]> = (0..n)
            .map(|i| sigrec_evm::keccak256(&i.to_le_bytes()))
            .collect();
        let store = PersistentStore::open(&dir).unwrap();
        for (i, key) in keys.iter().enumerate() {
            store
                .append(*key, &[func(i as u32, vec![AbiType::Uint(256)])], &[])
                .unwrap();
        }
        store.flush().unwrap();
        (dir, keys)
    }

    fn selector_of(store: &PersistentStore, key: &[u8; 32]) -> Option<u32> {
        store.lookup(key).map(|(fns, _)| fns[0].selector.as_u32())
    }

    /// `key` one up or one down, as a 256-bit big-endian number.
    fn nudge(key: &[u8; 32], up: bool) -> [u8; 32] {
        let mut key = *key;
        for byte in key.iter_mut().rev() {
            let (next, carry) = if up {
                byte.overflowing_add(1)
            } else {
                byte.overflowing_sub(1)
            };
            *byte = next;
            if !carry {
                break;
            }
        }
        key
    }

    /// Flips the last payload byte of `key`'s current record in its
    /// segment file, in place.
    fn corrupt_on_disk(store: &PersistentStore, key: &[u8; 32]) {
        let loc = store.state().unwrap().locate(key).unwrap();
        let at = loc.offset + loc.len as u64 - 1;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(segment_path(store.dir(), loc.segment))
            .unwrap();
        let mut byte = [0u8];
        file.seek(SeekFrom::Start(at)).unwrap();
        file.read_exact(&mut byte).unwrap();
        file.seek(SeekFrom::Start(at)).unwrap();
        file.write_all(&[byte[0] ^ 0xff]).unwrap();
    }

    #[test]
    fn the_mapped_index_answers_every_key_and_misses_between_them() {
        let (dir, keys) = flushed_store(300);
        let store = PersistentStore::open(&dir).unwrap();
        assert!(store.open_diagnostics().is_empty());
        assert_eq!(store.stats().index_rebuilds, 0);
        assert_eq!(store.contract_count(), keys.len());
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let (smallest, largest) = (sorted[0], sorted[sorted.len() - 1]);
        let position = |key: &[u8; 32]| keys.iter().position(|k| k == key).unwrap() as u32;
        assert_eq!(selector_of(&store, &smallest), Some(position(&smallest)));
        assert_eq!(selector_of(&store, &largest), Some(position(&largest)));
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(selector_of(&store, key), Some(i as u32), "key {i}");
        }
        // Below the smallest, above the largest, just past every key
        // (before the next one), and every key with its last bit
        // flipped (same leading bytes, so the search compares the rest).
        let mut absent = vec![
            [0; 32],
            nudge(&smallest, false),
            nudge(&largest, true),
            [0xff; 32],
        ];
        for key in &sorted {
            absent.push(nudge(key, true));
            let mut sibling = *key;
            sibling[31] ^= 1;
            absent.push(sibling);
        }
        for key in &absent {
            assert!(store.lookup(key).is_none(), "{key:02x?} answered");
        }
        let stats = store.stats();
        assert_eq!(stats.disk_hits, 2 + keys.len() as u64);
        assert_eq!(stats.disk_misses, absent.len() as u64);
        assert_eq!(stats.corrupt_records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_skewed_index_still_answers_every_key() {
        // Keys that share their leading 8 bytes leave interpolation
        // nothing to go on; the search bisects after its probes.
        let dir = scratch();
        let keys: Vec<[u8; 32]> = (0..200u64)
            .map(|i| {
                let mut key = [0x42; 32];
                key[24..].copy_from_slice(&(3 * i + 1).to_be_bytes());
                key
            })
            .collect();
        {
            let store = PersistentStore::open(&dir).unwrap();
            for (i, key) in keys.iter().enumerate() {
                store.append(*key, &[func(i as u32, vec![])], &[]).unwrap();
            }
            store.flush().unwrap();
        }
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.stats().index_rebuilds, 0);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(selector_of(&store, key), Some(i as u32), "key {i}");
            assert!(store.lookup(&nudge(key, true)).is_none());
            assert!(store.lookup(&nudge(key, false)).is_none());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_append_after_the_open_shadows_the_base_through_a_flush() {
        let (dir, keys) = flushed_store(200);
        let store = PersistentStore::open(&dir).unwrap();
        let fresh = sigrec_evm::keccak256(b"not in the base");
        store
            .append(keys[7], &[func(0xbeef, vec![AbiType::Bool])], &[])
            .unwrap();
        store.append(fresh, &[func(0xf00d, vec![])], &[]).unwrap();
        assert_eq!(selector_of(&store, &keys[7]), Some(0xbeef));
        assert_eq!(selector_of(&store, &keys[8]), Some(8));
        assert_eq!(store.contract_count(), 201, "a shadowed key counts once");
        store.flush().unwrap();
        assert!(
            store.state().unwrap().overlay.is_empty(),
            "the flush moved the overlay into the base"
        );
        assert_eq!(selector_of(&store, &keys[7]), Some(0xbeef));
        assert_eq!(store.contract_count(), 201);
        drop(store);

        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.stats().index_rebuilds, 0);
        assert_eq!(reopened.contract_count(), 201);
        assert_eq!(selector_of(&reopened, &keys[7]), Some(0xbeef));
        assert_eq!(selector_of(&reopened, &fresh), Some(0xf00d));
        assert_eq!(selector_of(&reopened, &keys[8]), Some(8));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_corrupted_in_place_misses_until_appended_and_leaves_the_index() {
        let (dir, keys) = flushed_store(200);
        let (kept, dropped) = (keys[42], keys[43]);
        let store = PersistentStore::open(&dir).unwrap();
        // Corrupted before any read maps the segment.
        corrupt_on_disk(&store, &kept);
        corrupt_on_disk(&store, &dropped);
        for key in [kept, dropped] {
            assert!(store.lookup(&key).is_none());
            assert!(store.lookup(&key).is_none(), "the tombstone hides it");
        }
        assert_eq!(store.stats().corrupt_records, 2, "each record read once");
        assert_eq!(store.contract_count(), 198);
        assert_eq!(selector_of(&store, &keys[44]), Some(44));
        store.append(kept, &[func(0x42, vec![])], &[]).unwrap();
        assert_eq!(selector_of(&store, &kept), Some(0x42));
        assert_eq!(store.contract_count(), 199);
        store.flush().unwrap();
        drop(store);

        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(reopened.stats().index_rebuilds, 0);
        assert_eq!(reopened.contract_count(), 199);
        assert!(
            reopened.state().unwrap().base.find(&dropped).is_none(),
            "the flush left the corrupt record out"
        );
        assert!(reopened.lookup(&dropped).is_none());
        assert_eq!(selector_of(&reopened, &kept), Some(0x42));
        assert_eq!(reopened.stats().corrupt_records, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_read_keeps_a_record_appended_since() {
        let dir = scratch();
        let store = PersistentStore::open(&dir).unwrap();
        store.append([1; 32], &[func(1, vec![])], &[]).unwrap();
        let read = store.state().unwrap().locate(&[1; 32]).unwrap();
        store.append([1; 32], &[func(2, vec![])], &[]).unwrap();
        // What a lookup does when the record it located fails to verify
        // after another caller appended the key again.
        store.state().unwrap().forget(&[1; 32], read);
        assert_eq!(selector_of(&store, &[1; 32]), Some(2));
        assert_eq!(store.contract_count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contract_count_is_exact_across_base_overlay_and_tombstones() {
        let (dir, keys) = flushed_store(100);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.contract_count(), 100);
        corrupt_on_disk(&store, &keys[10]);
        corrupt_on_disk(&store, &keys[11]);
        // Two shadowed base keys count once each, three fresh keys add
        // three.
        for key in &keys[..2] {
            store.append(*key, &[func(1, vec![])], &[]).unwrap();
        }
        for i in 0..3u8 {
            store.append([i; 32], &[func(2, vec![])], &[]).unwrap();
        }
        assert_eq!(store.contract_count(), 103);
        // Each corrupt read leaves a tombstone.
        assert!(store.lookup(&keys[10]).is_none());
        assert!(store.lookup(&keys[11]).is_none());
        assert_eq!(store.contract_count(), 101);
        // An append lifts one.
        store.append(keys[10], &[func(3, vec![])], &[]).unwrap();
        assert_eq!(store.contract_count(), 102);
        store.flush().unwrap();
        assert_eq!(store.contract_count(), 102);
        assert_eq!(PersistentStore::open(&dir).unwrap().contract_count(), 102);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_index_is_not_trusted() {
        let (template, keys) = flushed_store(150);
        let index = fs::read(index_path(&template)).unwrap();
        let entry = |i: usize| index.len() - (keys.len() - i) * INDEX_ENTRY;
        let mut swapped = index.clone();
        let (a, b) = (entry(3), entry(4));
        swapped[a..b + INDEX_ENTRY].rotate_left(INDEX_ENTRY);
        // Entry 5 keeps its length but ends one byte past the segment.
        let seg_len = fs::metadata(segment_path(&template, 0)).unwrap().len();
        let mut past = index.clone();
        let at = entry(5);
        let len = u32::from_le_bytes(past[at + 44..at + 48].try_into().unwrap());
        past[at + 36..at + 44].copy_from_slice(&(seg_len - len as u64 + 1).to_le_bytes());
        // One entry fewer than the header counts.
        let short = index[..index.len() - INDEX_ENTRY].to_vec();
        for (damage, bytes) in [("swapped", swapped), ("past", past), ("short", short)] {
            let dir = scratch();
            fs::create_dir_all(&dir).unwrap();
            fs::copy(segment_path(&template, 0), segment_path(&dir, 0)).unwrap();
            fs::write(index_path(&dir), &bytes).unwrap();
            let store = PersistentStore::open(&dir).unwrap();
            assert_eq!(
                store.open_diagnostics(),
                [StoreDiagnostic::StaleIndex],
                "{damage}"
            );
            assert_eq!(store.stats().index_rebuilds, 1, "{damage}");
            assert_eq!(store.contract_count(), keys.len(), "{damage}");
            for (i, key) in keys.iter().enumerate() {
                assert_eq!(
                    selector_of(&store, key),
                    Some(i as u32),
                    "{damage}: key {i}"
                );
            }
            assert_eq!(store.stats().corrupt_records, 0, "{damage}");
            fs::remove_dir_all(&dir).unwrap();
        }
        fs::remove_dir_all(&template).unwrap();
    }
}
