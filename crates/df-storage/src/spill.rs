//! The out-of-core partition store ("memory spillover") and the block frame.
//!
//! Paper §3.3, storage layer: "MODIN's modular storage layer supports both main memory
//! and persistent storage out-of-core …, allowing intermediate dataframes to exceed
//! main-memory limitations while not throwing memory errors, unlike pandas. To maintain
//! pandas semantics, the dataframe partitions are freed from persistent storage once a
//! session ends."
//!
//! [`SpillStore`] keeps partitions in memory up to a byte budget; when the budget is
//! exceeded the least-recently-used partitions are written to spill files in a
//! session-scoped temporary directory and transparently re-loaded on access. Dropping
//! the store removes its directory, matching the "freed once a session ends" semantics.
//!
//! A slot holds a [`StoredPart`] — a row-addressable [`DataFrame`] (an operator's
//! result) or a typed [`ColumnBlock`] (what ingest checks in). Either is written as
//! the same **block frame**, a self-delimiting binary encoding of typed columns, and
//! every frame reads back as a block. The frame is *lossless*: a spilled partition
//! reads back cell-for-cell and schema-slot-for-schema-slot identical (floats by bit
//! pattern, so NaN payloads and `-0.0` survive; un-induced schema slots stay
//! un-induced), so engines may spill untyped columns without schema induction being
//! forced on reload. The same bytes are the process backend's band payload
//! ([`crate::wire`]). No file outlives its store, so there is one format, no version
//! field and no fallback reader.
//!
//! # Frame layout
//!
//! All integers are little-endian. `len` is a `u64` byte length or element count.
//!
//! | offset | size | field |
//! |---|---|---|
//! | 0 | 8 | magic `rfblock\n` |
//! | 8 | 8 | `payload_len`: bytes after the header (`u64`) |
//! | 16 | 8 | [`frame_checksum`] of the payload (`u64`) |
//! | 24 | 8 | `n_rows` (`u64`) |
//! | 32 | 8 | `n_cols` (`u64`) |
//! | 40 | … | row labels: one *column* of `n_rows` entries |
//! | … | … | column labels: one *column* of `n_cols` entries |
//! | … | … | `n_cols` domain slots: `len` + domain name, empty = not yet induced |
//! | … | … | `n_cols` data *columns* of `n_rows` entries |
//!
//! A *column* of `n` entries is a layout tag byte and a body mirroring
//! [`ColumnData`]; null slots hold the layout's default value and are masked by the
//! validity words (`n.div_ceil(64)` × `u64`, bit `i` set = row `i` holds a value):
//!
//! | tag | layout | body |
//! |---|---|---|
//! | 0 | cells | `n` tagged *cells* (mixed or composite columns) |
//! | 1 | int | validity, `n` × `i64` |
//! | 2 | float | validity, `n` × `f64::to_bits` as `u64` |
//! | 3 | bool | validity, `n` × `u8` (0 or 1) |
//! | 4 | str | validity, `n` × (`len`, UTF-8 bytes) |
//! | 5 | dict | validity, `n` × `u32` codes, `len` entries, entries × (`len`, UTF-8 bytes) |
//!
//! A *cell* is a tag byte and a value: 0 null · 1 str (`len`, bytes) · 2 int (`i64`)
//! · 3 float (bits as `u64`) · 4 bool (`u8`) · 5 list (`len`, cells; nested at most
//! 64 deep). Band-task descriptors (`df-engine`'s `backend::task`) carry their literal
//! cells in this same encoding through [`ByteWriter`] / [`ByteReader`].
//!
//! Decoding is total: [`decode_part`] verifies the frame's length and checksum first,
//! then checks every declared length and count against the bytes that remain before
//! allocating for it, so truncation, bit-flips and hostile frames all surface as a
//! typed [`DfError::SpillCorruption`] raised where the fault is detected — never a
//! panic, and never an allocation larger than a small multiple of the input.
//!
//! All store I/O is failpoint-instrumented (`spill.write`, `spill.read` — see
//! `df_types::fail`) and transient read/write faults are retried under the store's
//! [`RetryPolicy`] before surfacing.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use df_types::cell::Cell;
use df_types::domain::Domain;
use df_types::error::{DfError, DfResult};
use df_types::fail::{self, FailAction};
use df_types::labels::Labels;
use df_types::RetryPolicy;
use df_types::{ColumnData, Validity};

use df_core::columnar::ColumnBlock;
use df_core::dataframe::{Column, DataFrame};

/// Identifier of a partition held by a [`SpillStore`].
pub type PartitionId = u64;

/// Statistics describing the store's behaviour, used by tests, the engine's stats
/// surface and the benchmark's `spill.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Partitions currently resident in memory.
    pub in_memory: usize,
    /// Partitions currently only on disk.
    pub spilled: usize,
    /// Total spill-out events since the store was created.
    pub spill_outs: u64,
    /// Total load-back events since the store was created.
    pub load_backs: u64,
    /// Approximate bytes currently held in memory.
    pub memory_bytes: usize,
    /// High-water mark of resident bytes, sampled after every insertion *before* the
    /// budget is enforced. By construction it can exceed the budget by at most the
    /// partition being inserted, per concurrently inserting thread: with a single
    /// writer the bound is `budget + max_insert_bytes`; with `T` writers each can
    /// have one insertion in flight ahead of its enforcement sweep, so the bound is
    /// `budget + T * max_insert_bytes`.
    pub peak_memory_bytes: usize,
    /// The largest single partition ever inserted. Together with
    /// [`SpillStats::peak_memory_bytes`] this makes the out-of-core acceptance bound
    /// checkable: `peak_memory_bytes <= budget + writers * max_insert_bytes`.
    pub max_insert_bytes: usize,
    /// Transient-fault retries performed by the store's [`RetryPolicy`] (a retry that
    /// ultimately succeeds still counts — this is attempts beyond the first).
    pub retries: u64,
}

/// What one store slot physically holds: a row-addressable frame (an operator's
/// result) or a typed column block (what ingest checks in, and what every spilled
/// slot reloads as). Either form decodes to the identical [`DataFrame`] on read; the
/// block form is smaller in memory (honest typed accounting).
#[derive(Debug, Clone)]
pub enum StoredPart {
    /// A row-addressable tagged-cell frame.
    Frame(DataFrame),
    /// A typed column block.
    Block(ColumnBlock),
}

impl StoredPart {
    /// Honest in-memory footprint of this form.
    pub(crate) fn approx_size_bytes(&self) -> usize {
        match self {
            StoredPart::Frame(frame) => frame.approx_size_bytes(),
            StoredPart::Block(block) => block.approx_size_bytes(),
        }
    }

    /// Decode to a row-addressable frame (cloning a frame, decoding a block).
    pub fn to_frame(&self) -> DataFrame {
        match self {
            StoredPart::Frame(frame) => frame.clone(),
            StoredPart::Block(block) => block.to_frame(),
        }
    }

    /// Consuming form of [`StoredPart::to_frame`]: a frame moves out copy-free.
    pub fn into_frame(self) -> DataFrame {
        match self {
            StoredPart::Frame(frame) => frame,
            StoredPart::Block(block) => block.to_frame(),
        }
    }
}

struct Slot {
    /// The resident copy. Held through an `Arc` so a spill can serialise the part
    /// without taking it out of the slot (concurrent `get`s keep working) and without
    /// holding the map lock across file IO.
    part: Option<Arc<StoredPart>>,
    spill_path: Option<PathBuf>,
    approx_bytes: usize,
    last_touch: u64,
}

/// The lock-guarded state: the slot map plus a running total of resident bytes, so
/// budget checks and peak sampling are O(1) per operation instead of re-summing the
/// whole map under the lock on every insert.
#[derive(Default)]
struct Inner {
    slots: HashMap<PartitionId, Slot>,
    resident_bytes: usize,
}

/// An in-memory partition store with spill-to-disk overflow.
pub struct SpillStore {
    memory_budget_bytes: usize,
    directory: PathBuf,
    clock: AtomicU64,
    next_id: AtomicU64,
    inner: Mutex<Inner>,
    spill_seq: AtomicU64,
    spill_outs: AtomicU64,
    load_backs: AtomicU64,
    peak_bytes: AtomicUsize,
    max_insert_bytes: AtomicUsize,
    retry: RetryPolicy,
    retries: AtomicU64,
}

impl SpillStore {
    /// Create a store with the given in-memory byte budget. Spill files live under a
    /// fresh subdirectory of the system temp dir.
    pub fn new(memory_budget_bytes: usize) -> DfResult<Self> {
        // A process-global counter keeps concurrently created stores from colliding
        // on a directory name (the clock alone is not unique enough — one store's
        // Drop would delete the other's spill files).
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        // Once per process, sweep up spill directories orphaned by crashed prior
        // runs — their Drop never ran, so nobody else will.
        static ORPHAN_GC: std::sync::Once = std::sync::Once::new();
        ORPHAN_GC.call_once(|| {
            gc_orphaned_spill_dirs();
        });
        let directory = std::env::temp_dir().join(format!(
            "rustframe-spill-{}-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ));
        std::fs::create_dir_all(&directory).map_err(|err| {
            DfError::spill_io(
                "spill.dir",
                format!(
                    "cannot create spill directory {}: {err}",
                    directory.display()
                ),
                false,
            )
        })?;
        Ok(SpillStore {
            memory_budget_bytes,
            directory,
            clock: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
            spill_seq: AtomicU64::new(0),
            spill_outs: AtomicU64::new(0),
            load_backs: AtomicU64::new(0),
            peak_bytes: AtomicUsize::new(0),
            max_insert_bytes: AtomicUsize::new(0),
            retry: RetryPolicy::default(),
            retries: AtomicU64::new(0),
        })
    }

    /// A store that effectively never spills (large budget) — used when out-of-core
    /// behaviour is not under test.
    pub fn unbounded() -> DfResult<Self> {
        SpillStore::new(usize::MAX / 2)
    }

    /// The directory this store's spill files live under. Exposed so fault-injection
    /// tests can corrupt files on disk and assert the typed recovery behaviour.
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// Insert a partition, spilling older partitions if the memory budget is exceeded.
    pub fn put(&self, frame: DataFrame) -> DfResult<PartitionId> {
        self.put_part(StoredPart::Frame(frame))
    }

    /// Insert an already-encoded typed column block. The block stays columnar in the
    /// slot (smaller resident footprint); reads decode it to the identical frame on
    /// demand.
    pub fn put_block(&self, block: ColumnBlock) -> DfResult<PartitionId> {
        self.put_part(StoredPart::Block(block))
    }

    fn put_part(&self, part: StoredPart) -> DfResult<PartitionId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let approx_bytes = part.approx_size_bytes();
        self.max_insert_bytes
            .fetch_max(approx_bytes, Ordering::Relaxed);
        let touch = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut inner = self.inner.lock();
            inner.slots.insert(
                id,
                Slot {
                    part: Some(Arc::new(part)),
                    spill_path: None,
                    approx_bytes,
                    last_touch: touch,
                },
            );
            inner.resident_bytes += approx_bytes;
            self.note_peak(&inner);
        }
        self.enforce_budget()?;
        Ok(id)
    }

    /// Fetch a partition, transparently loading it back from disk if it was spilled.
    pub fn get(&self, id: PartitionId) -> DfResult<DataFrame> {
        let touch = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        let slot = inner
            .slots
            .get_mut(&id)
            .ok_or_else(|| DfError::internal(format!("unknown partition id {id}")))?;
        slot.last_touch = touch;
        if let Some(part) = &slot.part {
            return Ok(part.to_frame());
        }
        let path = slot
            .spill_path
            .clone()
            .ok_or_else(|| DfError::internal("partition has neither memory nor spill copy"))?;
        drop(inner);
        let part = Arc::new(self.read_part_retrying(&path)?);
        self.load_backs.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.slots.get_mut(&id) {
            let approx_bytes = part.approx_size_bytes();
            let newly_resident = slot.part.is_none();
            slot.part = Some(Arc::clone(&part));
            slot.approx_bytes = approx_bytes;
            if newly_resident {
                inner.resident_bytes += approx_bytes;
            }
            self.note_peak(&inner);
        }
        drop(inner);
        self.enforce_budget()?;
        Ok(Arc::try_unwrap(part)
            .map(StoredPart::into_frame)
            .unwrap_or_else(|shared| shared.to_frame()))
    }

    /// Fetch a partition *and* remove it from the store: the consuming counterpart of
    /// [`SpillStore::get`] for callers that will not come back. A resident frame is
    /// moved out without a copy; a spilled one is read back and its file deleted.
    pub fn take(&self, id: PartitionId) -> DfResult<DataFrame> {
        let slot = {
            let mut inner = self.inner.lock();
            let slot = inner
                .slots
                .remove(&id)
                .ok_or_else(|| DfError::internal(format!("unknown partition id {id}")))?;
            if slot.part.is_some() {
                inner.resident_bytes = inner.resident_bytes.saturating_sub(slot.approx_bytes);
            }
            slot
        };
        if let Some(part) = slot.part {
            if let Some(path) = slot.spill_path {
                std::fs::remove_file(path).ok();
            }
            return Ok(Arc::try_unwrap(part)
                .map(StoredPart::into_frame)
                .unwrap_or_else(|shared| shared.to_frame()));
        }
        let path = slot
            .spill_path
            .ok_or_else(|| DfError::internal("partition has neither memory nor spill copy"))?;
        let part = self.read_part_retrying(&path)?;
        self.load_backs.fetch_add(1, Ordering::Relaxed);
        std::fs::remove_file(path).ok();
        Ok(part.into_frame())
    }

    /// Load a spill file back, retrying transient faults under the store's policy.
    /// Permanent I/O faults and checksum mismatches surface on the first attempt.
    fn read_part_retrying(&self, path: &Path) -> DfResult<StoredPart> {
        self.retry.run(|attempt| {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            read_spill_part(path)
        })
    }

    /// Remove a partition entirely (memory and disk).
    pub fn remove(&self, id: PartitionId) -> DfResult<()> {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.slots.remove(&id) {
            if slot.part.is_some() {
                inner.resident_bytes = inner.resident_bytes.saturating_sub(slot.approx_bytes);
            }
            if let Some(path) = slot.spill_path {
                std::fs::remove_file(path).ok();
            }
        }
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> SpillStats {
        let inner = self.inner.lock();
        let mut stats = SpillStats {
            spill_outs: self.spill_outs.load(Ordering::Relaxed),
            load_backs: self.load_backs.load(Ordering::Relaxed),
            peak_memory_bytes: self.peak_bytes.load(Ordering::Relaxed),
            max_insert_bytes: self.max_insert_bytes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            ..SpillStats::default()
        };
        for slot in inner.slots.values() {
            if slot.part.is_some() {
                stats.in_memory += 1;
            } else {
                stats.spilled += 1;
            }
        }
        stats.memory_bytes = inner.resident_bytes;
        stats
    }

    /// Record the resident high-water mark. Called with the map lock held, right after
    /// an insertion and before the budget sweep, so the reported peak is the honest
    /// maximum the store ever held at once.
    fn note_peak(&self, inner: &Inner) {
        self.peak_bytes
            .fetch_max(inner.resident_bytes, Ordering::Relaxed);
    }

    /// Spill least-recently-used partitions until the memory budget is respected.
    fn enforce_budget(&self) -> DfResult<()> {
        loop {
            let victim = {
                let inner = self.inner.lock();
                if inner.resident_bytes <= self.memory_budget_bytes {
                    return Ok(());
                }
                // Pick the least recently used resident partition.
                inner
                    .slots
                    .iter()
                    .filter(|(_, s)| s.part.is_some())
                    .min_by_key(|(_, s)| s.last_touch)
                    .map(|(&id, _)| id)
            };
            let Some(victim) = victim else {
                return Ok(());
            };
            self.spill_one(victim)?;
        }
    }

    /// Spill one partition. The frame stays visible in its slot (via the shared
    /// `Arc`) while the spill file is written without the lock, so concurrent `get`s
    /// never observe a partition that is neither in memory nor on disk; the resident
    /// copy is released only once the file safely exists — and only if the slot still
    /// holds the very frame that was serialised (a concurrent reload swaps the `Arc`,
    /// which the pointer comparison detects). A slot's spill file is written at most
    /// once: stored frames are immutable, so re-spilling a reloaded partition just
    /// releases the resident copy, and an existing spill file is never replaced or
    /// deleted while readers may hold its path — files die only with their slot (or
    /// the store).
    fn spill_one(&self, id: PartitionId) -> DfResult<()> {
        let (part, already_on_disk) = {
            let inner = self.inner.lock();
            match inner.slots.get(&id) {
                Some(slot) => (slot.part.clone(), slot.spill_path.is_some()),
                None => return Ok(()),
            }
        };
        let Some(part) = part else { return Ok(()) };
        if already_on_disk {
            // A reloaded partition: its spill file is still valid, so spilling is
            // just dropping the resident copy (guarded by the same Arc identity
            // check — a fresh reload means the slot is hot and keeps its part).
            let mut inner = self.inner.lock();
            if let Some(slot) = inner.slots.get_mut(&id) {
                if slot.part.as_ref().is_some_and(|p| Arc::ptr_eq(p, &part)) {
                    let released = slot.approx_bytes;
                    slot.part = None;
                    inner.resident_bytes = inner.resident_bytes.saturating_sub(released);
                    self.spill_outs.fetch_add(1, Ordering::Relaxed);
                }
            }
            return Ok(());
        }
        let seq = self.spill_seq.fetch_add(1, Ordering::Relaxed);
        let path = self.directory.join(format!("part-{id}-{seq}.spill"));
        self.retry.run(|attempt| {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            write_spill_part(&part, &path)
        })?;
        let mut inner = self.inner.lock();
        let installed = match inner.slots.get_mut(&id) {
            // Install only if the slot still holds the serialised part AND no other
            // racer installed a file first — never displace a path a reader may be
            // holding.
            Some(slot)
                if slot.spill_path.is_none()
                    && slot.part.as_ref().is_some_and(|p| Arc::ptr_eq(p, &part)) =>
            {
                let released = slot.approx_bytes;
                slot.part = None;
                slot.spill_path = Some(path.clone());
                inner.resident_bytes = inner.resident_bytes.saturating_sub(released);
                true
            }
            _ => false,
        };
        drop(inner);
        if installed {
            self.spill_outs.fetch_add(1, Ordering::Relaxed);
        } else {
            // The slot vanished, was reloaded, or another racer installed its file
            // while we were writing: this attempt's file is dead weight.
            std::fs::remove_file(path).ok();
        }
        Ok(())
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        // Partitions are freed from persistent storage once the session ends. This is
        // deliberately lock-free and best-effort: it runs even when the store is
        // being torn down after a caught worker panic (parking_lot locks never
        // poison, and nothing here can panic short of an allocator failure), so a
        // crashed statement does not leak its spill files. Directories that never
        // get here — the whole process died — are reclaimed by the startup sweep in
        // [`gc_orphaned_spill_dirs`].
        std::fs::remove_dir_all(&self.directory).ok();
    }
}

/// Best-effort removal of `rustframe-spill-*` temp directories orphaned by crashed
/// prior runs. A directory is reclaimed only when its embedded pid provably no longer
/// exists (probed via `/proc/<pid>`); on systems without `/proc`, or for names that
/// do not parse, nothing is touched. Runs once per process from [`SpillStore::new`];
/// public so the lifecycle test can exercise it directly. Returns the number of
/// directories removed.
pub(crate) fn gc_orphaned_spill_dirs() -> usize {
    if !Path::new("/proc").is_dir() {
        return 0;
    }
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return 0;
    };
    let own_pid = std::process::id();
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix("rustframe-spill-") else {
            continue;
        };
        let Some(pid) = rest.split('-').next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if pid == own_pid || Path::new("/proc").join(pid.to_string()).exists() {
            continue;
        }
        if std::fs::remove_dir_all(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

// ---------------------------------------------------------------------------
// The block frame (layout table in the module docs)
// ---------------------------------------------------------------------------

/// The first eight bytes of every frame.
const MAGIC: [u8; 8] = *b"rfblock\n";

/// Bytes in the fixed frame header: magic, payload length, payload checksum.
pub const FRAME_HEADER_LEN: usize = 24;

/// How deep `Cell::List` values may nest inside a frame. The cell decoder recurses
/// once per level, so without a bound a hostile frame of nothing but list tags could
/// exhaust the stack.
const MAX_LIST_DEPTH: usize = 64;

const TAG_CELLS: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_DICT: u8 = 5;

/// The frame's integrity checksum: FNV-1a-style, 64-bit, over the raw payload bytes,
/// folded a machine word at a time. Each 8-byte little-endian chunk (and the
/// zero-padded tail, with its length mixed in so padding cannot collide) is XORed
/// into the state and multiplied by the FNV prime. Word folding keeps the serial
/// multiply chain 8x shorter than byte-wise FNV-1a — the integrity check must not
/// dominate the spill path it protects. Every step is a bijection of the state, so
/// any change confined to one word always changes the sum. Plenty to catch the
/// truncation/bit-rot class of faults (this is not an adversarial MAC).
pub fn frame_checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        hash = (hash ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        hash = (hash ^ u64::from_le_bytes(word)).wrapping_mul(PRIME);
        hash ^= tail.len() as u64;
    }
    hash
}

/// Classify an OS error for the retry policy: interrupted/timed-out reads are worth
/// re-attempting, everything else (ENOSPC, ENOENT, EACCES, …) is permanent.
fn io_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

/// Flip every bit of the middle byte of an encoded frame — the `corrupt` failpoint's
/// bit-rot model. The checksum was taken over the original bytes, so the mangled
/// frame is guaranteed to fail verification on load-back (a flipped header byte
/// breaks the magic, the length or the stored sum instead). Public so the process
/// backend's chaos arm can reuse the same model on wire frames.
pub fn mangle_payload(frame: &mut [u8]) {
    if let Some(byte) = frame.get_mut(frame.len() / 2) {
        *byte = !*byte;
    }
}

/// Little-endian writer for frame payloads and band-task descriptors; the encoding
/// of each value is given in the module docs.
#[derive(Debug, Default)]
pub struct ByteWriter {
    out: Vec<u8>,
}

impl ByteWriter {
    /// One raw byte.
    pub(crate) fn u8(&mut self, value: u8) {
        self.out.push(value);
    }

    /// A `u64`.
    pub fn u64(&mut self, value: u64) {
        self.out.extend_from_slice(&value.to_le_bytes());
    }

    /// A count, byte length or offset, as a `u64`.
    pub fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// A boolean, as one 0/1 byte.
    pub fn bool(&mut self, value: bool) {
        self.u8(u8::from(value));
    }

    /// A float, by bit pattern.
    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, value: &str) {
        self.count(value.len());
        self.out.extend_from_slice(value.as_bytes());
    }

    /// One tagged cell.
    pub fn cell(&mut self, cell: &Cell) {
        match cell {
            Cell::Null => self.u8(0),
            Cell::Str(s) => {
                self.u8(1);
                self.str(s);
            }
            Cell::Int(v) => {
                self.u8(2);
                self.out.extend_from_slice(&v.to_le_bytes());
            }
            Cell::Float(v) => {
                self.u8(3);
                self.f64(*v);
            }
            Cell::Bool(b) => {
                self.u8(4);
                self.bool(*b);
            }
            Cell::List(items) => {
                self.u8(5);
                self.cells(items);
            }
        }
    }

    /// A count-prefixed run of items, each written by `item`.
    pub fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.count(items.len());
        for it in items {
            item(self, it);
        }
    }

    /// A count-prefixed run of tagged cells.
    pub fn cells(&mut self, cells: &[Cell]) {
        self.list(cells, Self::cell);
    }

    /// Fixed-width little-endian values, back to back.
    fn lanes<T: Copy, const N: usize>(&mut self, values: &[T], to: fn(T) -> [u8; N]) {
        self.out.reserve(values.len() * N);
        for value in values {
            self.out.extend_from_slice(&to(*value));
        }
    }

    /// What every typed layout starts with: its tag and the validity words.
    fn typed_head(&mut self, tag: u8, validity: &Validity) {
        self.u8(tag);
        self.lanes(validity.words(), u64::to_le_bytes);
    }

    /// One column in the layout it already has.
    fn column(&mut self, data: &ColumnData) {
        match data {
            ColumnData::Cells(cells) => self.tagged_cells(cells),
            ColumnData::Int { values, validity } => {
                self.typed_head(TAG_INT, validity);
                self.lanes(values, i64::to_le_bytes);
            }
            ColumnData::Float { values, validity } => {
                self.typed_head(TAG_FLOAT, validity);
                self.lanes(values, |v| v.to_bits().to_le_bytes());
            }
            ColumnData::Bool { values, validity } => {
                self.typed_head(TAG_BOOL, validity);
                self.lanes(values, |b| [u8::from(b)]);
            }
            ColumnData::Str { values, validity } => {
                self.typed_head(TAG_STR, validity);
                for s in values {
                    self.str(s);
                }
            }
            ColumnData::Dict {
                codes,
                dict,
                validity,
            } => {
                self.typed_head(TAG_DICT, validity);
                self.lanes(codes, u32::to_le_bytes);
                self.list(dict, |w, s| w.str(s));
            }
        }
    }

    /// The fallback layout: the column's cells as they are, no count (the frame's
    /// shape gives it).
    fn tagged_cells(&mut self, cells: &[Cell]) {
        self.u8(TAG_CELLS);
        for cell in cells {
            self.cell(cell);
        }
    }

    /// A column still held as tagged cells (a frame's column, a label vector): probe
    /// for its typed layout — one column-sized temporary, dropped before the next
    /// column — and write that; columns without one go out cell by cell.
    fn cells_column(&mut self, cells: &[Cell], domain: Option<&Domain>) {
        match ColumnData::from_cells_typed(cells, domain) {
            Some(typed) => self.column(&typed),
            None => self.tagged_cells(cells),
        }
    }

    /// Shape, both label vectors and the per-column domain slots.
    fn block_head(
        &mut self,
        row_labels: &Labels,
        col_labels: &Labels,
        domains: impl Iterator<Item = Option<Domain>>,
    ) {
        self.count(row_labels.len());
        self.count(col_labels.len());
        self.cells_column(row_labels.as_slice(), None);
        self.cells_column(col_labels.as_slice(), None);
        for domain in domains {
            self.str(domain.map_or("", |d| d.name()));
        }
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Bounds-checked cursor over untrusted bytes — a frame payload or a band-task
/// descriptor. Every read is checked against the bytes that remain, every element
/// count against the bytes its elements need at minimum, and every failure is a
/// [`DfError::SpillCorruption`] tagged with the reader's site and byte position.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    site: &'a str,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`; `site` labels the corruption errors it raises
    /// (`"spill.read"` for the store, `"backend.exchange"` for the process backend).
    pub fn new(bytes: &'a [u8], site: &'a str) -> ByteReader<'a> {
        ByteReader {
            bytes,
            pos: 0,
            site,
        }
    }

    /// A corruption error at the current position.
    pub fn corrupt(&self, what: impl std::fmt::Display) -> DfError {
        DfError::spill_corruption(self.site, format!("{what} at byte {}", self.pos))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> DfResult<&'a [u8]> {
        if n > self.remaining() {
            return Err(self.corrupt(format!(
                "truncated: {n} bytes declared, {} remain",
                self.remaining()
            )));
        }
        let bytes = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// `n` fixed-width little-endian values. The byte length is checked before the
    /// vector is allocated.
    fn lanes<T, const N: usize>(&mut self, n: usize, from: fn([u8; N]) -> T) -> DfResult<Vec<T>> {
        let Some(len) = n.checked_mul(N) else {
            return Err(self.corrupt("lane length overflows"));
        };
        let lanes = self.take(len)?.chunks_exact(N).map(|lane| {
            let mut bytes = [0u8; N];
            bytes.copy_from_slice(lane);
            from(bytes)
        });
        Ok(lanes.collect())
    }

    /// Reject an element count unless `n` elements of at least `min_item_bytes` each
    /// can still follow, so nothing is ever allocated for elements the input cannot
    /// hold.
    fn fits(&self, n: usize, min_item_bytes: usize) -> DfResult<usize> {
        match n.checked_mul(min_item_bytes) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(self.corrupt(format!(
                "{n} elements declared, {} bytes remain",
                self.remaining()
            ))),
        }
    }

    fn array<const N: usize>(&mut self) -> DfResult<[u8; N]> {
        let mut bytes = [0u8; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    /// One raw byte.
    pub(crate) fn u8(&mut self) -> DfResult<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A `u64`.
    pub fn u64(&mut self) -> DfResult<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A scalar count or offset. Not checked against the remaining bytes: use
    /// [`ByteReader::list`] for a count of elements that follow.
    pub fn count(&mut self) -> DfResult<usize> {
        usize::try_from(self.u64()?).map_err(|_| self.corrupt("count overflows usize"))
    }

    /// A boolean; any byte other than 0 or 1 is corruption.
    pub fn bool(&mut self) -> DfResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.corrupt(format!("bool byte {other:#04x}"))),
        }
    }

    /// A float, by bit pattern.
    pub fn f64(&mut self) -> DfResult<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A count-prefixed run of items, each read by `item` and at least
    /// `min_item_bytes` long. The count is checked against the bytes that remain
    /// before any item is read or allocated for.
    pub fn list<T>(
        &mut self,
        min_item_bytes: usize,
        item: impl FnMut(&mut Self) -> DfResult<T>,
    ) -> DfResult<Vec<T>> {
        let n = self.count()?;
        self.run(n, min_item_bytes, item)
    }

    /// `n` items in a row, under the same check as [`ByteReader::list`].
    fn run<T>(
        &mut self,
        n: usize,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> DfResult<T>,
    ) -> DfResult<Vec<T>> {
        (0..self.fits(n, min_item_bytes)?)
            .map(|_| item(self))
            .collect()
    }

    /// A length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> DfResult<&'a str> {
        let len = self.count()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| self.corrupt("string is not UTF-8"))
    }

    /// One tagged cell.
    pub fn cell(&mut self) -> DfResult<Cell> {
        self.cell_at(0)
    }

    fn cell_at(&mut self, depth: usize) -> DfResult<Cell> {
        match self.u8()? {
            0 => Ok(Cell::Null),
            1 => Ok(Cell::Str(self.str()?.to_owned())),
            2 => Ok(Cell::Int(i64::from_le_bytes(self.array()?))),
            3 => Ok(Cell::Float(self.f64()?)),
            4 => Ok(Cell::Bool(self.bool()?)),
            5 if depth < MAX_LIST_DEPTH => Ok(Cell::List(self.list(1, |r| r.cell_at(depth + 1))?)),
            5 => Err(self.corrupt(format!("lists nested deeper than {MAX_LIST_DEPTH}"))),
            tag => Err(self.corrupt(format!("unknown cell tag {tag}"))),
        }
    }

    /// A count-prefixed run of tagged cells.
    pub fn cells(&mut self) -> DfResult<Vec<Cell>> {
        self.list(1, Self::cell)
    }

    /// One column of `n_rows` entries in whichever layout its tag names.
    fn column(&mut self, n_rows: usize) -> DfResult<ColumnData> {
        let string = |r: &mut Self| r.str().map(str::to_owned);
        let tag = self.u8()?;
        if tag == TAG_CELLS {
            // Every cell is at least its tag byte.
            return Ok(ColumnData::Cells(self.run(n_rows, 1, Self::cell)?));
        }
        let words = self.lanes(n_rows.div_ceil(64), u64::from_le_bytes)?;
        let validity = Validity::from_words(words, n_rows)
            .ok_or_else(|| self.corrupt("validity bits set past the last row"))?;
        match tag {
            TAG_INT => Ok(ColumnData::Int {
                values: self.lanes(n_rows, i64::from_le_bytes)?,
                validity,
            }),
            TAG_FLOAT => Ok(ColumnData::Float {
                values: self.lanes(n_rows, |bits| f64::from_bits(u64::from_le_bytes(bits)))?,
                validity,
            }),
            TAG_BOOL => Ok(ColumnData::Bool {
                values: self.run(n_rows, 1, Self::bool)?,
                validity,
            }),
            // A string is at least its eight-byte length.
            TAG_STR => Ok(ColumnData::Str {
                values: self.run(n_rows, 8, string)?,
                validity,
            }),
            TAG_DICT => {
                let codes = self.lanes(n_rows, u32::from_le_bytes)?;
                let dict = self.list(8, string)?;
                // Null slots hold an arbitrary code; only rows that are read must
                // index the dictionary.
                let stray =
                    (0..n_rows).find(|&i| validity.get(i) && codes[i] as usize >= dict.len());
                if let Some(row) = stray {
                    return Err(self.corrupt(format!(
                        "dictionary code {} of row {row} out of range ({} entries)",
                        codes[row],
                        dict.len()
                    )));
                }
                Ok(ColumnData::Dict {
                    codes,
                    dict,
                    validity,
                })
            }
            tag => Err(self.corrupt(format!("unknown layout tag {tag}"))),
        }
    }

    /// Assert the input was fully consumed — trailing bytes mean the writer and the
    /// reader disagree about the format.
    pub fn end(&self) -> DfResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.corrupt(format!("{n} trailing bytes"))),
        }
    }
}

/// Encode one stored part as a complete frame: header, then the payload streamed
/// column by column into the same buffer. A block's typed buffers are written as
/// they are; a frame's columns are typed one at a time on the way out — one
/// column-sized temporary, never a whole-block copy. These are exactly the bytes
/// [`write_spill_part`] puts on disk and [`crate::wire`] puts on a pipe.
pub fn encode_part(part: &StoredPart) -> Vec<u8> {
    let mut w = ByteWriter::default();
    w.out.extend_from_slice(&MAGIC);
    w.out
        .extend_from_slice(&[0; FRAME_HEADER_LEN - MAGIC.len()]);
    match part {
        StoredPart::Block(block) => {
            w.block_head(
                block.row_labels(),
                block.col_labels(),
                block.domains().iter().copied(),
            );
            for column in block.columns() {
                w.column(column);
            }
        }
        StoredPart::Frame(frame) => {
            let columns = frame.columns();
            w.block_head(
                frame.row_labels(),
                frame.col_labels(),
                columns.iter().map(Column::known_domain),
            );
            for column in columns {
                w.cells_column(column.cells(), column.known_domain().as_ref());
            }
        }
    }
    let mut frame = w.finish();
    let (header, payload) = frame.split_at_mut(FRAME_HEADER_LEN);
    header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[16..24].copy_from_slice(&frame_checksum(payload).to_le_bytes());
    frame
}

/// Check the fixed header at the front of `frame` and return the payload length and
/// checksum it declares. The stream reader in [`crate::wire`] calls this on the first
/// [`FRAME_HEADER_LEN`] bytes to learn how many more to read.
pub(crate) fn parse_frame_header(frame: &[u8], site: &str) -> DfResult<(u64, u64)> {
    let Some(header) = frame.get(..FRAME_HEADER_LEN) else {
        return Err(DfError::spill_corruption(
            site,
            format!("truncated inside the frame header ({} bytes)", frame.len()),
        ));
    };
    if header[..8] != MAGIC {
        return Err(DfError::spill_corruption(
            site,
            "bad magic (not a block frame)",
        ));
    }
    let mut fields = ByteReader::new(&header[MAGIC.len()..], site);
    Ok((fields.u64()?, fields.u64()?))
}

/// Decode one complete frame — exactly the bytes [`encode_part`] produced, nothing
/// before or after. The header's length and checksum are verified before the payload
/// is looked at; `site` labels any corruption error (`"spill.read"` for the store,
/// `"backend.exchange"` for the process backend's pipes). Always yields a
/// [`StoredPart::Block`].
pub fn decode_part(frame: &[u8], site: &str) -> DfResult<StoredPart> {
    let (payload_len, checksum) = parse_frame_header(frame, site)?;
    let payload = &frame[FRAME_HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(DfError::spill_corruption(
            site,
            format!(
                "payload length mismatch: header says {payload_len} bytes, frame has {}",
                payload.len()
            ),
        ));
    }
    let actual = frame_checksum(payload);
    if actual != checksum {
        return Err(DfError::spill_corruption(
            site,
            format!("checksum mismatch: header {checksum:x}, payload {actual:x}"),
        ));
    }
    let mut r = ByteReader::new(payload, site);
    let n_rows = r.count()?;
    let n_cols = r.count()?;
    // Decoding the label columns bounds both counts by the payload size.
    let row_labels = Labels::new(r.column(n_rows)?.to_cells());
    let col_labels = Labels::new(r.column(n_cols)?.to_cells());
    let mut domains = Vec::new();
    for _ in 0..n_cols {
        domains.push(match r.str()? {
            "" => None,
            name => Some(
                Domain::from_name(name)
                    .ok_or_else(|| r.corrupt(format!("unknown domain {name:?}")))?,
            ),
        });
    }
    let columns = (0..n_cols)
        .map(|_| r.column(n_rows))
        .collect::<DfResult<Vec<_>>>()?;
    r.end()?;
    ColumnBlock::from_parts(columns, domains, row_labels, col_labels).map(StoredPart::Block)
}

/// Write one stored part to `path` as a block frame. This is the only writer the
/// store uses. The `spill.write` failpoint fires here: I/O kinds become typed
/// [`DfError::SpillIo`] before any byte is written, and the `corrupt` kind mangles
/// the frame *after* its checksum is taken, modelling bit-rot between write and read.
pub fn write_spill_part(part: &StoredPart, path: &Path) -> DfResult<()> {
    let mut frame = encode_part(part);
    match fail::failpoint("spill.write") {
        Some(FailAction::Corrupt) => mangle_payload(&mut frame),
        Some(action) => return Err(action.into_error("spill.write")),
        None => {}
    }
    std::fs::write(path, &frame)
        .map_err(|err| DfError::spill_io("spill.write", err.to_string(), io_transient(err.kind())))
}

/// Read a spill file back. The `spill.read` failpoint fires here: `missing` deletes
/// the file before the open, `corrupt` mangles the bytes just read so the real
/// checksum path reports the fault, and the I/O kinds surface as typed
/// [`DfError::SpillIo`]. A file that is genuinely gone (NotFound) classifies as
/// [`DfError::SpillCorruption`] — lost state is recomputable from lineage, unlike a
/// sick device.
pub fn read_spill_part(path: &Path) -> DfResult<StoredPart> {
    let injected = fail::failpoint("spill.read");
    match injected {
        Some(FailAction::Missing) => {
            std::fs::remove_file(path).ok();
        }
        Some(FailAction::Corrupt) => {}
        Some(action) => return Err(action.into_error("spill.read")),
        None => {}
    }
    let mut frame = std::fs::read(path).map_err(|err| {
        if err.kind() == std::io::ErrorKind::NotFound {
            DfError::spill_corruption(
                "spill.read",
                format!("spill file missing: {}", path.display()),
            )
        } else {
            DfError::spill_io(
                "spill.read",
                format!("{}: {err}", path.display()),
                io_transient(err.kind()),
            )
        }
    })?;
    if injected == Some(FailAction::Corrupt) {
        mangle_payload(&mut frame);
    }
    decode_part(&frame, "spill.read")
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_types::cell::cell;

    /// Build a dataframe column-by-column from typed cells.
    fn frame_of(columns: Vec<(&str, Vec<Cell>)>) -> DfResult<DataFrame> {
        let labels: Vec<Cell> = columns
            .iter()
            .map(|(l, _)| Cell::Str((*l).into()))
            .collect();
        let cols: Vec<Column> = columns.into_iter().map(|(_, c)| Column::new(c)).collect();
        let rows = cols.first().map(|c| c.len()).unwrap_or(0);
        DataFrame::from_parts(cols, Labels::positional(rows), Labels::new(labels))
    }

    fn frame(tag: i64, rows: usize) -> DataFrame {
        frame_of(vec![
            ("id", (0..rows).map(|i| cell(i as i64 + tag)).collect()),
            (
                "name",
                (0..rows).map(|i| cell(format!("row-{i}"))).collect(),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn put_get_round_trip_in_memory() {
        let store = SpillStore::unbounded().unwrap();
        let df = frame(0, 10);
        let id = store.put(df.clone()).unwrap();
        let back = store.get(id).unwrap();
        assert_eq!(back.shape(), df.shape());
        assert_eq!(store.stats().in_memory, 1);
        assert_eq!(store.stats().spilled, 0);
        assert!(store.stats().peak_memory_bytes >= df.approx_size_bytes());
    }

    #[test]
    fn exceeding_the_budget_spills_lru_partitions() {
        // Budget fits roughly one partition, so inserting three forces spills.
        let one = frame(0, 50);
        let budget = one.approx_size_bytes() + one.approx_size_bytes() / 2;
        let store = SpillStore::new(budget).unwrap();
        assert_eq!(store.memory_budget_bytes, budget);
        let a = store.put(frame(0, 50)).unwrap();
        let b = store.put(frame(100, 50)).unwrap();
        let c = store.put(frame(200, 50)).unwrap();
        let stats = store.stats();
        assert!(
            stats.spill_outs >= 1,
            "expected at least one spill: {stats:?}"
        );
        assert!(stats.spilled >= 1);
        // All partitions remain readable, including spilled ones.
        for (id, tag) in [(a, 0), (b, 100), (c, 200)] {
            let back = store.get(id).unwrap();
            assert_eq!(back.shape(), (50, 2));
            assert_eq!(back.cell(0, 0).unwrap(), &cell(tag));
        }
        let stats = store.stats();
        assert!(stats.load_backs >= 1);
        // The peak never exceeds the budget by more than the one frame being inserted.
        assert!(stats.peak_memory_bytes <= budget + one.approx_size_bytes());
    }

    #[test]
    fn spilled_partitions_preserve_row_labels_and_types() {
        let store = SpillStore::new(1).unwrap(); // everything spills immediately
        let df = frame(0, 5)
            .with_row_labels(vec!["a", "b", "c", "d", "e"])
            .unwrap();
        let id = store.put(df).unwrap();
        let back = store.get(id).unwrap();
        assert_eq!(back.row_labels().as_slice()[1], cell("b"));
        assert_eq!(back.cell(2, 0).unwrap(), &cell(2));
    }

    #[test]
    fn spill_round_trip_is_lossless() {
        // The cases CSV-style serialisation would corrupt: numeric-looking strings in
        // untyped columns, floats (incl. NaN/inf/-0.0), bools, composite cells, typed
        // schema slots, and float/null labels.
        let tricky = DataFrame::from_parts(
            vec![
                // Untyped column of numeric-looking strings: must come back as Str.
                Column::new(vec![cell("10"), cell("020"), Cell::Null]),
                Column::with_domain(
                    vec![
                        Cell::Float(f64::NAN),
                        Cell::Float(f64::NEG_INFINITY),
                        Cell::Float(-0.0),
                    ],
                    Domain::Float,
                ),
                Column::new(vec![
                    Cell::Bool(true),
                    Cell::List(vec![cell(1), Cell::List(vec![cell("a\nb"), Cell::Null])]),
                    Cell::Str(format!("sep{}and{}done\\", '\u{1f}', '\u{1e}')),
                ]),
            ],
            Labels::new(vec![Cell::Float(1.5), Cell::Null, Cell::Str("r".into())]),
            Labels::new(vec![cell("raw"), cell("f"), cell("mixed")]),
        )
        .unwrap();
        let store = SpillStore::new(1).unwrap(); // spill immediately
        let id = store.put(tricky.clone()).unwrap();
        let back = store.get(id).unwrap();
        assert_eq!(store.stats().load_backs, 1);
        assert_eq!(back.row_labels(), tricky.row_labels());
        assert_eq!(back.col_labels(), tricky.col_labels());
        assert_eq!(back.schema(), tricky.schema());
        assert_eq!(back.cell(0, 0).unwrap(), &cell("10"));
        assert!(matches!(back.cell(0, 1).unwrap(), Cell::Float(v) if v.is_nan()));
        assert_eq!(back.cell(1, 1).unwrap(), &Cell::Float(f64::NEG_INFINITY));
        assert!(
            matches!(back.cell(2, 1).unwrap(), Cell::Float(v) if v.to_bits() == (-0.0f64).to_bits())
        );
        assert_eq!(back.cell(1, 2).unwrap(), tricky.cell(1, 2).unwrap());
        assert_eq!(back.cell(2, 2).unwrap(), tricky.cell(2, 2).unwrap());
    }

    #[test]
    fn zero_row_and_zero_col_frames_round_trip() {
        let store = SpillStore::new(1).unwrap();
        let empty_rows = DataFrame::from_rows(vec!["a", "b"], vec![]).unwrap();
        let id = store.put(empty_rows.clone()).unwrap();
        assert!(store.get(id).unwrap().same_data(&empty_rows));
        let empty_cols =
            DataFrame::from_parts(vec![], Labels::positional(4), Labels::default()).unwrap();
        let id = store.put(empty_cols.clone()).unwrap();
        let back = store.get(id).unwrap();
        assert_eq!(back.shape(), empty_cols.shape());
        assert_eq!(back.row_labels(), empty_cols.row_labels());
    }

    #[test]
    fn take_consumes_resident_and_spilled_partitions() {
        let store = SpillStore::unbounded().unwrap();
        let df = frame(7, 6);
        let id = store.put(df.clone()).unwrap();
        let back = store.take(id).unwrap();
        assert!(back.same_data(&df));
        assert!(store.get(id).is_err());
        assert_eq!(store.stats().in_memory, 0);

        let tight = SpillStore::new(1).unwrap();
        let id = tight.put(df.clone()).unwrap();
        assert_eq!(tight.stats().spilled, 1);
        let back = tight.take(id).unwrap();
        assert!(back.same_data(&df));
        assert!(tight.take(id).is_err());
    }

    #[test]
    fn remove_and_unknown_ids() {
        let store = SpillStore::unbounded().unwrap();
        let id = store.put(frame(0, 3)).unwrap();
        store.remove(id).unwrap();
        assert!(store.get(id).is_err());
        assert!(store.get(9999).is_err());
        store.remove(12345).unwrap();
    }

    #[test]
    fn typed_blocks_check_in_and_read_back_identically() {
        // A block checked in via put_block decodes to the exact frame it encoded —
        // domains included — resident or spilled, and its resident accounting is
        // the block's (smaller) typed footprint.
        let mut df = frame_of(vec![
            ("id", (0..64).map(|i| cell(i as i64)).collect()),
            ("fare", (0..64).map(|i| cell(i as f64 + 0.5)).collect()),
            (
                "vendor",
                (0..64)
                    .map(|i| cell(if i % 2 == 0 { "CMT" } else { "VTS" }))
                    .collect(),
            ),
        ])
        .unwrap();
        df.columns_mut()[2].declare_domain(Domain::Category);
        let block = ColumnBlock::from_frame(&df);
        let block_bytes = block.approx_size_bytes();
        assert!(block_bytes < df.approx_size_bytes());

        let store = SpillStore::unbounded().unwrap();
        let id = store.put_block(block.clone()).unwrap();
        assert_eq!(store.stats().memory_bytes, block_bytes);
        assert!(store.get(id).unwrap().same_data(&df));

        let tight = SpillStore::new(1).unwrap(); // spill immediately
        let id = tight.put_block(block).unwrap();
        assert_eq!(tight.stats().spilled, 1);
        let back = tight.get(id).unwrap();
        assert!(back.same_data(&df));
        assert_eq!(back.schema(), df.schema());
        assert_eq!(tight.stats().load_backs, 1);
    }

    /// A frame around a hand-built payload, with an honest length and checksum — what
    /// a writer with a bug (or an attacker) could produce and the checksum cannot catch.
    fn sealed(payload: Vec<u8>) -> Vec<u8> {
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&frame_checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    /// The payload of a 3-row, 1-column frame up to (not including) its data column.
    fn three_row_head() -> ByteWriter {
        let mut w = ByteWriter::default();
        w.block_head(
            &Labels::positional(3),
            &Labels::new(vec![cell("c")]),
            [None].into_iter(),
        );
        w
    }

    fn assert_corrupt(frame: &[u8], needle: &str) {
        match decode_part(frame, "test.site") {
            Err(DfError::SpillCorruption { site, detail }) => {
                assert_eq!(site, "test.site");
                assert!(detail.contains(needle), "unexpected detail: {detail}");
            }
            other => panic!("expected SpillCorruption({needle}), got {other:?}"),
        }
    }

    #[test]
    fn frame_round_trips_and_detects_tampering() {
        let df = frame(3, 12);
        let path = std::env::temp_dir().join(format!(
            "rustframe-spill-frame-test-{}.spill",
            std::process::id()
        ));
        write_spill_part(&StoredPart::Frame(df.clone()), &path).unwrap();

        let raw = std::fs::read(&path).unwrap();
        assert_eq!(raw, encode_part(&StoredPart::Frame(df.clone())));
        assert!(read_spill_part(&path).unwrap().into_frame().same_data(&df));

        // Flip one payload byte: the checksum must catch it as typed corruption.
        let mut tampered = raw.clone();
        let idx = tampered.len() - 10;
        tampered[idx] = tampered[idx].wrapping_add(1);
        std::fs::write(&path, &tampered).unwrap();
        match read_spill_part(&path) {
            Err(DfError::SpillCorruption { site, detail }) => {
                assert_eq!(site, "spill.read");
                assert!(detail.contains("checksum"), "unexpected detail: {detail}");
            }
            other => panic!("expected SpillCorruption, got {other:?}"),
        }

        // Truncated mid-payload, or grown past it: the length check must catch both.
        let mut grown = raw.clone();
        grown.extend_from_slice(b"tampered");
        for bad in [&raw[..raw.len() - 30], &grown[..]] {
            std::fs::write(&path, bad).unwrap();
            match read_spill_part(&path) {
                Err(DfError::SpillCorruption { detail, .. }) => {
                    assert!(detail.contains("length"), "unexpected detail: {detail}");
                }
                other => panic!("expected SpillCorruption, got {other:?}"),
            }
        }

        std::fs::remove_file(&path).ok();
        // A vanished file is lost state: classified with corruption so the
        // recovery layer recomputes the block from lineage instead of giving up.
        match read_spill_part(&path) {
            Err(DfError::SpillCorruption { site, detail }) => {
                assert_eq!(site, "spill.read");
                assert!(detail.contains("missing"), "unexpected detail: {detail}");
            }
            other => panic!("expected SpillCorruption, got {other:?}"),
        }
    }

    #[test]
    fn mangling_any_frame_fails_its_verification() {
        for rows in [0, 1, 40] {
            let mut bytes = encode_part(&StoredPart::Frame(frame(0, rows)));
            mangle_payload(&mut bytes);
            assert!(matches!(
                decode_part(&bytes, "test.site"),
                Err(DfError::SpillCorruption { .. })
            ));
        }
    }

    #[test]
    fn garbage_and_bad_magic_are_typed_corruption() {
        assert_corrupt(b"not a block frame at all, but long enough", "magic");
        assert_corrupt(b"short", "header");
        // An honest header around a payload that is not a block.
        assert_corrupt(&sealed(b"garbage".to_vec()), "truncated");
    }

    #[test]
    fn decoder_rejects_validity_bits_past_the_last_row() {
        let mut w = three_row_head();
        w.u8(TAG_INT);
        w.u64(0b1111); // bit 3 set, but there are only rows 0..3
        for v in 0..3u64 {
            w.u64(v);
        }
        assert_corrupt(&sealed(w.finish()), "validity");
    }

    #[test]
    fn decoder_range_checks_dictionary_codes_of_valid_rows_only() {
        let dict_column = |codes: [u32; 3], validity: u64| {
            let mut w = three_row_head();
            w.u8(TAG_DICT);
            w.u64(validity);
            for code in codes {
                w.out.extend_from_slice(&code.to_le_bytes());
            }
            w.count(1);
            w.str("only");
            sealed(w.finish())
        };
        assert_corrupt(&dict_column([0, 7, 0], 0b111), "dictionary code 7 of row 1");
        // The same stray code under a null slot is never read, so it is fine.
        let part = decode_part(&dict_column([0, 7, 0], 0b101), "test.site").unwrap();
        assert_eq!(
            part.into_frame().column(0).unwrap().cells(),
            &[cell("only"), Cell::Null, cell("only")]
        );
    }

    #[test]
    fn decoder_checks_declared_counts_before_allocating() {
        // A shape that promises 2^40 rows in a 20-byte payload.
        let mut w = ByteWriter::default();
        w.count(1 << 40);
        w.count(1);
        w.u8(TAG_INT);
        assert_corrupt(&sealed(w.finish()), "truncated");
        // A list cell that promises 2^64 - 1 items.
        let mut w = three_row_head();
        w.u8(TAG_CELLS);
        w.u8(5);
        w.u64(u64::MAX);
        assert_corrupt(&sealed(w.finish()), "elements declared");
        // Lists nested past the depth bound, each level honest about its length.
        let mut w = three_row_head();
        w.u8(TAG_CELLS);
        for _ in 0..=MAX_LIST_DEPTH {
            w.u8(5);
            w.count(1);
        }
        w.u8(0);
        assert_corrupt(&sealed(w.finish()), "nested deeper");
    }

    #[test]
    fn orphaned_spill_dirs_from_dead_pids_are_collected() {
        if !Path::new("/proc").is_dir() {
            return; // liveness probe unavailable; GC is a no-op by design
        }
        // A pid above the kernel's pid_max can never be alive.
        let dead = std::env::temp_dir().join("rustframe-spill-4294967295-0-0");
        std::fs::create_dir_all(dead.join("nested")).unwrap();
        std::fs::write(dead.join("nested/part-0-0.spill"), "junk").unwrap();
        // Our own directories — and unparseable names — must survive the sweep.
        let own = SpillStore::new(1).unwrap();
        let own_dir = own.directory.clone();
        let odd = std::env::temp_dir().join("rustframe-spill-notapid-x");
        std::fs::create_dir_all(&odd).unwrap();

        assert!(gc_orphaned_spill_dirs() >= 1);
        assert!(!dead.exists(), "dead pid's directory must be reclaimed");
        assert!(own_dir.exists(), "live store directory must survive");
        assert!(odd.exists(), "unparseable names are left alone");
        std::fs::remove_dir_all(odd).ok();
    }

    #[test]
    fn spill_directory_is_removed_on_drop() {
        let dir;
        {
            let store = SpillStore::new(1).unwrap();
            dir = store.directory.clone();
            store.put(frame(0, 5)).unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists());
    }
}
