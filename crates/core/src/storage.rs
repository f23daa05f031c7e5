//! Pluggable persistence: the [`StorageBackend`] trait and its
//! implementations.
//!
//! * [`MemoryBackend`] — snapshot + event log held in memory; the unit-test
//!   and caching substrate.
//! * [`JsonFileBackend`] — one pretty-printed JSON snapshot file, the
//!   format [`crate::persist`] has always written (archives stay
//!   readable). Recording deltas rewrites the whole file, so its cost
//!   scales with repository size — it is the compatibility backend.
//! * [`SegmentedLog`] — the append-only log engine: a generation of
//!   [`RepoEvent`] records next to an optional checkpoint manifest;
//!   recording a delta batch is O(batch), and recovery is checkpoint +
//!   replay. This is the scaling backend. One engine owns generation
//!   naming, the manifest commit, the appender and both durability
//!   modes, segment rolls, torn-tail repair, pruning and the one reader;
//!   a [`Codec`] only says how a record is written and found. It comes in
//!   two formats: [`EventLogBackend`] writes JSONL lines ([`JsonlCodec`]),
//!   and [`crate::binlog::BinaryLogBackend`] writes CRC frames
//!   ([`crate::binlog::FrameCodec`]).
//!
//! All of them observe the same contract, checked in
//! `tests/storage_backends.rs` and property-tested in
//! `tests/delta_equivalence.rs`: after `record`ing a repository's drained
//! events (or `checkpoint`ing its snapshot), `restore` returns exactly
//! [`crate::repo::Repository::snapshot`].
//!
//! ## Durability modes
//!
//! Durability is two-phase: `record` appends, [`StorageBackend::flush_durable`]
//! is the fsync point. In the default [`DurabilityMode::PerBatch`] the two
//! are fused — `record` returns only after its own fsync, exactly the
//! contract every pre-existing caller relies on, and `flush_durable` is a
//! no-op. Switching a file-backed backend to
//! [`DurabilityMode::GroupCommit`] decouples them: `record` stages bytes
//! through a persistent appender (no open, no fsync), and one
//! `flush_durable` makes *every* staged batch durable at once — which is
//! what lets [`crate::pipeline::BackgroundWriter`] amortise one fsync
//! over an entire group-commit window of concurrent producers.

use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::binlog::{generation_of, segment_files, FrameCodec};
use crate::error::RepoError;
use crate::event::{apply_event, replay, RepoEvent};
use crate::persist;
use crate::repo::RepositorySnapshot;
use crate::runtime::{HealthReport, RuntimeHealth};

/// When a backend's `record` becomes durable; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// `record` fsyncs before returning — one call, one durable batch.
    /// The default, and the contract of every pre-group-commit caller.
    #[default]
    PerBatch,
    /// `record` only stages (buffered append, no fsync);
    /// [`StorageBackend::flush_durable`] is the explicit fsync point
    /// covering everything staged since the last one.
    GroupCommit,
}

/// Where a repository's state lives between processes (or merely between
/// drops). Deltas arrive in batches via `record`; `checkpoint` compacts;
/// `restore` recovers the latest state.
pub trait StorageBackend {
    /// A short human-readable backend name ("memory", "json-file", …).
    fn kind(&self) -> &'static str;

    /// Append a batch of deltas (typically
    /// [`crate::repo::Repository::drain_events`] output). In the default
    /// [`DurabilityMode::PerBatch`] the batch is durable when this
    /// returns; under [`DurabilityMode::GroupCommit`] it is merely staged
    /// until the next [`StorageBackend::flush_durable`].
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError>;

    /// Write a full checkpoint of `snapshot`, superseding recorded deltas.
    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError>;

    /// Recover the latest persisted state.
    fn restore(&self) -> Result<RepositorySnapshot, RepoError>;

    /// The fsync point of the two-phase durability API: make every batch
    /// staged since the last call durable. A no-op for backends whose
    /// `record` is already durable (memory, or a file-backed backend in
    /// [`DurabilityMode::PerBatch`] — the default implementation).
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        Ok(())
    }

    /// Select when `record` becomes durable. Backends without a staging
    /// buffer (memory; whole-file rewrites) ignore the request — their
    /// `record` is as durable as it will ever be, and `flush_durable`
    /// stays a no-op.
    fn set_durability(&mut self, _mode: DurabilityMode) {}

    /// The torn-tail repair this backend performed when it was opened,
    /// if any. File-backed log backends truncate a crash fragment at
    /// `open` (it was never durable — reads have always dropped it), but
    /// dropping bytes should be on the record, not silent. `None` for
    /// backends without an open-time repair.
    fn tail_repaired(&self) -> Option<TailRepaired> {
        None
    }
}

/// Record of a torn-tail truncation performed while opening a log
/// backend: a process killed mid-append left a partial final frame or
/// line, and the opener cut it off. The fragment was never durable, so
/// no acknowledged data is lost — but the repair is observable via
/// [`StorageBackend::tail_repaired`] (and `HealthReport::TailRepaired`
/// when the backend is opened on a runtime) instead of silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailRepaired {
    /// The repaired log file (relative name).
    pub file: String,
    /// How many torn bytes were dropped.
    pub bytes_dropped: u64,
}

pub(crate) fn io_err(e: std::io::Error) -> RepoError {
    RepoError::Persist(e.to_string())
}

/// Boxed backends forward the contract, so heterogeneous backend
/// configurations (a federation driver mixing compacting and plain logs,
/// say) can be held behind one type.
impl StorageBackend for Box<dyn StorageBackend> {
    fn kind(&self) -> &'static str {
        (**self).kind()
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        (**self).record(events)
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        (**self).checkpoint(snapshot)
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        (**self).restore()
    }

    fn flush_durable(&mut self) -> Result<(), RepoError> {
        (**self).flush_durable()
    }

    fn set_durability(&mut self, mode: DurabilityMode) {
        (**self).set_durability(mode)
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        (**self).tail_repaired()
    }
}

/// In-memory backend: a base snapshot plus the deltas since.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    base: RepositorySnapshot,
    log: Vec<RepoEvent>,
}

impl MemoryBackend {
    /// A fresh, empty backend.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }

    /// How many deltas are pending since the last checkpoint.
    pub fn pending_events(&self) -> usize {
        self.log.len()
    }
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> &'static str {
        "memory"
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        self.log.extend_from_slice(events);
        Ok(())
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        self.base = snapshot.clone();
        self.log.clear();
        Ok(())
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        Ok(replay(self.base.clone(), &self.log))
    }
}

/// The legacy single-file JSON backend: exactly the format
/// [`persist::save_file`] writes, so existing archives load unchanged.
#[derive(Debug, Clone)]
pub struct JsonFileBackend {
    path: PathBuf,
}

impl JsonFileBackend {
    /// Persist to (and restore from) `path`.
    pub fn new(path: impl Into<PathBuf>) -> JsonFileBackend {
        JsonFileBackend { path: path.into() }
    }

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl StorageBackend for JsonFileBackend {
    fn kind(&self) -> &'static str {
        "json-file"
    }

    /// A snapshot file has no incremental representation: fold the deltas
    /// into the current state and rewrite the whole file.
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        let base = if self.path.exists() {
            self.restore()?
        } else {
            RepositorySnapshot::empty("")
        };
        self.checkpoint(&replay(base, events))
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        std::fs::write(&self.path, persist::to_json(snapshot)?).map_err(io_err)
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        let json = std::fs::read_to_string(&self.path).map_err(io_err)?;
        persist::from_json(&json)
    }

    /// The snapshot file is rewritten whole on every `record`, so there
    /// is nothing staged to batch — but it is file-backed, so the fsync
    /// point still pushes the latest rewrite past the page cache.
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        match std::fs::File::open(&self.path) {
            Ok(file) => file
                .sync_all()
                .map_err(|e| RepoError::persist_io("fsync json snapshot", e)),
            // Nothing recorded yet: nothing to make durable. Any other
            // open failure must surface — reporting Ok would acknowledge
            // events as durable with no fsync having happened.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(RepoError::persist_io("open json snapshot for fsync", e)),
        }
    }
}

/// The checkpoint manifest a [`SegmentedLog`] persists: the base
/// state plus the name of the generation log file its deltas live in.
/// Keeping both in one file makes the manifest rename the single atomic
/// commit point of a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Manifest {
    /// Log file (relative to the backend directory) this base replays.
    log: String,
    /// The checkpointed base state.
    state: RepositorySnapshot,
}

/// The on-disk shape of `checkpoint.json`: the [`Manifest`] body plus a
/// trailing `crc32` of the body's canonical serialisation. The checksum
/// field is optional on read — manifests written before it existed are
/// accepted as-is (legacy tolerance); a *present but wrong* checksum is
/// real corruption and surfaces as [`RepoError::CorruptManifest`].
#[derive(Debug, Deserialize)]
struct ManifestDisk {
    log: String,
    state: RepositorySnapshot,
    crc32: Option<u32>,
}

thread_local! {
    /// Test/bench instrumentation: how many checkpoint manifests this
    /// thread has parsed (the manifest embeds a whole snapshot, so a
    /// parse is the expensive path a poll's `(mtime, len)` stamp check
    /// exists to avoid). Lets tests assert that polling an idle
    /// replica/federation really is pure metadata stats.
    static MANIFESTS_PARSED: Cell<u64> = const { Cell::new(0) };
}

/// Number of checkpoint manifests parsed by this thread so far.
/// Instrumentation for tests and benches.
pub fn manifests_parsed() -> u64 {
    MANIFESTS_PARSED.with(Cell::get)
}

/// The exact `checkpoint.json` bytes for `manifest`: the canonical body
/// JSON with a `crc32` field over the body bytes spliced in as the
/// trailing key. Readers recompute the body from the parsed manifest
/// (the serialiser is deterministic — fixed field order, sorted maps, no
/// floats), so any flipped byte that survives JSON parsing fails the
/// checksum comparison.
fn manifest_json(manifest: &Manifest) -> Result<String, RepoError> {
    let body = serde_json::to_string(manifest)
        .map_err(|e| RepoError::Persist(format!("cannot serialise manifest: {e}")))?;
    let crc = crate::binlog::crc32(body.as_bytes());
    debug_assert!(body.ends_with('}'));
    Ok(format!("{},\"crc32\":{crc}}}", &body[..body.len() - 1]))
}

/// Write `manifest` to `dir/checkpoint.json` with the atomic
/// write-fsync-rename protocol: the rename is
/// the single commit point of a checkpoint, so a crash at any step
/// leaves either the old manifest or the new one, never a torn mix.
fn write_manifest_in(dir: &Path, manifest: &Manifest) -> Result<(), RepoError> {
    let json = manifest_json(manifest)?;
    let tmp = dir.join("checkpoint.json.tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(json.as_bytes()).map_err(io_err)?;
        // The rename must not reach disk before the contents do, or a
        // power loss could publish an empty/partial manifest.
        file.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, dir.join("checkpoint.json")).map_err(io_err)?;
    // Persist the rename itself (directory entry); best-effort since
    // not every platform lets a directory be fsynced.
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

/// An on-disk record format of a [`SegmentedLog`]: how one event is
/// written, and how a reader finds and decodes the record at a byte
/// position. [`JsonlCodec`] and [`FrameCodec`] are the two formats;
/// everything else about a log belongs to the engine.
pub trait Codec: std::fmt::Debug + Send + Sync + 'static {
    /// The suffix of this format's generation names (`events-<n>` + suffix).
    const SUFFIX: &'static str;
    /// [`StorageBackend::kind`] of the plain log.
    const KIND: &'static str;
    /// [`StorageBackend::kind`] of the log under [`AutoCompactingEventLog`].
    const COMPACTED_KIND: &'static str;
    /// Whether a generation rolls into numbered segment files at the
    /// segment cap. Otherwise it is one file named after the generation.
    const SEGMENTED: bool;

    /// Append the encoding of `event` to `out`.
    fn encode(event: &RepoEvent, out: &mut Vec<u8>) -> Result<(), RepoError>;

    /// Find the record at byte `pos < buf.len()` without decoding it.
    /// `Ok(Some(record))`: a whole record occupies `record`, and the next
    /// one starts at `record.end`; an empty `record` is filler to step
    /// over (a blank JSONL line). `Ok(None)`: fewer bytes remain than the
    /// record needs, a torn tail. `Err(reason)`: the bytes at `pos`
    /// cannot start a record.
    fn frame(buf: &[u8], pos: usize) -> Result<Option<Range<usize>>, String>;

    /// Check and decode one whole record found by [`Codec::frame`].
    fn decode(record: &[u8]) -> Result<RepoEvent, String>;
}

/// The JSONL format: one compact JSON event per `\n`-terminated line.
/// A line without its `\n` is a torn append, never an event.
#[derive(Debug, Clone, Copy)]
pub struct JsonlCodec;

impl Codec for JsonlCodec {
    const SUFFIX: &'static str = ".jsonl";
    const KIND: &'static str = "event-log";
    const COMPACTED_KIND: &'static str = "event-log+auto-compact";
    const SEGMENTED: bool = false;

    fn encode(event: &RepoEvent, out: &mut Vec<u8>) -> Result<(), RepoError> {
        // Compact JSON keeps each event on one line (newlines inside
        // strings are escaped by the serialiser).
        let line = serde_json::to_string(event)
            .map_err(|e| RepoError::Persist(format!("cannot serialise event: {e}")))?;
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        Ok(())
    }

    fn frame(buf: &[u8], pos: usize) -> Result<Option<Range<usize>>, String> {
        let Some(len) = buf[pos..].iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let next = pos + len + 1;
        if buf[pos..next].iter().all(u8::is_ascii_whitespace) {
            return Ok(Some(next..next));
        }
        Ok(Some(pos..next))
    }

    fn decode(record: &[u8]) -> Result<RepoEvent, String> {
        let corrupt = |e: &dyn std::fmt::Display| format!("corrupt event log line: {e}");
        let line = std::str::from_utf8(record).map_err(|e| corrupt(&e))?;
        serde_json::from_str(line.trim_end_matches(['\n', '\r'])).map_err(|e| corrupt(&e))
    }
}

/// The append-only log engine behind both file-backed log formats,
/// generic over the record [`Codec`]: [`EventLogBackend`] writes JSONL
/// lines, [`crate::binlog::BinaryLogBackend`] writes CRC frames.
///
/// A log is a *generation* (`events-<n>` plus the codec's suffix)
/// beside an optional `checkpoint.json` manifest naming it. Recording
/// appends through a persistent appender opened once per segment.
/// Checkpointing writes a manifest naming a fresh, empty generation: the
/// atomic rename of the fsynced manifest is the single commit point, so
/// a crash at any step leaves a state `restore` recovers exactly. A
/// binary generation rolls into segment files `<generation>.NNNNNN` of
/// at most the segment cap each, fsyncing each one it seals; a JSONL
/// generation stays one file with the generation's name. Opening
/// truncates a torn final record, which was never durable, and reports
/// it as [`TailRepaired`].
///
/// Durability is two-phase (see the module docs): in the default
/// [`DurabilityMode::PerBatch`], `record` fsyncs before returning; in
/// [`DurabilityMode::GroupCommit`] it only stages, and
/// [`StorageBackend::flush_durable`] issues the one `sync_all` covering
/// every staged batch.
///
/// The engine assumes a single writer per directory (the current
/// generation is cached at `open` and only advanced by this instance's
/// own `checkpoint`); concurrent readers are fine.
#[derive(Debug)]
pub struct SegmentedLog<C: Codec> {
    dir: PathBuf,
    /// The current generation's name, relative to `dir`.
    generation: String,
    /// Index of the segment being appended to (0 unless segmented).
    segment: u32,
    /// Byte length of that segment, re-derived whenever the appender
    /// opens, so rolls need no stat per batch.
    segment_len: u64,
    /// Roll to a new segment once the current one would exceed this.
    segment_bytes: u64,
    durability: DurabilityMode,
    /// The persistent appender for the live segment, opened lazily and
    /// dropped when a roll or checkpoint moves the writer on.
    appender: Option<File>,
    /// Bytes staged (written but not fsynced) since the last
    /// `flush_durable`; only ever true in [`DurabilityMode::GroupCommit`].
    dirty: bool,
    /// Fsyncs this instance has issued, sealed-segment syncs included.
    fsyncs: u64,
    /// The torn-tail truncation `open` performed, if any.
    tail_repaired: Option<TailRepaired>,
    codec: PhantomData<C>,
}

/// The JSONL event log: a [`SegmentedLog`] of JSON lines.
pub type EventLogBackend = SegmentedLog<JsonlCodec>;

/// Both formats' generation suffixes, for rules that span formats.
const SUFFIXES: [&str; 2] = [JsonlCodec::SUFFIX, FrameCodec::SUFFIX];

/// A clone is a fresh writer over the same directory and generation: it
/// opens its own appender on first use and owes no fsync for bytes the
/// original staged (those remain the original's to flush). It performed
/// no open-time repair, so it carries no `tail_repaired` note.
impl<C: Codec> Clone for SegmentedLog<C> {
    fn clone(&self) -> SegmentedLog<C> {
        SegmentedLog {
            dir: self.dir.clone(),
            generation: self.generation.clone(),
            segment: self.segment,
            segment_len: self.segment_len,
            segment_bytes: self.segment_bytes,
            durability: self.durability,
            appender: None,
            dirty: false,
            fsyncs: 0,
            tail_repaired: None,
            codec: PhantomData,
        }
    }
}

impl<C: Codec> SegmentedLog<C> {
    /// Default segment size cap. Small enough that tailing re-reads at
    /// most this much on a partially-consumed segment, large enough that
    /// a million-event log stays in the tens of segments.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

    /// Open (creating the directory if needed) a log under `dir` with the
    /// default segment cap.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SegmentedLog<C>, RepoError> {
        Self::open_with_segment_bytes(dir, Self::DEFAULT_SEGMENT_BYTES)
    }

    /// Open with an explicit segment size cap (records never span
    /// segments, so a record larger than the cap gets a segment to
    /// itself; a JSONL generation never rolls). A directory holding the
    /// other format's log is refused. Opening repairs a torn final record
    /// in the last segment, which was never readable, but leaves
    /// *corrupt* records untouched for `restore` to report.
    pub fn open_with_segment_bytes(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
    ) -> Result<SegmentedLog<C>, RepoError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let (_, generation) = Self::read_state_in(&dir)?;
        if !generation.ends_with(C::SUFFIX) {
            return Err(RepoError::Persist(format!(
                "directory holds event log generation `{generation}`, which a {} backend \
                 cannot open; open it with the backend of its format or convert it with bx_logconv",
                C::KIND
            )));
        }
        let files = segment_files(&dir, &generation)?;
        let segment = files
            .last()
            .and_then(|name| name.rsplit('.').next()?.parse().ok())
            .unwrap_or(0);
        let mut log = SegmentedLog {
            dir,
            generation,
            segment,
            segment_len: 0,
            segment_bytes: segment_bytes.max(1),
            durability: DurabilityMode::default(),
            appender: None,
            dirty: false,
            fsyncs: 0,
            tail_repaired: None,
            codec: PhantomData,
        };
        if let Some(last) = files.last() {
            log.tail_repaired = log.repair_torn_tail(last)?;
        }
        Ok(log)
    }

    /// Fsyncs this instance has issued (each a full [`File::sync_all`]).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The current generation's name (what the manifest records).
    pub fn current_generation(&self) -> &str {
        &self.generation
    }

    /// Every generation log file in the directory, of either format,
    /// sorted. A healthy, compacted directory holds only the current
    /// generation's files (none right after a checkpoint).
    pub fn generation_files(&self) -> Result<Vec<String>, RepoError> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(io_err)? {
            let name = entry.map_err(io_err)?.file_name();
            let name = name.to_string_lossy();
            let generation = generation_of(&name);
            if generation.starts_with("events-")
                && SUFFIXES.iter().any(|suffix| generation.ends_with(suffix))
            {
                files.push(name.into_owned());
            }
        }
        files.sort();
        Ok(files)
    }

    /// Remove every generation file, of either format, that is not the
    /// current generation's. `checkpoint` already unlinks the generation
    /// it supersedes; this sweeps up strays left by crashes in the
    /// checkpoint window or by a conversion. Returns how many files were
    /// removed.
    pub fn prune_stale_generations(&self) -> Result<usize, RepoError> {
        let mut removed = 0;
        for name in self.generation_files()? {
            if generation_of(&name) != self.generation {
                std::fs::remove_file(self.dir.join(&name)).map_err(io_err)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// How many events sit in the log beyond the last checkpoint,
    /// counted by walking the records without decoding them (the count
    /// is wanted on open and monitoring paths). A torn final record is
    /// not counted; a corrupt one stops its segment's walk and surfaces
    /// at `restore` instead.
    pub fn pending_events(&self) -> Result<usize, RepoError> {
        let mut count = 0;
        for name in segment_files(&self.dir, &self.generation)? {
            let buf = std::fs::read(self.dir.join(&name)).map_err(io_err)?;
            let _ = walk::<C>(&buf, |record| count += usize::from(!record.is_empty()));
        }
        Ok(count)
    }

    /// The checkpointed base state and current generation name of a log
    /// directory, read without opening a writer (and so without the
    /// open-time torn-tail repair): from the manifest, or the empty state
    /// and generation 0 when no checkpoint exists yet. Generation 0 is
    /// JSONL when `events-0.jsonl` is present, binary when
    /// `events-0.bin` segments are, and in this type's format otherwise.
    /// This is the read-side entry point replicas tail from.
    pub fn read_state_in(dir: &Path) -> Result<(RepositorySnapshot, String), RepoError> {
        if let Some(manifest) = Self::read_manifest_in(dir)? {
            return Ok((manifest.state, manifest.log));
        }
        let generation = SUFFIXES
            .iter()
            .map(|suffix| format!("events-0{suffix}"))
            .find(|generation| segment_files(dir, generation).is_ok_and(|files| !files.is_empty()))
            .unwrap_or_else(|| format!("events-0{}", C::SUFFIX));
        Ok((RepositorySnapshot::empty(""), generation))
    }

    /// The events of one log generation in `dir`, whichever format the
    /// generation name declares. A torn tail is dropped in both formats;
    /// real corruption surfaces as the typed [`RepoError::CorruptFrame`]
    /// in both, with the offset of the first byte the reader could not
    /// trust.
    pub fn read_generation_events(
        dir: &Path,
        generation: &str,
    ) -> Result<Vec<RepoEvent>, RepoError> {
        Ok(read_generation(dir, generation, 0, None)?
            .unwrap_or_default()
            .0)
    }

    /// Recover the durable state of a log directory purely by reading:
    /// manifest base + replay of the intact records of the generation it
    /// names, in either format. Unlike `EventLogBackend::open(dir)?.restore()`
    /// this never mutates the directory (no torn-tail repair), so tests
    /// and tooling can compute the expected fold of a directory that is
    /// concurrently being tailed or deliberately left torn.
    ///
    /// This sequential path is the oracle for
    /// [`SegmentedLog::restore_dir_on`], which runs the same recovery
    /// through the parallel pipeline.
    pub fn restore_dir(dir: &Path) -> Result<RepositorySnapshot, RepoError> {
        let (base, generation) = Self::read_state_in(dir)?;
        Ok(replay(
            base,
            &Self::read_generation_events(dir, &generation)?,
        ))
    }

    /// [`SegmentedLog::restore_dir`] on `runtime`'s workers: decode in
    /// record-aligned byte ranges, spliced back in log order, then a
    /// sharded fold. Bit-identical to the sequential path on every
    /// input, including which error a corrupt log surfaces (first
    /// offending offset in log order, regardless of worker completion
    /// order).
    pub fn restore_dir_on(
        dir: &Path,
        runtime: &Arc<crate::runtime::Runtime>,
    ) -> Result<RepositorySnapshot, RepoError> {
        let pool = runtime.pool();
        let (base, generation) = Self::read_state_in(dir)?;
        let events = read_generation(dir, &generation, 0, Some(pool))?
            .unwrap_or_default()
            .0;
        Ok(crate::event::replay_parallel(base, events, pool))
    }

    /// Parse (and integrity-check) `dir/checkpoint.json`. `Ok(None)` when
    /// no checkpoint exists yet; [`RepoError::CorruptManifest`] when the
    /// manifest carries a `crc32` that does not match its body (a
    /// checksum-less manifest from an older writer is accepted as-is).
    fn read_manifest_in(dir: &Path) -> Result<Option<Manifest>, RepoError> {
        let path = dir.join("checkpoint.json");
        if !path.exists() {
            return Ok(None);
        }
        let json = std::fs::read_to_string(path).map_err(io_err)?;
        let disk: ManifestDisk = serde_json::from_str(&json)
            .map_err(|e| RepoError::Persist(format!("corrupt checkpoint manifest: {e}")))?;
        MANIFESTS_PARSED.with(|c| c.set(c.get() + 1));
        let manifest = Manifest {
            log: disk.log,
            state: disk.state,
        };
        if let Some(stored) = disk.crc32 {
            let body = serde_json::to_string(&manifest)
                .map_err(|e| RepoError::Persist(format!("cannot serialise manifest: {e}")))?;
            let computed = crate::binlog::crc32(body.as_bytes());
            if computed != stored {
                return Err(RepoError::CorruptManifest {
                    dir: dir.display().to_string(),
                    stored,
                    computed,
                });
            }
        }
        Ok(Some(manifest))
    }

    /// Truncate a torn final record off `last`, the generation's last
    /// file, returning a note of what was dropped. The walk checks record
    /// boundaries only: a corrupt record is real corruption and stays in
    /// place to surface at `restore`, not silently amputated here.
    fn repair_torn_tail(&self, last: &str) -> Result<Option<TailRepaired>, RepoError> {
        let path = self.dir.join(last);
        let buf = std::fs::read(&path).map_err(io_err)?;
        let keep = match walk::<C>(&buf, |_| ()) {
            Ok(end) if end < buf.len() => end,
            _ => return Ok(None),
        };
        let file = OpenOptions::new().write(true).open(&path).map_err(io_err)?;
        file.set_len(keep as u64).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        Ok(Some(TailRepaired {
            file: last.to_string(),
            bytes_dropped: (buf.len() - keep) as u64,
        }))
    }

    /// The persistent appender for the live segment, opened on first use.
    /// Rolls and checkpoints drop it, so a stale handle can never append
    /// to a sealed segment or a superseded generation.
    fn appender(&mut self) -> Result<&mut File, RepoError> {
        if self.appender.is_none() {
            let live = if C::SEGMENTED {
                format!("{}.{:06}", self.generation, self.segment)
            } else {
                self.generation.clone()
            };
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(live))
                .map_err(|e| RepoError::persist_io("open event log appender", e))?;
            self.segment_len = file
                .metadata()
                .map_err(|e| RepoError::persist_io("stat event log segment", e))?
                .len();
            self.appender = Some(file);
        }
        Ok(self.appender.as_mut().expect("appender was just opened"))
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), RepoError> {
        self.appender()?
            .write_all(bytes)
            .map_err(|e| RepoError::persist_io("append event log", e))?;
        self.segment_len += bytes.len() as u64;
        Ok(())
    }

    /// Fsync the live segment. Every append grew it, so this is the full
    /// `sync_all`: the new length is metadata that must reach disk.
    fn sync(&mut self) -> Result<(), RepoError> {
        self.appender()?
            .sync_all()
            .map_err(|e| RepoError::persist_io("fsync event log", e))?;
        self.fsyncs += 1;
        Ok(())
    }

    /// Seal the live segment (fsync, so its full length is durable before
    /// anything lands in the next one) and move on to its successor.
    fn roll_segment(&mut self) -> Result<(), RepoError> {
        self.sync()?;
        self.appender = None;
        self.segment += 1;
        self.segment_len = 0;
        Ok(())
    }
}

impl<C: Codec> StorageBackend for SegmentedLog<C> {
    fn kind(&self) -> &'static str {
        C::KIND
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        if events.is_empty() {
            return Ok(());
        }
        // Open the appender first, so `segment_len` is real before the
        // batch is sized against the cap.
        self.appender()?;
        // Pack records greedily: everything bound for the live segment
        // goes out in one write, rolling to a fresh segment whenever the
        // next record would take a non-empty one past the cap.
        let mut chunk = Vec::new();
        for event in events {
            let before = chunk.len();
            C::encode(event, &mut chunk)?;
            let start = self.segment_len + before as u64;
            if C::SEGMENTED
                && start > 0
                && start + (chunk.len() - before) as u64 > self.segment_bytes
            {
                let record = chunk.split_off(before);
                self.write(&chunk)?;
                self.roll_segment()?;
                chunk = record;
            }
        }
        self.write(&chunk)?;
        match self.durability {
            DurabilityMode::PerBatch => self.sync()?,
            DurabilityMode::GroupCommit => self.dirty = true,
        }
        Ok(())
    }

    /// Crash-safe compaction. The new manifest names a *fresh*
    /// generation, so the manifest rename is the single commit point:
    /// dying before it leaves the old manifest + old log (the
    /// pre-checkpoint state, fully replayable); dying after it leaves the
    /// new manifest whose log is empty or absent (exactly the
    /// checkpointed state). The superseded generation's files are removed
    /// opportunistically afterwards.
    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        let n: u64 = self
            .generation
            .strip_prefix("events-")
            .and_then(|s| s.strip_suffix(C::SUFFIX))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let next = format!("events-{}{}", n + 1, C::SUFFIX);
        write_manifest_in(
            &self.dir,
            &Manifest {
                log: next.clone(),
                state: snapshot.clone(),
            },
        )?;
        // Past the commit point: the writer moves to the fresh
        // generation. Staged bytes are superseded by the manifest's
        // snapshot, so they need no fsync of their own.
        let old = std::mem::replace(&mut self.generation, next);
        self.segment = 0;
        self.segment_len = 0;
        self.appender = None;
        self.dirty = false;
        for name in segment_files(&self.dir, &old).unwrap_or_default() {
            std::fs::remove_file(self.dir.join(name)).ok();
        }
        Ok(())
    }

    /// Recover from the on-disk manifest, replaying the generation *the
    /// manifest names*, so reads are consistent even if a foreign writer
    /// advanced the generation behind this instance's back.
    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        GenerationLog::restore_with_pending(self).map(|(state, _)| state)
    }

    /// One fsync covering every batch staged since the last call. A no-op
    /// when nothing is staged, including the whole
    /// [`DurabilityMode::PerBatch`] regime, where `record` already synced.
    /// Segments sealed mid-window were fsynced as they rolled, so only
    /// the live segment needs syncing.
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        if self.dirty {
            self.sync()?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Switching to [`DurabilityMode::PerBatch`] does not retroactively
    /// sync staged bytes: call [`StorageBackend::flush_durable`] first
    /// (the next per-batch `record`'s `sync_all` would cover them too).
    fn set_durability(&mut self, mode: DurabilityMode) {
        self.durability = mode;
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.tail_repaired.clone()
    }
}

/// Walk the records of `buf` from its start without decoding them,
/// handing each record's range (empty for filler) to `each`. Returns
/// where the walk stopped: `Ok(buf.len())` at the end, `Ok(pos)` at a
/// torn record, `Err(pos)` at a corrupt one.
fn walk<C: Codec>(buf: &[u8], mut each: impl FnMut(Range<usize>)) -> Result<usize, usize> {
    let mut pos = 0;
    while pos < buf.len() {
        match C::frame(buf, pos) {
            Ok(Some(record)) => {
                pos = record.end;
                each(record);
            }
            Ok(None) => return Ok(pos),
            Err(_) => return Err(pos),
        }
    }
    Ok(pos)
}

/// A file's length, with an absent file (pruned by a concurrent
/// checkpoint, say) read as empty.
fn len_or_absent(path: &Path) -> Result<u64, RepoError> {
    match std::fs::metadata(path) {
        Ok(meta) => Ok(meta.len()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(io_err(e)),
    }
}

/// One record-aligned byte range of one log file, decoded as a unit.
#[derive(Clone)]
struct ScanJob {
    file: Arc<str>,
    /// The file's bytes from `file_at` on, shared by the file's jobs.
    bytes: Arc<Vec<u8>>,
    file_at: u64,
    /// Where `bytes[0]` sits in the generation as a whole.
    log_at: u64,
    range: Range<usize>,
    /// Not the generation's last file, so a torn record is corruption.
    sealed: bool,
}

type Scanned = Result<(Vec<RepoEvent>, usize), RepoError>;

impl ScanJob {
    /// Decode the job's records: the events, and where the scan stopped
    /// (`range.end`, or the start of a torn record in the last file).
    fn scan<C: Codec>(&self) -> Scanned {
        let buf = &self.bytes[..self.range.end];
        let corrupt = |pos: usize, reason: String| RepoError::CorruptFrame {
            segment: self.file.to_string(),
            offset: self.file_at + pos as u64,
            reason,
        };
        // Guess one event per 96 bytes (small comment frames) so a full
        // segment does not regrow the vector a dozen times.
        let mut events = Vec::with_capacity(self.range.len() / 96);
        let mut pos = self.range.start;
        while pos < buf.len() {
            match C::frame(buf, pos) {
                Ok(Some(record)) => {
                    if !record.is_empty() {
                        let event = C::decode(&buf[record.clone()]);
                        events.push(event.map_err(|reason| corrupt(pos, reason))?);
                    }
                    pos = record.end;
                }
                Ok(None) if self.sealed => {
                    return Err(corrupt(
                        pos,
                        "incomplete frame inside a sealed segment".to_string(),
                    ))
                }
                Ok(None) => break,
                Err(reason) => return Err(corrupt(pos, reason)),
            }
        }
        Ok((events, pos))
    }
}

/// Read generation `generation` of `dir` from global byte `offset`, a
/// record boundary an earlier read returned: the one reader behind
/// restore, cold open and the incremental tail, and the one place a
/// generation's format is picked from its name.
///
/// `Ok(None)` means the log is now shorter than `offset` (checkpoint
/// rolled or truncated by a foreign hand) and the caller must re-base.
/// Otherwise the result holds the intact events at or after `offset` and
/// the offset consumed; a torn tail stays unconsumed for a later read.
/// An unchanged log costs a directory listing and a stat per file.
///
/// With a `pool`, files split into record-aligned ranges decoded on its
/// workers and spliced back in log order, so which corrupt offset
/// surfaces is the first in log order, exactly as without one.
pub(crate) fn read_generation(
    dir: &Path,
    generation: &str,
    offset: u64,
    pool: Option<&crate::runtime::WorkerPool>,
) -> Result<Option<(Vec<RepoEvent>, u64)>, RepoError> {
    if crate::binlog::is_binary_generation(generation) {
        read_generation_as::<FrameCodec>(dir, generation, offset, pool)
    } else {
        read_generation_as::<JsonlCodec>(dir, generation, offset, pool)
    }
}

fn read_generation_as<C: Codec>(
    dir: &Path,
    generation: &str,
    offset: u64,
    pool: Option<&crate::runtime::WorkerPool>,
) -> Result<Option<(Vec<RepoEvent>, u64)>, RepoError> {
    use std::io::{Read, Seek, SeekFrom};
    let files = segment_files(dir, generation)?;
    let mut sizes = Vec::with_capacity(files.len());
    for name in &files {
        sizes.push(len_or_absent(&dir.join(name))?);
    }
    let total: u64 = sizes.iter().sum();
    if total <= offset {
        return Ok((total == offset).then(|| (Vec::new(), offset)));
    }
    // A few ranges per worker, so one dense range cannot serialise the
    // decode, with a floor that keeps small reads from paying scatter
    // overhead per record. Without a pool every file is one range.
    let range_bytes = pool.map_or(usize::MAX, |pool| {
        ((total - offset) as usize / (pool.threads() * 4)).max(64 * 1024)
    });
    let mut jobs = Vec::new();
    let mut base = 0;
    for (i, (name, size)) in files.iter().zip(sizes).enumerate() {
        let file_at = offset.saturating_sub(base);
        let log_at = base + file_at;
        base += size;
        // Sealed segments never change, so one wholly before the offset
        // needs no read.
        if file_at >= size {
            continue;
        }
        let mut bytes = Vec::with_capacity((size - file_at) as usize);
        match File::open(dir.join(name)) {
            Ok(mut file) => {
                file.seek(SeekFrom::Start(file_at)).map_err(io_err)?;
                file.read_to_end(&mut bytes).map_err(io_err)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(e)),
        }
        let mut start = 0;
        let mut ranges = Vec::new();
        if bytes.len() > range_bytes {
            let _ = walk::<C>(&bytes, |record| {
                if record.end - start >= range_bytes {
                    ranges.push(start..record.end);
                    start = record.end;
                }
            });
        }
        // Whatever the walk did not cut, a torn or corrupt record
        // included, is the last range; its job reports the damage.
        if start < bytes.len() {
            ranges.push(start..bytes.len());
        }
        let (file, bytes): (Arc<str>, _) = (Arc::from(name.as_str()), Arc::new(bytes));
        jobs.extend(ranges.into_iter().map(|range| ScanJob {
            file: Arc::clone(&file),
            bytes: Arc::clone(&bytes),
            file_at,
            log_at,
            range,
            sealed: i + 1 < files.len(),
        }));
    }
    let mut scattered = match pool {
        Some(pool) if jobs.len() > 1 => Some(
            pool.scatter(
                jobs.iter()
                    .cloned()
                    .map(|job| {
                        Box::new(move || job.scan::<C>()) as Box<dyn FnOnce() -> Scanned + Send>
                    })
                    .collect(),
            )
            .into_iter(),
        ),
        _ => None,
    };
    // Ordered gather: the first failing range in log order wins, however
    // the workers finished.
    let mut events = Vec::new();
    let mut consumed = offset;
    for job in &jobs {
        let (mut decoded, end) = match &mut scattered {
            Some(results) => results.next().expect("one result per job"),
            None => job.scan::<C>(),
        }?;
        events.append(&mut decoded);
        consumed = job.log_at + end as u64;
        if end < job.range.end {
            break;
        }
    }
    Ok(Some((events, consumed)))
}

/// A generation-rolling log backend [`AutoCompactingEventLog`] can
/// wrap: every [`SegmentedLog`], whichever its codec, checkpoints by
/// rolling to a fresh generation behind one manifest rename, so the
/// compaction policy layer is format-agnostic.
pub trait GenerationLog: StorageBackend + std::fmt::Debug + Sized {
    /// Open (or create) a log of this format under `dir`.
    fn open_dir(dir: &Path) -> Result<Self, RepoError>;

    /// `restore()` plus the replayed event count, off a single read of
    /// the log (the compacting wrapper's open path needs both and should
    /// not parse the pending tail twice).
    fn restore_with_pending(&self) -> Result<(RepositorySnapshot, usize), RepoError>;

    /// Remove superseded generations (strays from crashes in the
    /// checkpoint window). Returns how many files were removed.
    fn prune_stale_generations(&self) -> Result<usize, RepoError>;

    /// The [`StorageBackend::kind`] of the compacting wrapper around
    /// this format.
    fn compacted_kind() -> &'static str;
}

impl<C: Codec> GenerationLog for SegmentedLog<C> {
    fn open_dir(dir: &Path) -> Result<SegmentedLog<C>, RepoError> {
        SegmentedLog::open(dir)
    }

    fn restore_with_pending(&self) -> Result<(RepositorySnapshot, usize), RepoError> {
        let (base, generation) = match Self::read_manifest_in(&self.dir)? {
            Some(manifest) => (manifest.state, manifest.log),
            None => (RepositorySnapshot::empty(""), self.generation.clone()),
        };
        let events = Self::read_generation_events(&self.dir, &generation)?;
        Ok((replay(base, &events), events.len()))
    }

    fn prune_stale_generations(&self) -> Result<usize, RepoError> {
        SegmentedLog::prune_stale_generations(self)
    }

    fn compacted_kind() -> &'static str {
        C::COMPACTED_KIND
    }
}

/// When an [`AutoCompactingEventLog`] checkpoints: after at least
/// `checkpoint_every` events have been recorded since the last
/// checkpoint. Restores therefore replay at most `checkpoint_every - 1 +
/// write_batch` events, and the directory holds O(1) generations no
/// matter how long the repository lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Checkpoint threshold, in events since the last checkpoint (≥ 1;
    /// 0 is clamped to 1).
    pub checkpoint_every: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            checkpoint_every: 256,
        }
    }
}

/// A generation log under an automatic compaction policy: the backend
/// maintains the live folded state alongside the log (seeded by
/// `restore` at open, advanced by [`crate::event::apply_event`] on every
/// recorded batch) and checkpoints it every
/// [`CompactionPolicy::checkpoint_every`] events — so checkpointing never
/// needs the live [`crate::repo::Repository`], which is what lets the
/// background durability pipeline compact off-thread. Superseded
/// generations (including strays from crashes mid-checkpoint) are pruned
/// after every checkpoint.
///
/// Generic over the log format (any [`GenerationLog`]): the default is
/// the JSONL [`EventLogBackend`], and [`AutoCompactingBinaryLog`] names
/// the [`crate::binlog::BinaryLogBackend`] instantiation.
#[derive(Debug)]
pub struct AutoCompactingEventLog<B: GenerationLog = EventLogBackend> {
    inner: B,
    policy: CompactionPolicy,
    /// The fold of everything durably recorded so far — exactly what
    /// `restore` would return.
    state: RepositorySnapshot,
    since_checkpoint: usize,
    /// Cumulative compaction accounting since open.
    checkpoints: u64,
    pruned_files: u64,
    /// When set, every compaction pass (automatic or explicit) publishes
    /// [`HealthReport::Compaction`] under this component name.
    observer: Option<(Arc<RuntimeHealth>, String)>,
}

/// An auto-compacting binary segmented log
/// ([`crate::binlog::BinaryLogBackend`] under a [`CompactionPolicy`]);
/// open with [`AutoCompactingEventLog::open_with`].
pub type AutoCompactingBinaryLog = AutoCompactingEventLog<crate::binlog::BinaryLogBackend>;

impl AutoCompactingEventLog {
    /// Open (or create) a JSONL event log under `dir` with `policy`. A
    /// reopened log already past its checkpoint budget compacts
    /// immediately. (Inherent on the default format so pre-existing call
    /// sites need no turbofish; use [`Self::open_with`] for other
    /// formats.)
    pub fn open(
        dir: impl Into<PathBuf>,
        policy: CompactionPolicy,
    ) -> Result<AutoCompactingEventLog, RepoError> {
        Self::open_with(dir, policy)
    }
}

impl<B: GenerationLog> AutoCompactingEventLog<B> {
    /// Open (or create) a log of format `B` under `dir` with `policy`.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        policy: CompactionPolicy,
    ) -> Result<AutoCompactingEventLog<B>, RepoError> {
        let inner = B::open_dir(&dir.into())?;
        let (state, since_checkpoint) = inner.restore_with_pending()?;
        let mut backend = AutoCompactingEventLog {
            inner,
            policy,
            state,
            since_checkpoint,
            checkpoints: 0,
            pruned_files: 0,
            observer: None,
        };
        backend.maybe_checkpoint()?;
        Ok(backend)
    }

    /// Publish every compaction pass (automatic threshold crossings and
    /// explicit [`StorageBackend::checkpoint`] calls) as
    /// [`HealthReport::Compaction`] on a [`Runtime`](crate::runtime::Runtime)'s
    /// unified health channel, under `component`.
    pub fn set_observer(&mut self, health: &Arc<RuntimeHealth>, component: &str) {
        self.observer = Some((Arc::clone(health), component.to_string()));
    }

    /// Compaction passes completed since open (automatic + explicit).
    pub fn compactions(&self) -> u64 {
        self.checkpoints
    }

    /// The wrapped log backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> CompactionPolicy {
        self.policy
    }

    /// Events recorded since the last checkpoint (what a restore would
    /// have to replay).
    pub fn events_since_checkpoint(&self) -> usize {
        self.since_checkpoint
    }

    fn maybe_checkpoint(&mut self) -> Result<(), RepoError> {
        if self.since_checkpoint >= self.policy.checkpoint_every.max(1) {
            self.compact_now()?;
        }
        Ok(())
    }

    /// One compaction pass: checkpoint the folded state, prune stale
    /// generations, publish to the observer if one is installed.
    fn compact_now(&mut self) -> Result<(), RepoError> {
        self.inner.checkpoint(&self.state)?;
        let pruned = self.inner.prune_stale_generations()?;
        self.since_checkpoint = 0;
        self.checkpoints += 1;
        self.pruned_files += pruned as u64;
        if let Some((health, component)) = &self.observer {
            health.report(
                component,
                HealthReport::Compaction {
                    kind: B::compacted_kind().to_string(),
                    checkpoints: self.checkpoints,
                    pruned_files: self.pruned_files,
                },
            );
        }
        Ok(())
    }
}

impl<B: GenerationLog> StorageBackend for AutoCompactingEventLog<B> {
    fn kind(&self) -> &'static str {
        B::compacted_kind()
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        self.inner.record(events)?;
        for event in events {
            apply_event(&mut self.state, event);
        }
        self.since_checkpoint += events.len();
        self.maybe_checkpoint()
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        self.state = snapshot.clone();
        self.compact_now()
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        self.inner.restore()
    }

    fn flush_durable(&mut self) -> Result<(), RepoError> {
        self.inner.flush_durable()
    }

    fn set_durability(&mut self, mode: DurabilityMode) {
        self.inner.set_durability(mode)
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.inner.tail_repaired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binlog::{generation_len, BinaryLogBackend};
    use crate::principal::Principal;
    use crate::repo::{EntryId, Repository};
    use crate::template::{ArtefactKind, ExampleEntry, ExampleType};

    use crate::test_support::unique_dir;

    fn entry(title: &str) -> ExampleEntry {
        ExampleEntry::builder(title)
            .of_type(ExampleType::Precise)
            .overview("O.")
            .models("M.")
            .consistency("C.")
            .restoration("F.", "B.")
            .discussion("D.")
            .author("alice")
            .reference("Cheney et al. 2014", Some("10.0/bx"))
            .variant("unkeyed", "drop the keys")
            .artefact("demo", ArtefactKind::Code, "examples/demo.rs")
            .build()
            .unwrap()
    }

    fn busy_repository() -> Repository {
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.register(Principal::member("bob")).unwrap();
        r.grant_role("c", "bob", crate::principal::Role::Reviewer)
            .unwrap();
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        r.comment("bob", &id, "2014-03-28", "Nice.").unwrap();
        r.request_review("alice", &id).unwrap();
        r.approve("bob", &id).unwrap();
        r.contribute("alice", entry("DATES")).unwrap();
        r
    }

    #[test]
    fn memory_backend_replays_deltas() {
        let r = busy_repository();
        let mut backend = MemoryBackend::new();
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.kind(), "memory");
        assert!(backend.pending_events() > 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // Checkpoint compacts without changing the restored state.
        backend.checkpoint(&r.snapshot()).unwrap();
        assert_eq!(backend.pending_events(), 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
    }

    #[test]
    fn json_file_backend_keeps_the_legacy_format() {
        let dir = unique_dir("json");
        std::fs::create_dir_all(&dir).unwrap();
        let r = busy_repository();
        let mut backend = JsonFileBackend::new(dir.join("repo.json"));
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // The file is byte-identical to what persist has always written —
        // and loads through the legacy loader.
        let on_disk = std::fs::read_to_string(backend.path()).unwrap();
        assert_eq!(on_disk, persist::to_json(&r.snapshot()).unwrap());
        let legacy = persist::load_file(backend.path()).unwrap();
        assert_eq!(legacy.snapshot(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_log_lines_report_typed_corrupt_frames() {
        let dir = unique_dir("corrupt");
        let backend = EventLogBackend::open(&dir).unwrap();
        // A complete (newline-terminated) unparseable line is corruption,
        // typed with the byte offset of the offending line so salvage can
        // truncate exactly there.
        std::fs::write(dir.join("events-0.jsonl"), "{ not an event\n").unwrap();
        match backend.restore() {
            Err(RepoError::CorruptFrame {
                segment, offset, ..
            }) => {
                assert_eq!(segment, "events-0.jsonl");
                assert_eq!(offset, 0);
            }
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A comment on DATES, drained by the caller.
    fn comment(r: &Repository, text: &str) {
        r.comment("alice", &EntryId::from_title("DATES"), "2014-05-01", text)
            .unwrap();
    }

    /// What a crash mid-append leaves: all of a record but its last byte.
    /// For JSONL that is a whole JSON object without its `\n` — it parses,
    /// but it was never acknowledged.
    fn torn_record<C: Codec>(event: &RepoEvent) -> Vec<u8> {
        let mut bytes = Vec::new();
        C::encode(event, &mut bytes).unwrap();
        bytes.pop();
        bytes
    }

    /// The live (last) file of the log's current generation.
    fn live_file<C: Codec>(dir: &Path, log: &SegmentedLog<C>) -> String {
        segment_files(dir, log.current_generation())
            .unwrap()
            .pop()
            .unwrap()
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut file = OpenOptions::new().append(true).open(path).unwrap();
        file.write_all(bytes).unwrap();
    }

    /// Engine behaviour, specified once and run over both codecs.
    macro_rules! for_both_codecs {
        ($($test:ident),* $(,)?) => {$(
            #[test]
            fn $test() {
                engine::$test::<JsonlCodec>();
                engine::$test::<FrameCodec>();
            }
        )*};
    }

    for_both_codecs!(
        appends_and_recovers,
        group_commit_stages_until_one_flush,
        a_clone_owes_no_fsync_for_the_originals_staged_bytes,
        torn_tail_is_dropped_by_reads_and_repaired_at_open,
        prune_removes_only_superseded_generations,
        pending_events_counts_records_without_decoding,
        checkpoint_rolls_the_persistent_appender,
        tail_reads_resume_at_record_boundaries_and_detect_rolls,
    );

    mod engine {
        use super::*;

        fn dir<C: Codec>(tag: &str) -> PathBuf {
            unique_dir(&format!("{tag}{}", C::SUFFIX))
        }

        pub(super) fn appends_and_recovers<C: Codec>() {
            let dir = dir::<C>("append");
            let r = busy_repository();
            let mut backend = SegmentedLog::<C>::open(&dir).unwrap();
            assert_eq!(backend.kind(), C::KIND);

            // Record in two batches, as a live system would.
            let events = r.drain_events();
            let (a, b) = events.split_at(events.len() / 2);
            backend.record(a).unwrap();
            backend.record(b).unwrap();
            assert_eq!(backend.pending_events().unwrap(), events.len());
            assert_eq!(backend.restore().unwrap(), r.snapshot());

            // A reopened backend (fresh process) sees the same state.
            let reopened = SegmentedLog::<C>::open(&dir).unwrap();
            assert_eq!(reopened.restore().unwrap(), r.snapshot());

            // Checkpointing compacts the log onto a fresh generation;
            // recovery switches to snapshot + (empty) replay.
            backend.checkpoint(&r.snapshot()).unwrap();
            assert_eq!(backend.pending_events().unwrap(), 0);
            assert_eq!(
                backend.current_generation(),
                format!("events-1{}", C::SUFFIX)
            );
            assert_eq!(backend.restore().unwrap(), r.snapshot());

            // Deltas after the checkpoint replay on top of it.
            comment(&r, "post-checkpoint");
            backend.record(&r.drain_events()).unwrap();
            assert_eq!(backend.pending_events().unwrap(), 1);
            assert_eq!(backend.restore().unwrap(), r.snapshot());
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn group_commit_stages_until_one_flush<C: Codec>() {
            let dir = dir::<C>("group-commit");
            let r = busy_repository();
            let mut backend = SegmentedLog::<C>::open(&dir).unwrap();

            // Per-batch, the default: every record fsyncs.
            let events = r.drain_events();
            let (a, b) = events.split_at(events.len() / 2);
            backend.record(a).unwrap();
            assert_eq!(backend.fsyncs(), 1);

            // Group commit: records only stage, yet are visible to
            // readers before the fsync point; one flush covers them all.
            backend.set_durability(DurabilityMode::GroupCommit);
            let (b1, b2) = b.split_at(b.len() / 2);
            backend.record(b1).unwrap();
            backend.record(b2).unwrap();
            assert_eq!(backend.fsyncs(), 1, "record only stages");
            assert_eq!(backend.pending_events().unwrap(), events.len());
            backend.flush_durable().unwrap();
            assert_eq!(backend.fsyncs(), 2);
            // Idempotent: nothing staged, nothing to sync.
            backend.flush_durable().unwrap();
            assert_eq!(backend.fsyncs(), 2, "clean flush is a no-op");
            assert_eq!(backend.restore().unwrap(), r.snapshot());

            // A fresh process over the directory sees the flushed state.
            let reopened = SegmentedLog::<C>::open(&dir).unwrap();
            assert_eq!(reopened.restore().unwrap(), r.snapshot());

            // Across a checkpoint the next staged batch fsyncs once more.
            backend.checkpoint(&r.snapshot()).unwrap();
            comment(&r, "post-roll");
            backend.record(&r.drain_events()).unwrap();
            backend.flush_durable().unwrap();
            assert_eq!(backend.fsyncs(), 3);
            assert_eq!(backend.restore().unwrap(), r.snapshot());
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn a_clone_owes_no_fsync_for_the_originals_staged_bytes<C: Codec>() {
            let dir = dir::<C>("clone-dirty");
            let r = busy_repository();
            let mut backend = SegmentedLog::<C>::open(&dir).unwrap();
            backend.set_durability(DurabilityMode::GroupCommit);
            backend.record(&r.drain_events()).unwrap();
            let mut clone = backend.clone();
            // The clone starts clean (its flush is a no-op) but shares the
            // directory, so reads agree; the original still flushes its
            // own staged bytes.
            clone.flush_durable().unwrap();
            assert_eq!(clone.fsyncs(), 0, "clone owes no fsync");
            backend.flush_durable().unwrap();
            assert_eq!(backend.fsyncs(), 1);
            assert_eq!(clone.restore().unwrap(), r.snapshot());
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn torn_tail_is_dropped_by_reads_and_repaired_at_open<C: Codec>() {
            let dir = dir::<C>("torn");
            let r = busy_repository();
            let events = r.drain_events();
            let (before, after) = events.split_at(events.len() - 2);
            let mut backend = SegmentedLog::<C>::open(&dir).unwrap();
            backend.record(before).unwrap();
            let expected = backend.restore().unwrap();

            // Crash mid-append.
            let live = live_file(&dir, &backend);
            let path = dir.join(&live);
            let clean_len = std::fs::metadata(&path).unwrap().len();
            let torn = torn_record::<C>(&after[0]);
            append(&path, &torn);

            // Reads drop the fragment without repairing it.
            assert_eq!(
                backend.restore().unwrap(),
                expected,
                "the torn tail is dropped, the intact prefix recovered"
            );
            assert_eq!(SegmentedLog::<C>::restore_dir(&dir).unwrap(), expected);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                clean_len + torn.len() as u64
            );
            drop(backend);

            // A fresh writer truncates it, so its first record does not
            // fuse with the fragment, and the repair is on the record.
            let mut reopened = SegmentedLog::<C>::open(&dir).unwrap();
            let repair = reopened
                .tail_repaired()
                .expect("the open-time repair is observable, never silent");
            assert_eq!(repair.file, live);
            assert_eq!(repair.bytes_dropped, torn.len() as u64);
            assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
            reopened.record(after).unwrap();
            assert_eq!(reopened.restore().unwrap(), r.snapshot());
            assert_eq!(reopened.pending_events().unwrap(), events.len());
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn prune_removes_only_superseded_generations<C: Codec>() {
            let dir = dir::<C>("prune");
            let r = busy_repository();
            let mut backend = SegmentedLog::<C>::open(&dir).unwrap();
            backend.record(&r.drain_events()).unwrap();
            let superseded: Vec<(String, Vec<u8>)> =
                segment_files(&dir, backend.current_generation())
                    .unwrap()
                    .into_iter()
                    .map(|name| {
                        let bytes = std::fs::read(dir.join(&name)).unwrap();
                        (name, bytes)
                    })
                    .collect();
            backend.checkpoint(&r.snapshot()).unwrap();
            // Resurrect the superseded generation, as dying in the
            // checkpoint window after the manifest rename but before the
            // unlink would: the manifest names the new generation, so the
            // stale events must not be double-applied.
            for (name, bytes) in &superseded {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
            assert_eq!(backend.pending_events().unwrap(), 0);
            assert_eq!(backend.restore().unwrap(), r.snapshot());
            // Strays of either format, as crashes or a conversion leave.
            std::fs::write(dir.join("events-7.jsonl"), "junk\n").unwrap();
            std::fs::write(dir.join("events-7.bin.000000"), "junk").unwrap();
            // The current generation has live post-checkpoint deltas.
            comment(&r, "live");
            backend.record(&r.drain_events()).unwrap();
            assert_eq!(
                backend.prune_stale_generations().unwrap(),
                superseded.len() + 2
            );
            assert_eq!(
                backend.generation_files().unwrap(),
                vec![live_file(&dir, &backend)]
            );
            assert_eq!(backend.restore().unwrap(), r.snapshot());
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn pending_events_counts_records_without_decoding<C: Codec>() {
            let dir = dir::<C>("pending-count");
            let r = busy_repository();
            let events = r.drain_events();
            let mut backend = SegmentedLog::<C>::open(&dir).unwrap();
            backend.record(&events).unwrap();
            let path = dir.join(live_file(&dir, &backend));
            // JSONL also has filler: a blank line, which the parser has
            // always skipped.
            if !C::SEGMENTED {
                append(&path, b"   \n");
            }
            // Tear the tail as a mid-write kill would.
            append(&path, &torn_record::<C>(&events[0]));
            // The count is pinned to what the decoding reader yields.
            let decoded =
                SegmentedLog::<C>::read_generation_events(&dir, backend.current_generation())
                    .unwrap()
                    .len();
            assert_eq!(backend.pending_events().unwrap(), decoded);
            assert_eq!(decoded, events.len());
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn checkpoint_rolls_the_persistent_appender<C: Codec>() {
            let dir = dir::<C>("appender-roll");
            let r = busy_repository();
            let mut backend = SegmentedLog::<C>::open(&dir).unwrap();
            backend.set_durability(DurabilityMode::GroupCommit);
            backend.record(&r.drain_events()).unwrap();
            // Checkpoint mid-stage: the manifest supersedes the staged
            // bytes, and the appender must re-open on the fresh generation.
            backend.checkpoint(&r.snapshot()).unwrap();
            comment(&r, "post-roll");
            backend.record(&r.drain_events()).unwrap();
            backend.flush_durable().unwrap();
            assert_eq!(backend.pending_events().unwrap(), 1);
            assert_eq!(
                backend.current_generation(),
                format!("events-1{}", C::SUFFIX)
            );
            assert_eq!(backend.restore().unwrap(), r.snapshot());
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn tail_reads_resume_at_record_boundaries_and_detect_rolls<C: Codec>() {
            let dir = dir::<C>("tail");
            let r = busy_repository();
            let mut backend = SegmentedLog::<C>::open_with_segment_bytes(&dir, 300).unwrap();
            let events = r.drain_events();
            let (a, b) = events.split_at(events.len() / 2);
            backend.record(a).unwrap();
            let generation = backend.current_generation().to_string();
            let read = |offset| read_generation(&dir, &generation, offset, None).unwrap();
            let (first, offset) = read(0).unwrap();
            assert_eq!(first.len(), a.len());
            assert_eq!(offset, generation_len(&dir, &generation).unwrap());
            // Unchanged log: metadata-only poll, no events.
            let (none, same) = read(offset).unwrap();
            assert!(none.is_empty());
            assert_eq!(same, offset);
            // New events resume exactly after the consumed prefix.
            backend.record(b).unwrap();
            let (rest, end) = read(offset).unwrap();
            assert_eq!(rest.len(), b.len());
            assert_eq!(end, generation_len(&dir, &generation).unwrap());
            // A checkpoint rolls the generation; the old offset over-shoots
            // the (now empty) new generation: the re-base signal.
            backend.checkpoint(&r.snapshot()).unwrap();
            let rolled = backend.current_generation();
            assert_eq!(read_generation(&dir, rolled, end, None).unwrap(), None);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn open_refuses_the_other_formats_directory() {
        let r = busy_repository();
        let events = r.drain_events();
        // Checkpointed or not, a JSONL directory refuses the binary
        // backend and a binary one the JSONL backend.
        for checkpointed in [false, true] {
            let jsonl_dir = unique_dir("refuse-jsonl");
            let mut jsonl = EventLogBackend::open(&jsonl_dir).unwrap();
            let bin_dir = unique_dir("refuse-bin");
            let mut binary = BinaryLogBackend::open(&bin_dir).unwrap();
            for log in [&mut jsonl as &mut dyn StorageBackend, &mut binary] {
                log.record(&events).unwrap();
                if checkpointed {
                    log.checkpoint(&r.snapshot()).unwrap();
                }
            }
            let err = BinaryLogBackend::open(&jsonl_dir).unwrap_err();
            assert!(matches!(err, RepoError::Persist(_)));
            let err = EventLogBackend::open(&bin_dir).unwrap_err();
            assert!(matches!(err, RepoError::Persist(_)));
            std::fs::remove_dir_all(&jsonl_dir).ok();
            std::fs::remove_dir_all(&bin_dir).ok();
        }
    }

    #[test]
    fn auto_compaction_bounds_replay_and_generations() {
        let dir = unique_dir("autocompact");
        let r = busy_repository();
        let mut backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 4,
            },
        )
        .unwrap();
        let events = r.drain_events();
        // Feed one event at a time: the policy must fire repeatedly.
        for event in &events {
            backend.record(std::slice::from_ref(event)).unwrap();
        }
        assert!(backend.events_since_checkpoint() < 4);
        assert!(backend.inner().pending_events().unwrap() < 4);
        assert!(backend.inner().generation_files().unwrap().len() <= 1);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // A reopened instance with a tighter budget compacts immediately.
        drop(backend);
        let reopened = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 1,
            },
        )
        .unwrap();
        assert_eq!(reopened.events_since_checkpoint(), 0);
        assert_eq!(reopened.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_observer_publishes_on_the_unified_channel() {
        let dir = unique_dir("compact-observe");
        let r = busy_repository();
        let health = Arc::new(RuntimeHealth::new());
        let mut backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 4,
            },
        )
        .unwrap();
        backend.set_observer(&health, "compaction:jsonl");
        let events = r.drain_events();
        for event in &events {
            backend.record(std::slice::from_ref(event)).unwrap();
        }
        // Explicit checkpoints publish too.
        backend.checkpoint(&r.snapshot()).unwrap();
        let report = health
            .latest("compaction:jsonl")
            .expect("every compaction pass publishes");
        match report.report {
            HealthReport::Compaction {
                ref kind,
                checkpoints,
                ..
            } => {
                assert_eq!(kind, "event-log+auto-compact");
                assert!(checkpoints >= 2, "auto passes plus the explicit one");
                assert_eq!(checkpoints, backend.compactions());
            }
            ref other => panic!("expected a compaction report, got {other:?}"),
        }

        // The binary instantiation reports its own kind.
        let bin_dir = unique_dir("compact-observe-bin");
        let mut binary: AutoCompactingBinaryLog = AutoCompactingEventLog::open_with(
            &bin_dir,
            CompactionPolicy {
                checkpoint_every: 1,
            },
        )
        .unwrap();
        binary.set_observer(&health, "compaction:bin");
        binary.record(&events).unwrap();
        match health.latest("compaction:bin").unwrap().report {
            HealthReport::Compaction { ref kind, .. } => {
                assert_eq!(kind, "binary-log+auto-compact")
            }
            ref other => panic!("expected a compaction report, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&bin_dir).ok();
    }

    #[test]
    fn missing_json_file_reports_persist_error() {
        let backend = JsonFileBackend::new("/nonexistent/definitely/missing.json");
        assert!(matches!(backend.restore(), Err(RepoError::Persist(_))));
    }

    #[test]
    fn json_flush_durable_skips_only_a_missing_file() {
        let dir = unique_dir("json-fsync");
        std::fs::create_dir_all(&dir).unwrap();
        // Absent snapshot: nothing recorded yet, nothing to sync.
        let mut absent = JsonFileBackend::new(dir.join("missing.json"));
        absent.flush_durable().unwrap();
        // Any other open failure must surface, not masquerade as durable:
        // a path routed *through* a regular file fails with NotADirectory.
        let blocking = dir.join("plain-file");
        std::fs::write(&blocking, "x").unwrap();
        let mut broken = JsonFileBackend::new(blocking.join("nested.json"));
        assert!(matches!(broken.flush_durable(), Err(RepoError::Persist(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
