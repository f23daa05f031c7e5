//! Pluggable persistence: the [`StorageBackend`] trait and its
//! implementations.
//!
//! * [`MemoryBackend`] — snapshot + event log held in memory; the unit-test
//!   and caching substrate.
//! * [`SegmentedLog`] — the append-only log engine: a generation of
//!   [`RepoEvent`] records next to an optional checkpoint manifest;
//!   recording a delta batch is O(batch), and recovery is checkpoint +
//!   replay. This is the scaling backend. One engine owns generation
//!   naming, the manifest commit, the appender and its fsync point,
//!   segment rolls, torn-tail repair, pruning and the one reader;
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
//! ## Durability
//!
//! Durability is two-phase, and there is one write contract: `record`
//! stages a batch through a persistent appender (no open, no fsync; the
//! bytes are already visible to readers), and
//! [`StorageBackend::flush_durable`] is the only fsync point, making
//! *every* batch staged since the last call durable at once. A batch is
//! acknowledged only after a `flush_durable` that covers it. This is
//! what lets [`crate::pipeline::BackgroundWriter`] amortise one fsync
//! over every event concurrent producers queued while the commit before
//! it ran; a one-shot caller records and then flushes.
//!
//! ## The checkpoint manifest
//!
//! A [`SegmentedLog`] checkpoints by writing `checkpoint.json` and
//! moving on to a fresh generation. The manifest holds, in this order:
//!
//! * `log`: the generation its deltas are appended to;
//! * `follows`: the position its state was folded from, or `null`: the
//!   previous generation, that generation's length in bytes (summed
//!   across segments), and the CRC of the manifest that started it;
//! * `state`: the base state;
//! * `crc32`: a checksum of everything before it.
//!
//! Only an automatic compaction ([`AutoCompactingEventLog`]) writes
//! `follows`, because only there is the state known to be the old base
//! folded with exactly those bytes. An explicit
//! [`StorageBackend::checkpoint`] of an arbitrary snapshot, and a
//! conversion, write `null`; a manifest from before the field existed
//! reads as `null`. A tail that has applied exactly the bytes `follows`
//! names already holds the state: it checks the manifest's CRC, reads
//! the fields before `state` and switches to the new generation without
//! parsing the state (see [`crate::replica::LogTail`]).
//!
//! An automatic compaction fires when a batch would bring the events
//! recorded since the last checkpoint to
//! [`CompactionPolicy::checkpoint_every`]. It checkpoints the fold
//! recorded *before* that batch, where a tail that kept up stands, and
//! the batch opens the new generation. A batch that reaches the budget
//! on its own is appended first and checkpointed after. Either way,
//! fewer than `checkpoint_every` events are pending after every
//! `record`.

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
use crate::repo::RepositorySnapshot;
use crate::runtime::{HealthReport, RuntimeHealth};

/// Where a repository's state lives between processes (or merely between
/// drops). Deltas arrive in batches via `record`; `checkpoint` compacts;
/// `restore` recovers the latest state.
pub trait StorageBackend {
    /// Append a batch of deltas (typically
    /// [`crate::repo::Repository::drain_events`] output). The batch is
    /// staged: it is durable only once a later
    /// [`StorageBackend::flush_durable`] returns.
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError>;

    /// Write a full checkpoint of `snapshot`, superseding recorded deltas.
    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError>;

    /// Recover the latest persisted state.
    fn restore(&self) -> Result<RepositorySnapshot, RepoError>;

    /// The one fsync point: make every batch staged since the last call
    /// durable. The default is a no-op, for backends with nothing to
    /// sync (memory).
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        Ok(())
    }

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

/// Where a checkpoint's state stands in the log it was folded from: the
/// state is exactly the previous base folded with the records of
/// generation `log`'s first `bytes` bytes. Only an automatic compaction
/// ([`AutoCompactingEventLog`]) knows that of its state, so only it
/// writes one; a tail that has applied exactly those bytes already holds
/// the state, and crosses to the new generation without reading it (see
/// [`crate::replica::LogTail`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Follows {
    /// The generation whose bytes the state folds.
    pub(crate) log: String,
    /// That generation's length as its writer appended it, summed
    /// across its segments (the unit of a tail's offset). Bytes a
    /// foreign hand appended or truncated are not in it, so a tail that
    /// read the file after such a change never stands at this position.
    pub(crate) bytes: u64,
    /// The CRC of the manifest that started that generation; `None` for
    /// generation 0 or a checksum-less manifest.
    pub(crate) after: Option<u32>,
}

/// The checkpoint manifest a [`SegmentedLog`] persists as
/// `checkpoint.json`: the name of the generation log file its deltas
/// live in, the position its base follows (when known), the base state,
/// and a trailing `crc32` of the body's bytes (see [`manifest_json`]).
/// Keeping all of it in one file makes the manifest rename the single
/// atomic commit point of a checkpoint. Both optional fields tolerate
/// legacy manifests written before they existed; a *present but wrong*
/// checksum is real corruption and surfaces as
/// [`RepoError::CorruptManifest`].
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct Manifest {
    /// Log file (relative to the backend directory) this base replays.
    pub(crate) log: String,
    pub(crate) follows: Option<Follows>,
    /// The checkpointed base state.
    pub(crate) state: RepositorySnapshot,
    pub(crate) crc32: Option<u32>,
}

/// The fields a manifest serialises before `state`: all a tail needs to
/// tell whether it holds the state already.
#[derive(Debug, Deserialize)]
pub(crate) struct ManifestHead {
    pub(crate) log: String,
    pub(crate) follows: Option<Follows>,
}

/// The manifest body [`manifest_json`] serialises, borrowing its parts
/// (the derive takes no lifetimes, and a `Value` built by hand would be
/// cloned whole on its way out).
struct ManifestBody<'a> {
    log: &'a str,
    follows: Option<&'a Follows>,
    state: &'a RepositorySnapshot,
}

impl Serialize for ManifestBody<'_> {
    fn serialize_value(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![
            ("log".to_string(), self.log.serialize_value()),
            ("follows".to_string(), self.follows.serialize_value()),
            ("state".to_string(), self.state.serialize_value()),
        ])
    }
}

thread_local! {
    /// Test instrumentation, per thread. Checkpoint manifests parsed:
    /// the manifest embeds a whole snapshot, so a parse is the expensive
    /// path a poll's `(mtime, len)` stamp check exists to avoid.
    static MANIFESTS_PARSED: Cell<u64> = const { Cell::new(0) };
    /// Generation directories listed ([`segment_files`]): an idle poll
    /// stats paths its tail already knows and lists none.
    static DIRS_LISTED: Cell<u64> = const { Cell::new(0) };
    /// Directories fsynced ([`sync_dir`]): one per new log file,
    /// manifest rename, salvage that removed or renamed an entry, or
    /// directory a log's open created.
    static DIRS_SYNCED: Cell<u64> = const { Cell::new(0) };
}

/// Count one directory listing on this thread (see [`dirs_listed`]).
pub(crate) fn note_dir_listed() {
    DIRS_LISTED.with(|c| c.set(c.get() + 1));
}

#[cfg(test)]
pub(crate) fn manifests_parsed() -> u64 {
    MANIFESTS_PARSED.with(Cell::get)
}

#[cfg(test)]
pub(crate) fn dirs_listed() -> u64 {
    DIRS_LISTED.with(Cell::get)
}

#[cfg(test)]
pub(crate) fn dirs_synced() -> u64 {
    DIRS_SYNCED.with(Cell::get)
}

/// Fsync `dir`, persisting the entries of files created, renamed or
/// removed in it.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    DIRS_SYNCED.with(|c| c.set(c.get() + 1));
    std::fs::File::open(dir)?.sync_all()
}

/// Create `dir` and its missing ancestors, then fsync the parent of
/// each directory created, top-down, so the new path outlives a power
/// loss. An existing `dir` syncs nothing.
pub(crate) fn create_dir_durably(dir: &Path) -> std::io::Result<()> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|path| !path.as_os_str().is_empty() && !path.exists())
        .collect();
    std::fs::create_dir_all(dir)?;
    for new in missing.iter().rev() {
        // A relative path's topmost component has the empty parent.
        let parent = new.parent().filter(|p| !p.as_os_str().is_empty());
        sync_dir(parent.unwrap_or(Path::new(".")))?;
    }
    Ok(())
}

/// The exact `checkpoint.json` bytes for a manifest naming `log`, and
/// their CRC: the canonical body JSON (`log`, `follows`, then `state`),
/// serialised from borrowed parts, with a `crc32` field over the body
/// bytes spliced in as the trailing key, so the file is
/// `body[..len - 1]` followed by `,"crc32":<crc>}`. Readers check the
/// CRC over the bytes they read (everything before that tail, plus the
/// body's closing `}`), so any flipped byte that survives JSON parsing
/// fails the comparison.
fn manifest_json(
    log: &str,
    follows: Option<&Follows>,
    state: &RepositorySnapshot,
) -> Result<(String, u32), RepoError> {
    let body = serde_json::to_string(&ManifestBody {
        log,
        follows,
        state,
    })
    .map_err(|e| RepoError::Persist(format!("cannot serialise manifest: {e}")))?;
    let crc = crate::binlog::crc32(body.as_bytes());
    debug_assert!(body.ends_with('}'));
    let json = format!("{},\"crc32\":{crc}}}", &body[..body.len() - 1]);
    Ok((json, crc))
}

/// Write a manifest to `dir/checkpoint.json` with the atomic
/// write-fsync-rename protocol, returning its CRC: the rename is the
/// single commit point of a checkpoint, so a crash at any step leaves
/// either the old manifest or the new one, never a torn mix.
fn write_manifest_in(
    dir: &Path,
    log: &str,
    follows: Option<&Follows>,
    state: &RepositorySnapshot,
) -> Result<u32, RepoError> {
    let (json, crc) = manifest_json(log, follows, state)?;
    let tmp = dir.join("checkpoint.json.tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(json.as_bytes()).map_err(io_err)?;
        // The rename must not reach disk before the contents do, or a
        // power loss could publish an empty/partial manifest.
        file.sync_all().map_err(io_err)?;
    }
    std::fs::rename(&tmp, dir.join("checkpoint.json")).map_err(io_err)?;
    // Persist the rename itself (the directory entry). Best-effort: the
    // rename is the commit point, so an error now must not send the
    // writer back to the generation the new manifest superseded.
    sync_dir(dir).ok();
    Ok(crc)
}

/// The CRC of a manifest body, as [`manifest_json`] computes it: over
/// the bytes before the `crc32` trailer, closed by the `}` it displaced.
fn body_crc(body: &str) -> u32 {
    crate::binlog::crc32_update(crate::binlog::crc32(body.as_bytes()), b"}")
}

/// The CRC a manifest's trailer stores, when the file ends in exactly
/// the trailer [`manifest_json`] writes and the body bytes match it.
/// `None` otherwise, which leaves the verdict to the full parse.
fn verified_crc(json: &str) -> Option<u32> {
    let (body, tail) = json.rsplit_once(",\"crc32\":")?;
    let stored: u32 = tail.strip_suffix('}')?.parse().ok()?;
    (tail == format!("{stored}}}") && body_crc(body) == stored).then_some(stored)
}

/// A `checkpoint.json` as read from disk, its CRC checked but its body
/// not yet parsed: a reader that needs only the fields before `state`
/// takes [`ManifestFile::head`], any other [`ManifestFile::parse`].
pub(crate) struct ManifestFile {
    json: String,
    /// The CRC the trailer stores, when the body bytes match it (see
    /// [`verified_crc`]).
    verified: Option<u32>,
}

impl ManifestFile {
    /// Read `dir/checkpoint.json`: `Ok(None)` when no checkpoint exists
    /// yet.
    pub(crate) fn read(dir: &Path) -> Result<Option<ManifestFile>, RepoError> {
        let path = dir.join("checkpoint.json");
        if !path.exists() {
            return Ok(None);
        }
        let json = std::fs::read_to_string(path).map_err(io_err)?;
        let verified = verified_crc(&json);
        Ok(Some(ManifestFile { json, verified }))
    }

    /// The fields before `state`, and the manifest's CRC, when that CRC
    /// checks out: those bytes are then the writer's own, so the head can
    /// be trusted without the state. `None` for a checksum-less or
    /// corrupt manifest, whose verdict [`ManifestFile::parse`] gives.
    pub(crate) fn head(&self) -> Option<(ManifestHead, u32)> {
        let crc = self.verified?;
        let at = self.json.find(",\"state\":")?;
        let head = serde_json::from_str(&format!("{}}}", &self.json[..at])).ok()?;
        Some((head, crc))
    }

    /// Parse the whole manifest read from `dir`, checking its integrity:
    /// [`RepoError::CorruptManifest`] when it carries a `crc32` that does
    /// not match the body bytes, or does not end in exactly the tail
    /// [`manifest_json`] writes. A checksum-less manifest from an older
    /// writer is accepted as-is.
    pub(crate) fn parse(&self, dir: &Path) -> Result<Manifest, RepoError> {
        let manifest: Manifest = serde_json::from_str(&self.json)
            .map_err(|e| RepoError::Persist(format!("corrupt checkpoint manifest: {e}")))?;
        MANIFESTS_PARSED.with(|c| c.set(c.get() + 1));
        // A CRC `read` already checked spares the second pass.
        if let Some(stored) = manifest
            .crc32
            .filter(|stored| self.verified != Some(*stored))
        {
            // The writer's body is the text before its trailing
            // `,"crc32":` key, closed by the `}` that key displaced.
            let (body, tail) = self
                .json
                .rsplit_once(",\"crc32\":")
                .unwrap_or((&self.json, ""));
            let computed = body_crc(body);
            if computed != stored || tail != format!("{stored}}}") {
                return Err(RepoError::CorruptManifest {
                    dir: dir.display().to_string(),
                    stored,
                    computed,
                });
            }
        }
        Ok(manifest)
    }
}

/// `dir`'s manifest, read and parsed in full: `Ok(None)` when no
/// checkpoint exists yet.
pub(crate) fn read_manifest(dir: &Path) -> Result<Option<Manifest>, RepoError> {
    ManifestFile::read(dir)?
        .map(|file| file.parse(dir))
        .transpose()
}

/// An on-disk record format of a [`SegmentedLog`]: how one event is
/// written, and how a reader finds and decodes the record at a byte
/// position. [`JsonlCodec`] and [`FrameCodec`] are the two formats;
/// everything else about a log belongs to the engine.
pub trait Codec: std::fmt::Debug + Send + Sync + 'static {
    /// The suffix of this format's generation names (`events-<n>` + suffix).
    const SUFFIX: &'static str;
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
/// Durability is two-phase (see the module docs): `record` only
/// stages, and [`StorageBackend::flush_durable`] issues the one
/// `sync_all` covering every staged batch.
///
/// The engine assumes a single writer per directory (the current
/// generation is cached at `open` and only advanced by this instance's
/// own `checkpoint`); concurrent readers are fine.
#[derive(Debug)]
pub struct SegmentedLog<C: Codec> {
    dir: PathBuf,
    /// The current generation's name, relative to `dir`.
    generation: String,
    /// The CRC of the manifest that started the current generation;
    /// `None` for generation 0 or a checksum-less manifest.
    manifest_crc: Option<u32>,
    /// Index of the segment being appended to (0 unless segmented).
    segment: u32,
    /// Byte length of that segment, re-derived whenever the appender
    /// opens, so rolls need no stat per batch.
    segment_len: u64,
    /// Roll to a new segment once the current one would exceed this.
    segment_bytes: u64,
    /// The current generation's length as this writer knows it: its
    /// length at open (after the torn-tail repair) plus every byte
    /// appended since, never re-statted. A checkpoint's [`Follows`]
    /// names this position, which a tail cannot reach after bytes a
    /// foreign hand truncated or appended.
    generation_bytes: u64,
    /// The persistent appender for the live segment, opened lazily and
    /// dropped when a roll or checkpoint moves the writer on.
    appender: Option<File>,
    /// The appender opened an empty file, most likely creating it: the
    /// next `sync` also fsyncs the directory, so the file's entry is as
    /// durable as its bytes.
    dir_sync_owed: bool,
    /// Bytes staged (written but not fsynced) since the last
    /// `flush_durable`.
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

impl<C: Codec> SegmentedLog<C> {
    /// Default segment size cap. Small enough that tailing re-reads at
    /// most this much on a partially-consumed segment, large enough that
    /// a million-event log stays in the tens of segments.
    pub(crate) const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

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
        create_dir_durably(&dir)
            .map_err(|e| RepoError::persist_io("create event log directory", e))?;
        // The writer needs the generation, not the base state: a
        // manifest whose CRC checks out is read no further than its head.
        let (generation, manifest_crc) = match ManifestFile::read(&dir)? {
            Some(file) => match file.head() {
                Some((head, crc)) => (head.log, Some(crc)),
                None => {
                    let manifest = file.parse(&dir)?;
                    (manifest.log, manifest.crc32)
                }
            },
            None => (Self::first_generation_in(&dir), None),
        };
        if !generation.ends_with(C::SUFFIX) {
            return Err(RepoError::Persist(format!(
                "directory holds event log generation `{generation}`, which a `{}` backend \
                 cannot open; open it with the backend of its format or convert it with bx_logconv",
                C::SUFFIX
            )));
        }
        let files = segment_files(&dir, &generation)?;
        let segment = files
            .last()
            .and_then(|name| segment_index(name))
            .unwrap_or(0);
        let mut log = SegmentedLog {
            dir,
            generation,
            manifest_crc,
            segment,
            segment_len: 0,
            segment_bytes: segment_bytes.max(1),
            generation_bytes: 0,
            appender: None,
            dir_sync_owed: false,
            dirty: false,
            fsyncs: 0,
            tail_repaired: None,
            codec: PhantomData,
        };
        if let Some(last) = files.last() {
            log.tail_repaired = log.repair_torn_tail(last)?;
        }
        for name in &files {
            log.generation_bytes += len_or_absent(&log.dir.join(name))?;
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
        let (state, generation, _) = Self::read_base_in(dir)?;
        Ok((state, generation))
    }

    /// [`SegmentedLog::read_state_in`] plus the CRC of the manifest read
    /// (`None` without one, or for a checksum-less one).
    pub(crate) fn read_base_in(
        dir: &Path,
    ) -> Result<(RepositorySnapshot, String, Option<u32>), RepoError> {
        match read_manifest(dir)? {
            Some(manifest) => Ok((manifest.state, manifest.log, manifest.crc32)),
            None => Ok((
                RepositorySnapshot::empty(""),
                Self::first_generation_in(dir),
                None,
            )),
        }
    }

    /// Generation 0 of a directory without a manifest: see
    /// [`SegmentedLog::read_state_in`].
    fn first_generation_in(dir: &Path) -> String {
        first_generations()
            .find(|generation| segment_files(dir, generation).is_ok_and(|files| !files.is_empty()))
            .unwrap_or_else(|| format!("events-0{}", C::SUFFIX))
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
        Ok(read_generation(dir, generation, 0, None, None)?
            .unwrap_or_default()
            .events)
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
        let events = read_generation(dir, &generation, 0, None, Some(pool))?
            .unwrap_or_default()
            .events;
        Ok(crate::event::replay_parallel(base, events, pool))
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
            let live = segment_file(&self.generation, C::SEGMENTED, self.segment);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join(live))
                .map_err(|e| RepoError::persist_io("open event log appender", e))?;
            self.segment_len = file
                .metadata()
                .map_err(|e| RepoError::persist_io("stat event log segment", e))?
                .len();
            self.dir_sync_owed = self.segment_len == 0;
            self.appender = Some(file);
        }
        Ok(self.appender.as_mut().expect("appender was just opened"))
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), RepoError> {
        self.appender()?
            .write_all(bytes)
            .map_err(|e| RepoError::persist_io("append event log", e))?;
        self.segment_len += bytes.len() as u64;
        self.generation_bytes += bytes.len() as u64;
        Ok(())
    }

    /// Fsync the live segment. Every append grew it, so this is the full
    /// `sync_all`: the new length is metadata that must reach disk. The
    /// first sync of a file the appender created also fsyncs the
    /// directory, or a crash could lose the file's entry along with
    /// every record in it.
    fn sync(&mut self) -> Result<(), RepoError> {
        self.appender()?
            .sync_all()
            .map_err(|e| RepoError::persist_io("fsync event log", e))?;
        self.fsyncs += 1;
        if self.dir_sync_owed {
            sync_dir(&self.dir)
                .map_err(|e| RepoError::persist_io("fsync event log directory", e))?;
            self.dir_sync_owed = false;
        }
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

    /// Crash-safe compaction onto `state`. The new manifest names a
    /// *fresh* generation, so the manifest rename is the single commit
    /// point: dying before it leaves the old manifest + old log (the
    /// pre-checkpoint state, fully replayable); dying after it leaves the
    /// new manifest whose log is empty or absent (exactly the
    /// checkpointed state). The superseded generation's files are removed
    /// opportunistically afterwards.
    fn start_generation(
        &mut self,
        follows: Option<&Follows>,
        state: &RepositorySnapshot,
    ) -> Result<(), RepoError> {
        let n: u64 = self
            .generation
            .strip_prefix("events-")
            .and_then(|s| s.strip_suffix(C::SUFFIX))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let next = format!("events-{}{}", n + 1, C::SUFFIX);
        let crc = write_manifest_in(&self.dir, &next, follows, state)?;
        // Past the commit point: the writer moves to the fresh
        // generation. Staged bytes are superseded by the manifest's
        // snapshot, so they need no fsync of their own.
        let old = std::mem::replace(&mut self.generation, next);
        self.manifest_crc = Some(crc);
        self.segment = 0;
        self.segment_len = 0;
        self.generation_bytes = 0;
        self.appender = None;
        self.dirty = false;
        for name in segment_files(&self.dir, &old).unwrap_or_default() {
            std::fs::remove_file(self.dir.join(name)).ok();
        }
        Ok(())
    }
}

impl<C: Codec> StorageBackend for SegmentedLog<C> {
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
        self.dirty = true;
        Ok(())
    }

    /// Crash-safe compaction onto `snapshot`, an arbitrary state: the
    /// manifest records no position it follows (see
    /// `SegmentedLog::start_generation`).
    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        self.start_generation(None, snapshot)
    }

    /// Recover from the on-disk manifest, replaying the generation *the
    /// manifest names*, so reads are consistent even if a foreign writer
    /// advanced the generation behind this instance's back.
    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        GenerationLog::restore_with_pending(self).map(|(state, _)| state)
    }

    /// One fsync covering every batch staged since the last call. A no-op
    /// when nothing is staged. Segments sealed since the last call were
    /// fsynced as they rolled, so only the live segment needs syncing.
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        if self.dirty {
            self.sync()?;
            self.dirty = false;
        }
        Ok(())
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.tail_repaired.clone()
    }
}

/// The file holding segment `segment` of `generation`: a segmented
/// format's `<generation>.NNNNNN` (zero-padded, so lexical order is
/// numeric order), or the generation's own name for a format that never
/// rolls. The one rule writers and readers both name segments by.
pub(crate) fn segment_file(generation: &str, segmented: bool, segment: u32) -> String {
    if segmented {
        format!("{generation}.{segment:06}")
    } else {
        generation.to_string()
    }
}

/// The segment index of a log file name, `None` for an unsegmented one.
fn segment_index(file: &str) -> Option<u32> {
    file.rsplit_once('.')?.1.parse().ok()
}

/// Generation 0's name in each log format: what a directory without a
/// manifest holds once a writer of that format has started it.
pub(crate) fn first_generations() -> impl Iterator<Item = String> {
    SUFFIXES.iter().map(|suffix| format!("events-0{suffix}"))
}

/// The file a writer of `generation` creates next, after `last` (the
/// generation's current last file, `None` when it has none yet): the
/// following segment, the first file when there is none, and `None` for
/// an unsegmented generation that already has its one file. A reader
/// that knows a generation's files stats this name to learn, without
/// listing the directory, that the writer has not rolled.
pub(crate) fn successor_file(generation: &str, last: Option<&str>) -> Option<String> {
    let segmented = crate::binlog::is_binary_generation(generation);
    match last {
        None => Some(segment_file(generation, segmented, 0)),
        Some(_) if !segmented => None,
        Some(last) => Some(segment_file(generation, true, segment_index(last)? + 1)),
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

/// What one [`read_generation`] saw.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct GenerationRead {
    /// The intact events at or after the offset read from, in log order.
    pub(crate) events: Vec<RepoEvent>,
    /// The offset consumed: just past the last intact record read.
    pub(crate) end: u64,
    /// The generation's files in log order, each with the size it was
    /// read at, so a tail can later tell by stats alone that nothing
    /// moved. Their sum exceeds `end` by a torn tail's bytes.
    pub(crate) files: Vec<(String, u64)>,
}

/// Read generation `generation` of `dir` from global byte `offset`, a
/// record boundary an earlier read returned: the one reader behind
/// restore, cold open and the incremental tail, and the one place a
/// generation's format is picked from its name.
///
/// `Ok(None)` means the log is now shorter than `offset` (checkpoint
/// rolled or truncated by a foreign hand) and the caller must re-base.
/// Otherwise the result holds the intact events at or after `offset`,
/// the offset consumed, and the file list the read was planned from; a
/// torn tail stays unconsumed for a later read. Without `known` files
/// the read lists the directory and stats each file. A caller that
/// polls keeps the list and probes it instead, and passes it as `known`
/// when only the last file grew (see [`crate::replica::LogTail`]).
///
/// With a `pool`, files split into record-aligned ranges decoded on its
/// workers and spliced back in log order, so which corrupt offset
/// surfaces is the first in log order, exactly as without one.
pub(crate) fn read_generation(
    dir: &Path,
    generation: &str,
    offset: u64,
    known: Option<Vec<(String, u64)>>,
    pool: Option<&crate::runtime::WorkerPool>,
) -> Result<Option<GenerationRead>, RepoError> {
    let files = match known {
        Some(files) => files,
        None => {
            let mut files = Vec::new();
            for name in segment_files(dir, generation)? {
                let size = len_or_absent(&dir.join(&name))?;
                files.push((name, size));
            }
            files
        }
    };
    if crate::binlog::is_binary_generation(generation) {
        read_generation_as::<FrameCodec>(dir, files, offset, pool)
    } else {
        read_generation_as::<JsonlCodec>(dir, files, offset, pool)
    }
}

fn read_generation_as<C: Codec>(
    dir: &Path,
    files: Vec<(String, u64)>,
    offset: u64,
    pool: Option<&crate::runtime::WorkerPool>,
) -> Result<Option<GenerationRead>, RepoError> {
    use std::io::{Read, Seek, SeekFrom};
    // A one-worker pool has nothing to fan out to: read as without one,
    // so no file is walked twice to cut ranges for a single worker.
    let pool = pool.filter(|pool| pool.threads() > 1);
    let total: u64 = files.iter().map(|(_, size)| size).sum();
    if total <= offset {
        return Ok((total == offset).then(|| GenerationRead {
            events: Vec::new(),
            end: offset,
            files,
        }));
    }
    // A few ranges per worker, so one dense range cannot serialise the
    // decode, with a floor that keeps small reads from paying scatter
    // overhead per record. Without a pool every file is one range.
    let range_bytes = pool.map_or(usize::MAX, |pool| {
        ((total - offset) as usize / (pool.threads() * 4)).max(64 * 1024)
    });
    let mut jobs = Vec::new();
    let mut base = 0;
    for (i, (name, size)) in files.iter().enumerate() {
        let size = *size;
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
    Ok(Some(GenerationRead {
        events,
        end: consumed,
        files,
    }))
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

    /// Checkpoint `state`, which must be the current base folded with
    /// every record of the current generation. Unlike
    /// [`StorageBackend::checkpoint`], the manifest then records the
    /// position that fold follows, so a tail that has applied exactly
    /// those records crosses to the new generation without reading the
    /// state.
    fn checkpoint_fold(&mut self, state: &RepositorySnapshot) -> Result<(), RepoError>;

    /// Remove every generation file, of either format, that is not the
    /// current generation's. `checkpoint` already unlinks the generation
    /// it supersedes; this sweeps up strays left by crashes in the
    /// checkpoint window or by a conversion. Returns how many files were
    /// removed.
    fn prune_stale_generations(&self) -> Result<usize, RepoError>;
}

impl<C: Codec> GenerationLog for SegmentedLog<C> {
    fn open_dir(dir: &Path) -> Result<SegmentedLog<C>, RepoError> {
        SegmentedLog::open(dir)
    }

    fn restore_with_pending(&self) -> Result<(RepositorySnapshot, usize), RepoError> {
        let (base, generation) = match read_manifest(&self.dir)? {
            Some(manifest) => (manifest.state, manifest.log),
            None => (RepositorySnapshot::empty(""), self.generation.clone()),
        };
        let events = Self::read_generation_events(&self.dir, &generation)?;
        Ok((replay(base, &events), events.len()))
    }

    fn checkpoint_fold(&mut self, state: &RepositorySnapshot) -> Result<(), RepoError> {
        let follows = Follows {
            log: self.generation.clone(),
            bytes: self.generation_bytes,
            after: self.manifest_crc,
        };
        self.start_generation(Some(&follows), state)
    }

    fn prune_stale_generations(&self) -> Result<usize, RepoError> {
        let mut removed = 0;
        for name in self.generation_files()? {
            if generation_of(&name) != self.generation {
                std::fs::remove_file(self.dir.join(&name)).map_err(io_err)?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// When an [`AutoCompactingEventLog`] checkpoints: once a batch would
/// bring the events recorded since the last checkpoint to
/// `checkpoint_every` (see the module docs for where it cuts). Restores
/// therefore replay at most `checkpoint_every - 1 + max_group_events`
/// events, and the directory holds O(1) generations no matter how long
/// the repository lives.
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
/// background durability pipeline compact off-thread. Each automatic
/// checkpoint records the position its fold follows, so caught-up tails
/// cross it without reading its state (see the module docs). Superseded
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
    /// Whether `state` is known to be the base folded with every record
    /// of the current generation, so a compaction may record the
    /// position it follows. A failed `record` may have left bytes the
    /// fold lacks, so it clears this until the next checkpoint.
    fold_exact: bool,
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
            fold_exact: true,
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

    /// Events recorded since the last checkpoint (what a restore would
    /// have to replay).
    pub fn events_since_checkpoint(&self) -> usize {
        self.since_checkpoint
    }

    fn budget(&self) -> usize {
        self.policy.checkpoint_every.max(1)
    }

    fn maybe_checkpoint(&mut self) -> Result<(), RepoError> {
        if self.since_checkpoint >= self.budget() {
            self.compact_now()?;
        }
        Ok(())
    }

    /// One automatic compaction pass: checkpoint the folded state,
    /// recording the position it follows when the fold is exact, prune
    /// stale generations, publish to the observer if one is installed.
    fn compact_now(&mut self) -> Result<(), RepoError> {
        if self.fold_exact {
            self.inner.checkpoint_fold(&self.state)?;
        } else {
            self.inner.checkpoint(&self.state)?;
        }
        self.compacted()
    }

    /// The accounting after a checkpoint of `state` committed.
    fn compacted(&mut self) -> Result<(), RepoError> {
        self.fold_exact = true;
        let pruned = self.inner.prune_stale_generations()?;
        self.since_checkpoint = 0;
        self.checkpoints += 1;
        self.pruned_files += pruned as u64;
        if let Some((health, component)) = &self.observer {
            health.report(
                component,
                HealthReport::Compaction {
                    checkpoints: self.checkpoints,
                    pruned_files: self.pruned_files,
                },
            );
        }
        Ok(())
    }
}

impl<B: GenerationLog> StorageBackend for AutoCompactingEventLog<B> {
    /// A batch that would bring the events since the last checkpoint to
    /// the budget first checkpoints the fold already recorded, where a
    /// caught-up tail stands, then opens the new generation; a batch
    /// that reaches the budget alone is checkpointed after it. Either
    /// way fewer than the budget stay pending.
    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        if events.len() < self.budget() && self.since_checkpoint + events.len() >= self.budget() {
            self.compact_now()?;
        }
        if let Err(e) = self.inner.record(events) {
            self.fold_exact = false;
            return Err(e);
        }
        for event in events {
            apply_event(&mut self.state, event);
        }
        self.since_checkpoint += events.len();
        self.maybe_checkpoint()
    }

    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        self.inner.checkpoint(snapshot)?;
        self.state = snapshot.clone();
        self.compacted()
    }

    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        self.inner.restore()
    }

    fn flush_durable(&mut self) -> Result<(), RepoError> {
        self.inner.flush_durable()
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
        assert!(backend.pending_events() > 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // Checkpoint compacts without changing the restored state.
        backend.checkpoint(&r.snapshot()).unwrap();
        assert_eq!(backend.pending_events(), 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
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

    #[test]
    fn manifest_crc_covers_the_bytes_read_up_to_the_writers_exact_tail() {
        let dir = unique_dir("manifest-tail");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        let path = dir.join("checkpoint.json");
        let written = std::fs::read_to_string(&path).unwrap();
        let manifest = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(manifest.state, r.snapshot());
        let rewritten = manifest_json(&manifest.log, manifest.follows.as_ref(), &manifest.state);
        assert_eq!(
            rewritten.unwrap(),
            (written.clone(), manifest.crc32.unwrap())
        );

        // A manifest from before the checksum existed is accepted as-is.
        let (unchecked, _) = written.rsplit_once(",\"crc32\":").unwrap();
        std::fs::write(&path, format!("{unchecked}}}")).unwrap();
        assert_eq!(
            read_manifest(&dir).unwrap(),
            Some(Manifest {
                crc32: None,
                ..manifest.clone()
            })
        );

        // Each of these parses to the same manifest, but its tail is not
        // the one the writer produced.
        let (body, crc) = written.rsplit_once(",\"crc32\":").unwrap();
        let stored = crc.strip_suffix('}').unwrap();
        for tampered in [
            format!("{written}\n"),
            format!("{body}, \"crc32\":{crc}"),
            format!("{body},\"crc32\":{stored} }}"),
        ] {
            std::fs::write(&path, &tampered).unwrap();
            match read_manifest(&dir) {
                Err(RepoError::CorruptManifest { .. }) => {}
                other => panic!("{tampered:?} gave {other:?}, not CorruptManifest"),
            }
        }
        // A leading zero is outside the JSON grammar: a parse error.
        std::fs::write(&path, format!("{body},\"crc32\":0{crc}")).unwrap();
        assert!(matches!(read_manifest(&dir), Err(RepoError::Persist(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_manifest_serialises_follows_before_the_state() {
        let dir = unique_dir("manifest-shape");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        let written = std::fs::read_to_string(dir.join("checkpoint.json")).unwrap();
        let (body, _) = written.rsplit_once(",\"crc32\":").unwrap();

        // The shape before `follows` existed, serialised as it was.
        #[derive(Serialize)]
        struct Legacy {
            log: String,
            state: RepositorySnapshot,
        }
        let legacy = serde_json::to_string(&Legacy {
            log: "events-1.jsonl".to_string(),
            state: r.snapshot(),
        })
        .unwrap();
        let with_follows = legacy.replacen(",\"state\":", ",\"follows\":null,\"state\":", 1);
        assert_eq!(format!("{body}}}"), with_follows);
        let manifest = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(
            manifest.follows, None,
            "an explicit checkpoint follows nothing"
        );

        // A legacy manifest, sealed as the writer sealed it, reads back
        // without a position.
        let sealed = format!(
            "{},\"crc32\":{}}}",
            &legacy[..legacy.len() - 1],
            crate::binlog::crc32(legacy.as_bytes())
        );
        std::fs::write(dir.join("checkpoint.json"), sealed).unwrap();
        let manifest = read_manifest(&dir).unwrap().unwrap();
        assert_eq!((manifest.follows, manifest.state), (None, r.snapshot()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_automatic_compaction_records_the_position_its_fold_follows() {
        let dir = unique_dir("manifest-follows");
        let r = busy_repository();
        let events = r.drain_events();
        let mut backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 2,
            },
        )
        .unwrap();
        let len = |event: &RepoEvent| {
            let mut bytes = Vec::new();
            JsonlCodec::encode(event, &mut bytes).unwrap();
            bytes.len() as u64
        };
        // The second event would reach the budget: the first is
        // checkpointed before it, at the end of generation 0.
        backend.record(&events[..1]).unwrap();
        backend.record(&events[1..2]).unwrap();
        let first = read_manifest(&dir).unwrap().unwrap();
        let follows = Follows {
            log: "events-0.jsonl".to_string(),
            bytes: len(&events[0]),
            after: None,
        };
        assert_eq!(
            (first.log.as_str(), first.follows),
            ("events-1.jsonl", Some(follows))
        );
        backend.record(&events[2..3]).unwrap();
        let second = read_manifest(&dir).unwrap().unwrap();
        let follows = Follows {
            log: "events-1.jsonl".to_string(),
            bytes: len(&events[1]),
            after: first.crc32,
        };
        assert_eq!(second.follows, Some(follows));
        assert_eq!(backend.events_since_checkpoint(), 1);

        // A batch that reaches the budget alone is checkpointed after it.
        backend.record(&events[3..]).unwrap();
        assert_eq!(backend.events_since_checkpoint(), 0);
        let third = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(third.state, r.snapshot());
        let bytes = events[2..].iter().map(len).sum();
        assert_eq!(third.follows.map(|follows| follows.bytes), Some(bytes));
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
        torn_tail_is_dropped_by_reads_and_repaired_at_open,
        prune_removes_only_superseded_generations,
        pending_events_counts_records_without_decoding,
        checkpoint_rolls_the_persistent_appender,
        tail_reads_resume_at_record_boundaries_and_detect_rolls,
        a_new_log_file_fsyncs_its_directory_once,
        opening_a_new_log_fsyncs_each_created_directorys_parent,
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

            // Record in two batches, as a live system would.
            let events = r.drain_events();
            let (a, b) = events.split_at(events.len() / 2);
            backend.record(a).unwrap();
            backend.record(b).unwrap();
            backend.flush_durable().unwrap();
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

            // Records only stage, yet are visible to readers before the
            // fsync point; one flush covers them all.
            let events = r.drain_events();
            let (a, b) = events.split_at(events.len() / 2);
            backend.record(a).unwrap();
            backend.record(b).unwrap();
            assert_eq!(backend.fsyncs(), 0, "record only stages");
            assert_eq!(backend.pending_events().unwrap(), events.len());
            backend.flush_durable().unwrap();
            assert_eq!(backend.fsyncs(), 1);
            // Idempotent: nothing staged, nothing to sync.
            backend.flush_durable().unwrap();
            assert_eq!(backend.fsyncs(), 1, "clean flush is a no-op");
            assert_eq!(backend.restore().unwrap(), r.snapshot());

            // A fresh process over the directory sees the flushed state.
            let reopened = SegmentedLog::<C>::open(&dir).unwrap();
            assert_eq!(reopened.restore().unwrap(), r.snapshot());

            // Across a checkpoint the next staged batch fsyncs once more.
            backend.checkpoint(&r.snapshot()).unwrap();
            comment(&r, "post-roll");
            backend.record(&r.drain_events()).unwrap();
            backend.flush_durable().unwrap();
            assert_eq!(backend.fsyncs(), 2);
            assert_eq!(backend.restore().unwrap(), r.snapshot());
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
            let read = |offset| {
                read_generation(&dir, &generation, offset, None, None)
                    .unwrap()
                    .map(|read| (read.events, read.end))
            };
            let (first, offset) = read(0).unwrap();
            assert_eq!(first.len(), a.len());
            assert_eq!(offset, generation_len(&dir, &generation).unwrap());
            // Unchanged log: no events, and the offset stays.
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
            assert_eq!(
                read_generation(&dir, rolled, end, None, None).unwrap(),
                None
            );
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn a_new_log_file_fsyncs_its_directory_once<C: Codec>() {
            let dir = dir::<C>("dir-sync");
            let r = busy_repository();
            let synced = |backend: &mut SegmentedLog<C>, events: &[RepoEvent]| {
                let before = dirs_synced();
                backend.record(events).unwrap();
                backend.flush_durable().unwrap();
                dirs_synced() - before
            };
            let mut backend = SegmentedLog::<C>::open(&dir).unwrap();
            let events = r.drain_events();
            // The first record creates generation 0's first file; the
            // next one appends to it.
            assert_eq!(synced(&mut backend, &events[..1]), 1, "first record");
            assert_eq!(synced(&mut backend, &events[1..]), 0, "steady state");
            // The first record after a checkpoint creates the new
            // generation's first file.
            backend.checkpoint(&r.snapshot()).unwrap();
            comment(&r, "after the checkpoint");
            assert_eq!(synced(&mut backend, &r.drain_events()), 1, "new generation");
            comment(&r, "steady");
            assert_eq!(synced(&mut backend, &r.drain_events()), 0, "steady state");
            if C::SEGMENTED {
                // Under a cap the live segment already exceeds, the next
                // record rolls onto a new successor file.
                let mut backend = SegmentedLog::<C>::open_with_segment_bytes(&dir, 64).unwrap();
                comment(&r, "rolls");
                assert_eq!(synced(&mut backend, &r.drain_events()), 1, "a roll");
                assert_eq!(backend.generation_files().unwrap().len(), 2);
            }
            assert_eq!(
                SegmentedLog::<C>::open(&dir).unwrap().restore().unwrap(),
                r.snapshot()
            );
            std::fs::remove_dir_all(&dir).ok();
        }

        pub(super) fn opening_a_new_log_fsyncs_each_created_directorys_parent<C: Codec>() {
            let root = dir::<C>("dir-create");
            let log = root.join("log");
            let opened = || {
                let before = dirs_synced();
                SegmentedLog::<C>::open(&log).unwrap();
                dirs_synced() - before
            };
            // Both levels are new: the temporary directory's entry for
            // `root` and `root`'s entry for `log` are each synced once.
            assert_eq!(opened(), 2, "a new two-level path");
            assert_eq!(opened(), 0, "an existing directory");
            std::fs::remove_dir_all(&root).ok();
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
            HealthReport::Compaction { checkpoints, .. } => {
                assert!(checkpoints >= 2, "auto passes plus the explicit one");
                assert_eq!(checkpoints, backend.compactions());
            }
            ref other => panic!("expected a compaction report, got {other:?}"),
        }

        // The binary instantiation publishes under its own component.
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
            HealthReport::Compaction { checkpoints, .. } => {
                assert_eq!(checkpoints, binary.compactions())
            }
            ref other => panic!("expected a compaction report, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&bin_dir).ok();
    }
}
