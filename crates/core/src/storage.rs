//! Pluggable persistence: the [`StorageBackend`] trait and its three
//! implementations.
//!
//! * [`MemoryBackend`] — snapshot + event log held in memory; the unit-test
//!   and caching substrate.
//! * [`JsonFileBackend`] — one pretty-printed JSON snapshot file, the
//!   format [`crate::persist`] has always written (archives stay
//!   readable). Recording deltas rewrites the whole file, so its cost
//!   scales with repository size — it is the compatibility backend.
//! * [`EventLogBackend`] — an append-only generation log of [`RepoEvent`]
//!   lines next to an optional checkpoint manifest; recording a delta
//!   batch is O(batch), and recovery is checkpoint + replay. This is the
//!   scaling backend.
//!
//! All three observe the same contract, checked in
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
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

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

fn io_err(e: std::io::Error) -> RepoError {
    RepoError::Persist(e.to_string())
}

/// The typed error for a complete-but-unparseable JSONL line: a
/// [`RepoError::CorruptFrame`] whose offset is the line's first byte —
/// the boundary a `SalvagePrefix` recovery truncates at. `segment` is
/// the log file's relative name, mirroring the binary log's frames.
pub(crate) fn corrupt_jsonl_line(
    segment: &str,
    offset: u64,
    err: &dyn std::fmt::Display,
) -> RepoError {
    RepoError::CorruptFrame {
        segment: segment.to_string(),
        offset,
        reason: format!("corrupt event log line: {err}"),
    }
}

/// A path's file name for corruption reports (lossy; logs are ASCII).
pub(crate) fn segment_name(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
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

/// The checkpoint manifest an [`EventLogBackend`] persists: the base
/// state plus the name of the generation log file its deltas live in.
/// Keeping both in one file makes the manifest rename the single atomic
/// commit point of a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Manifest {
    /// Log file (relative to the backend directory) this base replays.
    pub(crate) log: String,
    /// The checkpointed base state.
    pub(crate) state: RepositorySnapshot,
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
pub(crate) fn manifest_json(manifest: &Manifest) -> Result<String, RepoError> {
    let body = serde_json::to_string(manifest)
        .map_err(|e| RepoError::Persist(format!("cannot serialise manifest: {e}")))?;
    let crc = crate::binlog::crc32(body.as_bytes());
    debug_assert!(body.ends_with('}'));
    Ok(format!("{},\"crc32\":{crc}}}", &body[..body.len() - 1]))
}

/// Write `manifest` to `dir/checkpoint.json` with the atomic
/// write-fsync-rename protocol both log backends share: the rename is
/// the single commit point of a checkpoint, so a crash at any step
/// leaves either the old manifest or the new one, never a torn mix.
pub(crate) fn write_manifest_in(dir: &Path, manifest: &Manifest) -> Result<(), RepoError> {
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

/// Append-only event-log backend: a generation log file (`events-<n>.jsonl`,
/// one serialised [`RepoEvent`] per line) beside an optional
/// `checkpoint.json` manifest. Recording appends through a persistent
/// appender handle (opened once per generation, not per call);
/// checkpointing writes a new manifest pointing at a fresh empty log
/// generation (one atomic rename of the fsynced manifest is the commit
/// point, so a crash at any step leaves a state `restore` recovers
/// exactly); recovery is snapshot + replay, tolerating a torn final line
/// from an append cut short mid-write.
///
/// Durability is two-phase (see the module docs): in the default
/// [`DurabilityMode::PerBatch`], `record` fsyncs before returning; in
/// [`DurabilityMode::GroupCommit`] it only stages, and
/// [`StorageBackend::flush_durable`] issues the one `sync_all` covering
/// every staged batch.
///
/// The backend assumes a single writer per directory (the current log
/// generation is cached at `open` and only advanced by this instance's
/// own `checkpoint`); concurrent readers are fine.
#[derive(Debug)]
pub struct EventLogBackend {
    dir: PathBuf,
    /// Current generation's log file name, relative to `dir`.
    log: String,
    durability: DurabilityMode,
    /// The persistent appender for the current generation, opened lazily
    /// on first `record` and dropped when `checkpoint` rolls the
    /// generation.
    appender: Option<File>,
    /// Bytes staged (written but not fsynced) since the last
    /// `flush_durable` — only ever true in [`DurabilityMode::GroupCommit`].
    dirty: bool,
    /// Fsyncs this instance has issued.
    fsyncs: u64,
    /// The torn-tail truncation `open` performed, if any.
    tail_repaired: Option<TailRepaired>,
}

/// A clone is a fresh writer over the same directory and generation: it
/// opens its own appender on first use and owes no fsync for bytes the
/// original staged (those remain the original's to flush). It performed
/// no open-time repair, so it carries no `tail_repaired` note.
impl Clone for EventLogBackend {
    fn clone(&self) -> EventLogBackend {
        EventLogBackend {
            dir: self.dir.clone(),
            log: self.log.clone(),
            durability: self.durability,
            appender: None,
            dirty: false,
            fsyncs: 0,
            tail_repaired: None,
        }
    }
}

impl EventLogBackend {
    /// Open (creating the directory if needed) an event log under `dir`.
    ///
    /// Opening also *repairs* a torn final append in the current
    /// generation: a process killed mid-`write` leaves a partial last
    /// line, and a fresh writer appending after it would concatenate the
    /// next event into the fragment and corrupt the log. The fragment was
    /// never durable (reads have always dropped it), so truncating it at
    /// open loses nothing.
    pub fn open(dir: impl Into<PathBuf>) -> Result<EventLogBackend, RepoError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(io_err)?;
        let log = match Self::read_manifest_in(&dir)? {
            Some(manifest) => manifest.log,
            None => crate::binlog::unmanifested_generation(&dir),
        };
        if crate::binlog::is_binary_generation(&log) {
            return Err(RepoError::Persist(format!(
                "directory holds a binary event log (generation `{log}`); \
                 open it with BinaryLogBackend or convert it with bx_logconv"
            )));
        }
        let mut backend = EventLogBackend {
            dir,
            log,
            durability: DurabilityMode::default(),
            appender: None,
            dirty: false,
            fsyncs: 0,
            tail_repaired: None,
        };
        backend.tail_repaired = backend.repair_torn_tail()?;
        Ok(backend)
    }

    /// The active [`DurabilityMode`].
    pub fn durability(&self) -> DurabilityMode {
        self.durability
    }

    /// Fsyncs this instance has issued (each a full [`File::sync_all`]).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// The persistent appender for the current generation, opened on
    /// first use. `checkpoint` drops it when the generation rolls, so a
    /// stale handle can never append to a superseded log.
    fn appender(&mut self) -> Result<&mut File, RepoError> {
        if self.appender.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.log_path())
                .map_err(|e| RepoError::persist_io("open event log appender", e))?;
            self.appender = Some(file);
        }
        Ok(self.appender.as_mut().expect("appender was just opened"))
    }

    /// Truncate an unterminated final line (torn append) off the current
    /// generation's log, if there is one, returning a note of what was
    /// dropped.
    fn repair_torn_tail(&self) -> Result<Option<TailRepaired>, RepoError> {
        let path = self.log_path();
        if !path.exists() {
            return Ok(None);
        }
        let bytes = std::fs::read(&path).map_err(io_err)?;
        if bytes.is_empty() || bytes.ends_with(b"\n") {
            return Ok(None);
        }
        let keep = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        let file = OpenOptions::new().write(true).open(&path).map_err(io_err)?;
        file.set_len(keep as u64).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        Ok(Some(TailRepaired {
            file: self.log.clone(),
            bytes_dropped: (bytes.len() - keep) as u64,
        }))
    }

    /// The current generation's log file name (relative to the backend
    /// directory).
    pub fn current_generation(&self) -> &str {
        &self.log
    }

    /// Every generation log file present in the directory, sorted. A
    /// healthy, compacted directory holds at most one (the current
    /// generation, which may also be absent right after a checkpoint).
    pub fn generation_files(&self) -> Result<Vec<String>, RepoError> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(io_err)? {
            let entry = entry.map_err(io_err)?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("events-") && name.ends_with(".jsonl") {
                files.push(name);
            }
        }
        files.sort();
        Ok(files)
    }

    /// Remove superseded generation logs: every `events-*.jsonl` other
    /// than the current generation. `checkpoint` already unlinks the one
    /// generation it supersedes; this sweeps up strays left by crashes in
    /// the checkpoint window. Returns how many files were removed.
    pub fn prune_stale_generations(&self) -> Result<usize, RepoError> {
        let mut removed = 0;
        for name in self.generation_files()? {
            if name != self.log {
                std::fs::remove_file(self.dir.join(&name)).map_err(io_err)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// The checkpointed base state and current generation log name of an
    /// event-log directory, read without opening a writer (and therefore
    /// without the open-time torn-tail repair): `(base, log)` from the
    /// manifest, or the empty state and the initial generation when no
    /// checkpoint exists yet (binary if generation-0 binary segments are
    /// present, the JSONL default otherwise). This is the read-side entry
    /// point replicas tail from; the generation name's extension tells
    /// the caller which format to read
    /// ([`crate::binlog::is_binary_generation`]).
    pub fn read_state_in(dir: &Path) -> Result<(RepositorySnapshot, String), RepoError> {
        Ok(match Self::read_manifest_in(dir)? {
            Some(manifest) => (manifest.state, manifest.log),
            None => (
                RepositorySnapshot::empty(""),
                crate::binlog::unmanifested_generation(dir),
            ),
        })
    }

    /// The events of one log generation in `dir`, whichever format the
    /// generation name declares — JSONL lines or binary frames. A torn
    /// tail is dropped in both formats; real corruption surfaces as the
    /// typed [`RepoError::CorruptFrame`] in both, with the offset of the
    /// first byte the reader could not trust.
    pub fn read_generation_events(
        dir: &Path,
        generation: &str,
    ) -> Result<Vec<RepoEvent>, RepoError> {
        if crate::binlog::is_binary_generation(generation) {
            crate::binlog::read_generation(dir, generation)
        } else {
            Self::read_log_file(&dir.join(generation))
        }
    }

    /// Recover the durable state of an event-log directory purely by
    /// reading: manifest base + replay of the intact records of the
    /// generation it names — transparently for either on-disk format.
    /// Unlike `EventLogBackend::open(dir)?.restore()`
    /// this never mutates the directory (no torn-tail repair), so tests
    /// and tooling can compute the expected fold of a directory that is
    /// concurrently being tailed or deliberately left torn.
    ///
    /// This sequential path is the oracle for
    /// [`EventLogBackend::restore_dir_on`], which runs the same recovery
    /// through the parallel pipeline.
    pub fn restore_dir(dir: &Path) -> Result<RepositorySnapshot, RepoError> {
        let (base, log) = Self::read_state_in(dir)?;
        Ok(replay(base, &Self::read_generation_events(dir, &log)?))
    }

    /// [`EventLogBackend::restore_dir`] through the parallel restore
    /// pipeline on `runtime`'s workers: chunked decode (newline-aligned
    /// JSONL chunks, or one worker per binary segment), ordered splice,
    /// then the sharded [`crate::event::replay_parallel`] fold —
    /// bit-identical to the sequential path on every input, including
    /// which error a corrupt log surfaces (first offending offset in log
    /// order, regardless of worker completion order).
    pub fn restore_dir_on(
        dir: &Path,
        runtime: &Arc<crate::runtime::Runtime>,
    ) -> Result<RepositorySnapshot, RepoError> {
        let pool = runtime.pool();
        let (base, log) = Self::read_state_in(dir)?;
        let events = Self::read_generation_events_pooled(dir, &log, pool)?;
        Ok(crate::event::replay_parallel(base, events, pool))
    }

    /// Format-dispatched parallel generation read on an existing pool.
    pub(crate) fn read_generation_events_pooled(
        dir: &Path,
        generation: &str,
        pool: &crate::runtime::WorkerPool,
    ) -> Result<Vec<RepoEvent>, RepoError> {
        if crate::binlog::is_binary_generation(generation) {
            crate::binlog::read_generation_parallel(dir, generation, pool).map(|(events, _)| events)
        } else {
            Self::read_log_file_parallel(&dir.join(generation), pool)
        }
    }

    /// The intact complete lines of `text[..intact_end]` parsed as one
    /// event per line across the pool: the region splits into
    /// newline-aligned chunks, each worker parses its chunk's lines, and
    /// the chunks splice back in file order. A parse failure surfaces as
    /// the error of the **first** corrupt line in file order (ordered
    /// gather; within a chunk the scan stops at its first failure), so
    /// corruption reporting is deterministic regardless of worker timing
    /// — and byte-identical to what the sequential line loop raises.
    pub(crate) fn parse_jsonl_parallel(
        text: &Arc<String>,
        intact_end: usize,
        segment: &str,
        pool: &crate::runtime::WorkerPool,
    ) -> Result<Vec<RepoEvent>, RepoError> {
        // Aim for a few chunks per worker so one dense chunk cannot
        // serialise the whole decode, with a floor that keeps tiny logs
        // from paying scatter overhead per line.
        const MIN_CHUNK_BYTES: usize = 64 * 1024;
        let target_chunks = pool.threads() * 4;
        let chunk_bytes = (intact_end / target_chunks.max(1)).max(MIN_CHUNK_BYTES);
        let bytes = text.as_bytes();
        let mut ranges: Vec<(usize, usize)> = Vec::new();
        let mut start = 0usize;
        while start < intact_end {
            let mut end = (start + chunk_bytes).min(intact_end);
            // Advance to the next newline so every chunk holds whole
            // lines (the region ends on one by construction).
            while end < intact_end && bytes[end - 1] != b'\n' {
                end += 1;
            }
            ranges.push((start, end));
            start = end;
        }
        type ChunkParse = Result<Vec<RepoEvent>, RepoError>;
        let segment: Arc<str> = Arc::from(segment);
        let jobs: Vec<Box<dyn FnOnce() -> ChunkParse + Send>> = ranges
            .into_iter()
            .map(|(start, end)| {
                let text = Arc::clone(text);
                let segment = Arc::clone(&segment);
                Box::new(move || -> ChunkParse {
                    let mut events = Vec::new();
                    let mut pos = start;
                    for line in text[start..end].split_inclusive('\n') {
                        let at = pos;
                        pos += line.len();
                        let body = line.trim_end_matches(['\n', '\r']);
                        if body.trim().is_empty() {
                            continue;
                        }
                        events.push(
                            serde_json::from_str::<RepoEvent>(body)
                                .map_err(|e| corrupt_jsonl_line(&segment, at as u64, &e))?,
                        );
                    }
                    Ok(events)
                }) as Box<dyn FnOnce() -> ChunkParse + Send>
            })
            .collect();
        let mut events = Vec::new();
        for chunk in pool.scatter(jobs) {
            events.append(&mut chunk?);
        }
        Ok(events)
    }

    /// [`EventLogBackend::read_log_file`] across a pool: the complete
    /// lines decode chunked and spliced via
    /// [`EventLogBackend::parse_jsonl_parallel`]; the torn final line (no
    /// terminating newline) is then handled exactly as the sequential
    /// reader does — included if it parses, silently dropped if not.
    pub(crate) fn read_log_file_parallel(
        path: &Path,
        pool: &crate::runtime::WorkerPool,
    ) -> Result<Vec<RepoEvent>, RepoError> {
        if !path.exists() {
            return Ok(Vec::new());
        }
        let text = Arc::new(std::fs::read_to_string(path).map_err(io_err)?);
        let intact_end = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
        let mut events = Self::parse_jsonl_parallel(&text, intact_end, &segment_name(path), pool)?;
        let fragment = &text[intact_end..];
        if !fragment.trim().is_empty() {
            if let Ok(event) = serde_json::from_str::<RepoEvent>(fragment) {
                events.push(event);
            }
        }
        Ok(events)
    }

    /// Parse (and integrity-check) `dir/checkpoint.json`. `Ok(None)` when
    /// no checkpoint exists yet; [`RepoError::CorruptManifest`] when the
    /// manifest carries a `crc32` that does not match its body (a
    /// checksum-less manifest from an older writer is accepted as-is).
    pub(crate) fn read_manifest_in(dir: &Path) -> Result<Option<Manifest>, RepoError> {
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

    fn log_path(&self) -> PathBuf {
        self.dir.join(&self.log)
    }

    /// The intact event lines of a generation log. A final line missing
    /// its terminating newline is a torn append (the process died
    /// mid-write) and is dropped; a complete line that fails to parse is
    /// real corruption and surfaces as [`RepoError::CorruptFrame`] with
    /// the byte offset of the offending line's start.
    pub(crate) fn read_log_file(path: &Path) -> Result<Vec<RepoEvent>, RepoError> {
        if !path.exists() {
            return Ok(Vec::new());
        }
        let text = std::fs::read_to_string(path).map_err(io_err)?;
        let segment = segment_name(path);
        let mut events = Vec::new();
        let mut pos = 0usize;
        for line in text.split_inclusive('\n') {
            let at = pos;
            pos += line.len();
            let terminated = line.ends_with('\n');
            let body = line.trim_end_matches(['\n', '\r']);
            if body.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<RepoEvent>(body) {
                Ok(event) => events.push(event),
                // An unterminated final line is a torn append, never
                // durable: drop it.
                Err(_) if !terminated => break,
                Err(e) => return Err(corrupt_jsonl_line(&segment, at as u64, &e)),
            }
        }
        Ok(events)
    }

    /// How many deltas sit in the log beyond the last checkpoint.
    ///
    /// Counts intact (newline-terminated, non-empty) lines without
    /// parsing any of them — the count is needed on hot open/monitoring
    /// paths where deserialising every event just to discard it would
    /// dominate. A torn final line (no terminating newline) is not
    /// counted, exactly as [`Self::read_log_file`] would drop it; a
    /// complete-but-corrupt line still counts here and surfaces as an
    /// error at `restore` time instead.
    pub fn pending_events(&self) -> Result<usize, RepoError> {
        let path = self.log_path();
        if !path.exists() {
            return Ok(0);
        }
        let bytes = std::fs::read(&path).map_err(io_err)?;
        let mut count = 0usize;
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'\n' {
                if bytes[start..i].iter().any(|c| !c.is_ascii_whitespace()) {
                    count += 1;
                }
                start = i + 1;
            }
        }
        Ok(count)
    }

    /// `restore()` plus the replayed event count, off a single read of
    /// the log file (the open path of [`AutoCompactingEventLog`] needs
    /// both and should not parse the pending tail twice).
    fn restore_with_pending(&self) -> Result<(RepositorySnapshot, usize), RepoError> {
        let (base, log) = match Self::read_manifest_in(&self.dir)? {
            Some(manifest) => (manifest.state, manifest.log),
            None => (RepositorySnapshot::empty(""), self.log.clone()),
        };
        let events = Self::read_log_file(&self.dir.join(log))?;
        Ok((replay(base, &events), events.len()))
    }
}

impl StorageBackend for EventLogBackend {
    fn kind(&self) -> &'static str {
        "event-log"
    }

    fn record(&mut self, events: &[RepoEvent]) -> Result<(), RepoError> {
        if events.is_empty() {
            return Ok(());
        }
        let mut lines = String::new();
        for event in events {
            // Compact JSON keeps each event on one line (newlines inside
            // strings are escaped by the serialiser).
            lines.push_str(
                &serde_json::to_string(event)
                    .map_err(|e| RepoError::Persist(format!("cannot serialise event: {e}")))?,
            );
            lines.push('\n');
        }
        // One buffered write of the whole batch through the persistent
        // appender — the open cost was paid once at the generation start.
        let mode = self.durability;
        let file = self.appender()?;
        file.write_all(lines.as_bytes())
            .map_err(|e| RepoError::persist_io("append event log", e))?;
        match mode {
            DurabilityMode::PerBatch => {
                // "Durably append" means surviving power loss, not just a
                // process crash: flush the page cache before reporting
                // success. The append grew the segment, so the full
                // `sync_all` is required (the new length is metadata).
                file.sync_all()
                    .map_err(|e| RepoError::persist_io("fsync event log", e))?;
                self.fsyncs += 1;
            }
            DurabilityMode::GroupCommit => self.dirty = true,
        }
        Ok(())
    }

    /// Crash-safe compaction. The new manifest names a *fresh* log
    /// generation, so the manifest rename is the single commit point:
    /// dying before it leaves the old manifest + old log (the
    /// pre-checkpoint state, fully replayable); dying after it leaves the
    /// new manifest whose log is empty or absent (exactly the
    /// checkpointed state). The superseded generation's log is removed
    /// opportunistically afterwards.
    fn checkpoint(&mut self, snapshot: &RepositorySnapshot) -> Result<(), RepoError> {
        let old_log = self.log.clone();
        let generation: u64 = old_log
            .strip_prefix("events-")
            .and_then(|s| s.strip_suffix(".jsonl"))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let new_log = format!("events-{}.jsonl", generation + 1);
        let manifest = Manifest {
            log: new_log.clone(),
            state: snapshot.clone(),
        };
        write_manifest_in(&self.dir, &manifest)?;
        self.log = new_log;
        // The generation rolled: drop the superseded appender (the next
        // `record` opens one on the fresh log) and forget any staged
        // bytes — the manifest's snapshot supersedes them, so they need
        // no fsync of their own.
        self.appender = None;
        self.dirty = false;
        // Past the commit point: the old generation is garbage now.
        std::fs::remove_file(self.dir.join(old_log)).ok();
        Ok(())
    }

    /// Recover from the on-disk manifest, replaying the log generation
    /// *the manifest names* — so reads are consistent even if a foreign
    /// writer advanced the generation behind this instance's back.
    fn restore(&self) -> Result<RepositorySnapshot, RepoError> {
        let (base, log) = match Self::read_manifest_in(&self.dir)? {
            Some(manifest) => (manifest.state, manifest.log),
            None => (RepositorySnapshot::empty(""), self.log.clone()),
        };
        Ok(replay(base, &Self::read_log_file(&self.dir.join(log))?))
    }

    /// One fsync covering every batch staged since the last call. A no-op
    /// when nothing is staged — including the whole
    /// [`DurabilityMode::PerBatch`] regime, where `record` already synced.
    /// Staged batches always grew the segment, so the fsync is the full
    /// `sync_all` (the new length is metadata that must reach disk).
    fn flush_durable(&mut self) -> Result<(), RepoError> {
        if !self.dirty {
            return Ok(());
        }
        self.appender()?
            .sync_all()
            .map_err(|e| RepoError::persist_io("fsync event log", e))?;
        self.fsyncs += 1;
        self.dirty = false;
        Ok(())
    }

    /// Switching to [`DurabilityMode::PerBatch`] does not retroactively
    /// sync staged bytes — call [`StorageBackend::flush_durable`] first
    /// (the next per-batch `record`'s `sync_all` would cover them too).
    fn set_durability(&mut self, mode: DurabilityMode) {
        self.durability = mode;
    }

    fn tail_repaired(&self) -> Option<TailRepaired> {
        self.tail_repaired.clone()
    }
}

/// A generation-rolling log backend [`AutoCompactingEventLog`] can
/// wrap: both on-disk log formats (JSONL lines, binary frames) checkpoint
/// by rolling to a fresh generation behind one manifest rename, so the
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

impl GenerationLog for EventLogBackend {
    fn open_dir(dir: &Path) -> Result<EventLogBackend, RepoError> {
        EventLogBackend::open(dir)
    }

    fn restore_with_pending(&self) -> Result<(RepositorySnapshot, usize), RepoError> {
        EventLogBackend::restore_with_pending(self)
    }

    fn prune_stale_generations(&self) -> Result<usize, RepoError> {
        EventLogBackend::prune_stale_generations(self)
    }

    fn compacted_kind() -> &'static str {
        "event-log+auto-compact"
    }
}

impl GenerationLog for crate::binlog::BinaryLogBackend {
    fn open_dir(dir: &Path) -> Result<crate::binlog::BinaryLogBackend, RepoError> {
        crate::binlog::BinaryLogBackend::open(dir)
    }

    fn restore_with_pending(&self) -> Result<(RepositorySnapshot, usize), RepoError> {
        crate::binlog::BinaryLogBackend::restore_with_pending(self)
    }

    fn prune_stale_generations(&self) -> Result<usize, RepoError> {
        crate::binlog::BinaryLogBackend::prune_stale_generations(self)
    }

    fn compacted_kind() -> &'static str {
        "binary-log+auto-compact"
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
    use crate::principal::Principal;
    use crate::repo::Repository;
    use crate::template::{ExampleEntry, ExampleType};

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
    fn event_log_backend_appends_and_recovers() {
        let dir = unique_dir("log");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();

        // Record in two batches, as a live system would.
        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        backend.record(b).unwrap();
        assert_eq!(backend.pending_events().unwrap(), events.len());
        assert_eq!(backend.restore().unwrap(), r.snapshot());

        // A reopened backend (fresh process) sees the same state.
        let reopened = EventLogBackend::open(&dir).unwrap();
        assert_eq!(reopened.restore().unwrap(), r.snapshot());

        // Checkpointing compacts the log; recovery switches to
        // snapshot + (empty) replay.
        backend.checkpoint(&r.snapshot()).unwrap();
        assert_eq!(backend.pending_events().unwrap(), 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());

        // Deltas after the checkpoint replay on top of it.
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "post-checkpoint",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.pending_events().unwrap(), 1);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
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

    #[test]
    fn torn_final_append_recovers_the_intact_prefix() {
        let dir = unique_dir("torn");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        let expected = backend.restore().unwrap();
        // Simulate a crash mid-append: a final line with no newline.
        let log = dir.join("events-0.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("{\"Commented\":{\"id\":\"co");
        std::fs::write(&log, text).unwrap();
        assert_eq!(
            backend.restore().unwrap(),
            expected,
            "the torn tail is dropped, the intact prefix recovered"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_previous_generation_log_is_ignored_after_checkpoint() {
        // Simulate dying in the checkpoint window after the manifest
        // rename but before the old generation's log is unlinked: the
        // manifest points at the new (absent) log, so the stale events
        // must not be double-applied.
        let dir = unique_dir("stale");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        let events = r.drain_events();
        backend.record(&events).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        // Resurrect the superseded generation file by hand.
        let mut stale = String::new();
        for e in &events {
            stale.push_str(&serde_json::to_string(e).unwrap());
            stale.push('\n');
        }
        std::fs::write(dir.join("events-0.jsonl"), stale).unwrap();
        assert_eq!(backend.pending_events().unwrap(), 0);
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_repairs_a_torn_tail_so_appends_stay_clean() {
        let dir = unique_dir("repair");
        let r = busy_repository();
        let events = r.drain_events();
        let (before, after) = events.split_at(events.len() - 2);
        {
            let mut backend = EventLogBackend::open(&dir).unwrap();
            backend.record(before).unwrap();
        }
        // Crash mid-append: a partial final line with no newline.
        let log = dir.join("events-0.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("{\"Commented\":{\"id\":\"co");
        std::fs::write(&log, text).unwrap();
        // A fresh writer process appends the remaining events. Without the
        // open-time repair, its first line would fuse with the fragment
        // into a corrupt line.
        let mut backend = EventLogBackend::open(&dir).unwrap();
        let repair = backend
            .tail_repaired()
            .expect("the open-time repair is observable, never silent");
        assert_eq!(repair.file, "events-0.jsonl");
        assert_eq!(
            repair.bytes_dropped,
            "{\"Commented\":{\"id\":\"co".len() as u64
        );
        backend.record(after).unwrap();
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        assert_eq!(backend.pending_events().unwrap(), events.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_removes_only_superseded_generations() {
        let dir = unique_dir("prune");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        // Strand two stale generations, as a crash inside the checkpoint
        // window would.
        std::fs::write(dir.join("events-0.jsonl"), "junk\n").unwrap();
        std::fs::write(dir.join("events-7.jsonl"), "junk\n").unwrap();
        // The current generation has live post-checkpoint deltas.
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "live",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        assert_eq!(backend.prune_stale_generations().unwrap(), 2);
        assert_eq!(
            backend.generation_files().unwrap(),
            vec![backend.current_generation().to_string()]
        );
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
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

    #[test]
    fn group_commit_stages_then_one_flush_makes_everything_durable() {
        let dir = unique_dir("group-commit");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        assert_eq!(backend.durability(), DurabilityMode::PerBatch);
        backend.set_durability(DurabilityMode::GroupCommit);

        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        backend.record(b).unwrap();
        // Both batches are staged and visible to readers before the fsync
        // point; one flush covers them all.
        assert_eq!(backend.pending_events().unwrap(), events.len());
        backend.flush_durable().unwrap();
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        // Idempotent: nothing staged, nothing to sync.
        backend.flush_durable().unwrap();

        // A fresh process over the directory sees the flushed state.
        let reopened = EventLogBackend::open(&dir).unwrap();
        assert_eq!(reopened.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rolls_the_persistent_appender_to_the_new_generation() {
        let dir = unique_dir("appender-roll");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.set_durability(DurabilityMode::GroupCommit);
        backend.record(&r.drain_events()).unwrap();
        // Checkpoint mid-stage: the manifest supersedes the staged bytes,
        // the appender must re-open on the fresh generation.
        backend.checkpoint(&r.snapshot()).unwrap();
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "post-roll",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(backend.pending_events().unwrap(), 1);
        assert_eq!(backend.current_generation(), "events-1.jsonl");
        assert_eq!(backend.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pending_events_counts_lines_without_parsing() {
        let dir = unique_dir("pending-count");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        // Tear the tail as a mid-write kill would, and pad with a blank
        // line the parser has always skipped.
        let log = dir.join("events-0.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("   \n{\"Commented\":{\"id\":\"co");
        std::fs::write(&log, text).unwrap();
        // The intact-line count is pinned to what full parsing yields.
        let parsed = EventLogBackend::read_log_file(&log).unwrap().len();
        assert_eq!(backend.pending_events().unwrap(), parsed);
        assert!(parsed > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsyncs_count_per_batch_records_and_dirty_flushes_only() {
        let dir = unique_dir("fsync-count");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();

        // Per-batch: every record fsyncs.
        let events = r.drain_events();
        let (a, b) = events.split_at(events.len() / 2);
        backend.record(a).unwrap();
        assert_eq!(backend.fsyncs(), 1);

        // Group commit: record only stages, the flush is the fsync.
        backend.set_durability(DurabilityMode::GroupCommit);
        backend.record(b).unwrap();
        assert_eq!(backend.fsyncs(), 1, "record only stages");
        backend.flush_durable().unwrap();
        assert_eq!(backend.fsyncs(), 2);
        // Clean flush: no fsync.
        backend.flush_durable().unwrap();
        assert_eq!(backend.fsyncs(), 2, "clean flush is a no-op");
        assert_eq!(backend.restore().unwrap(), r.snapshot());

        // Across a checkpoint the next staged batch fsyncs once more.
        backend.checkpoint(&r.snapshot()).unwrap();
        r.comment(
            "alice",
            &crate::repo::EntryId::from_title("DATES"),
            "2014-05-01",
            "post-roll",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(backend.fsyncs(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_cloned_backend_owes_no_fsync_for_the_originals_staged_bytes() {
        let dir = unique_dir("clone-dirty");
        let r = busy_repository();
        let mut backend = EventLogBackend::open(&dir).unwrap();
        backend.set_durability(DurabilityMode::GroupCommit);
        backend.record(&r.drain_events()).unwrap();
        let mut clone = backend.clone();
        // The clone starts clean (its flush is a no-op) but shares the
        // directory, so reads agree; the original still flushes its own
        // staged bytes.
        clone.flush_durable().unwrap();
        backend.flush_durable().unwrap();
        assert_eq!(clone.restore().unwrap(), r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }
}
