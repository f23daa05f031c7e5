//! Read replicas and federation: replication by shipping the event log.
//!
//! ## One read node for one or N primaries
//!
//! A [`Federation`] is one read node tailing **N independent primaries**
//! (each its own event-log directory — local, over a network file
//! system, or rsynced from the primary — and its own [`LogTail`]) and
//! folding them into a single merged snapshot, search index and wiki
//! site, so a fleet of read nodes can serve search, wiki, citation and
//! manuscript reads while the primaries alone take writes. Every record
//! and account is namespaced by its [`SourceId`] (`"<source>/<id>"`), so
//! colliding entry ids from different primaries coexist instead of
//! clobbering each other.
//!
//! [`Federation::catch_up`] is cheap to call in a loop: within a log
//! generation it applies only the events appended since the last call;
//! when a primary has checkpointed (its manifest names a new
//! generation), that source *re-bases* — the federation adopts the
//! checkpoint state and patches the index and site for exactly the
//! records that differ. The merged state it converges to is specified
//! by the pure [`federate_snapshots`] fold, which the convergence
//! property tests (`tests/federation_convergence.rs`) pin it against
//! under interleaved writes, compaction, killed writers and torn
//! appends.
//!
//! A single read replica of one primary is a federation of one
//! [`SourceId::identity`] source, whose namespace is the identity: ids
//! and account names pass through unchanged. Left unnamed, it takes the
//! primary's name from the log, so once caught up it holds exactly the
//! primary's snapshot and cites under the primary's name
//! (`tests/replica_convergence.rs`):
//!
//! ```no_run
//! # use bx_core::replica::{Federation, SourceId};
//! let replica = Federation::open("", vec![(SourceId::identity(), "log-dir".into())])?;
//! # Ok::<(), bx_core::RepoError>(())
//! ```
//!
//! [`ReplicaDaemon`] wraps a federation in a background polling tenant
//! ([`DaemonConfig`] sets the cadence) with clean start/stop,
//! [`ReplicaDaemon::force_catch_up`] and [`DaemonStats`] (polls, events
//! applied, rebases). Everything per source — health, errors, lag —
//! stays on the federation, read through
//! [`ReplicaDaemon::with_federation`].
//!
//! ## Fault supervision
//!
//! Every federated source is watched by a circuit breaker
//! ([`crate::supervise`]): a failing source degrades, backs off under
//! the federation's [`RetryPolicy`], and is quarantined after repeated
//! failures, while [`Federation::catch_up`] **continues past it** —
//! healthy sources keep converging and the outcome carries the sick
//! sources' typed errors ([`FederationCatchUp::errors`]) instead of
//! aborting. Serving APIs keep answering from the last good merged
//! state; [`Federation::source_status`] exposes per-source staleness,
//! and every change of a source's state is published on an attached
//! runtime health channel as [`HealthReport::Source`].
//! Opting in to [`RecoveryPolicy::SalvagePrefix`] lets a quarantined
//! source that failed with a corruption error reopen from its intact
//! prefix, reporting exactly what was dropped as a [`SalvageReport`] —
//! never a silent skip. The default remains fail-stop: corruption keeps
//! the source quarantined until an operator intervenes.
//!
//! The replica side is read-only and crash-tolerant the same way
//! recovery is: a torn final append in a tailed log is ignored until the
//! primary's next durable write, and a reader that observed a
//! mid-checkpoint directory simply re-bases on its next poll. A source
//! directory that disappears after it has been tailed surfaces as a
//! typed [`RepoError::SourceUnavailable`], never a panic.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::cite;
use crate::error::RepoError;
use crate::event::{apply_event, dirty_set, replay, replay_parallel_with, EventSink, RepoEvent};
use crate::index::SearchIndex;
use crate::manuscript::{export_manuscript, ManuscriptOptions};
use crate::principal::Principal;
use crate::repo::{EntryId, EntryRecord, RepositorySnapshot};
use crate::runtime::{HealthReport, Runtime, RuntimeHealth, SerialTask, WorkerPool};
use crate::storage::{read_generation, EventLogBackend};
use crate::supervise::{
    RecoveryPolicy, RetryPolicy, SalvageReport, SourceHealth, SourceStatus, SourceSupervisor,
};
use crate::template::slug_of;
use crate::version::Version;
use crate::wiki::{render_entry, WikiSite};
use crate::wiki_bx::WikiBx;

/// What one [`Federation::catch_up`] pass did for one source.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatchUp {
    /// Events applied from the tailed generation.
    pub events_applied: usize,
    /// Whether the source re-based onto a new checkpoint generation.
    pub rebased: bool,
}

/// What one [`LogTail::poll`] observed, for the caller to fold into its
/// materializations: an optional new base to re-base onto, then events to
/// apply incrementally on top.
#[derive(Debug, Clone, Default)]
pub struct TailProgress {
    /// When present, the caller must adopt this state before applying
    /// `events` (the primary checkpointed, or the log shrank under us).
    pub new_base: Option<RepositorySnapshot>,
    /// Intact events appended since the last poll, in log order.
    pub events: Vec<RepoEvent>,
    /// Whether this poll crossed a checkpoint generation (or recovered
    /// from a foreign truncation).
    pub rebased: bool,
}

/// The tailing state machine over one event-log directory: byte-offset
/// incremental reads within a generation, manifest-stamp change detection,
/// re-base across checkpoint generations, torn-tail tolerance, and a typed
/// error when a directory that was being tailed disappears. A
/// [`Federation`] runs one per source.
///
/// A tail remembers the file list its last read was planned from, so a
/// poll of a log where nothing moved is a fixed handful of `stat`s: the
/// manifest, each of the generation's files (one, for a log below its
/// segment cap) and the name the writer's next segment would take. Only
/// a poll that sees one of them move lists the directory and reads.
#[derive(Debug)]
pub struct LogTail {
    dir: PathBuf,
    /// The log generation currently being tailed.
    generation: String,
    /// Intact events of that generation already applied.
    applied: usize,
    /// Byte offset just past the last applied intact line — where the
    /// next poll starts reading, so a poll that finds new bytes decodes
    /// only those, not the whole file.
    offset: u64,
    /// (mtime, len) of `checkpoint.json` when it was last parsed — the
    /// manifest embeds a whole snapshot, so polls skip re-parsing it
    /// until this stamp moves.
    manifest_stamp: Option<(std::time::SystemTime, u64)>,
    /// The generation's files and their sizes as the last read listed
    /// them; `None` until a poll has read. [`LogTail::probe`] stats these
    /// instead of listing the directory.
    files: Option<Vec<(String, u64)>>,
}

/// What [`LogTail::probe`] found.
enum Probe {
    /// Nothing moved since the last read: the manifest stamp and every
    /// listed size are unchanged and the writer has not rolled, so the
    /// generation is still `len` bytes long.
    Still { len: u64 },
    /// Something may have moved, so the poll reads. `file_seen`: one of
    /// the probed log files exists, so the directory does.
    Moved { file_seen: bool },
}

impl LogTail {
    /// Open a tail over `dir` (which may not exist yet — a primary that
    /// has not written) and return it with the base state the caller
    /// should materialize before the first [`LogTail::poll`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<(LogTail, RepositorySnapshot), RepoError> {
        let dir = dir.into();
        // Stamp before parse: a checkpoint racing this open makes the
        // first poll conservatively re-parse, never go stale.
        let manifest_stamp = Self::stat_manifest(&dir);
        let (base, generation) = EventLogBackend::read_state_in(&dir)?;
        Ok((
            LogTail {
                dir,
                generation,
                applied: 0,
                offset: 0,
                manifest_stamp,
                files: None,
            },
            base,
        ))
    }

    /// The directory being tailed.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Tail position: (current generation file, events applied from it).
    pub fn position(&self) -> (&str, usize) {
        (&self.generation, self.applied)
    }

    /// Bytes sitting in the current generation log beyond what has been
    /// applied — the replication lag in bytes (0 when fully caught up or
    /// the log is absent), measured now. A torn trailing fragment counts
    /// as lag until the writer's next durable append resolves it. It
    /// costs what an idle poll costs, a few stats, while nothing has
    /// moved since the last poll; once the log has moved it lists the
    /// directory and stats every file of the generation.
    pub fn lag_bytes(&self) -> u64 {
        let len = match self.probe(Self::stat_manifest(&self.dir)) {
            Probe::Still { len } => len,
            Probe::Moved { .. } => {
                crate::binlog::generation_len(&self.dir, &self.generation).unwrap_or(0)
            }
        };
        len.saturating_sub(self.offset)
    }

    /// Has this tail ever observed primary state? (Distinguishes "the
    /// primary has not created its directory yet" from "the directory we
    /// were tailing is gone".)
    fn observed(&self) -> bool {
        self.manifest_stamp.is_some() || self.offset > 0 || self.applied > 0
    }

    /// Cheap manifest change detector: `checkpoint.json`'s (mtime, len),
    /// or `None` when it is absent or unstatable. Two checkpoints inside
    /// one mtime tick with byte-identical length could in principle alias
    /// — an fsynced write + rename per checkpoint makes that window
    /// unrealistic, and the cost of a miss is one stale poll, repaired by
    /// the next manifest change.
    fn stat_manifest(dir: &Path) -> Option<(std::time::SystemTime, u64)> {
        let meta = std::fs::metadata(dir.join("checkpoint.json")).ok()?;
        Some((meta.modified().ok()?, meta.len()))
    }

    /// Has anything moved since the last read, judged by stats alone?
    /// `stamp` is the manifest's stamp now. The generation is still when
    /// the stamp is the one last parsed, every listed file has the size
    /// it was read at, and the name the writer would create next (see
    /// [`crate::storage::successor_file`]) is absent. Every listed file
    /// is statted, not just the last, so a lost or truncated sealed
    /// segment still reads as a move.
    fn probe(&self, stamp: Option<(std::time::SystemTime, u64)>) -> Probe {
        let mut file_seen = false;
        let Some(files) = &self.files else {
            return Probe::Moved { file_seen };
        };
        if stamp != self.manifest_stamp {
            return Probe::Moved { file_seen };
        }
        let mut len = 0;
        for (name, size) in files {
            match std::fs::metadata(self.dir.join(name)) {
                Ok(meta) if meta.len() == *size => len += size,
                Ok(_) => return Probe::Moved { file_seen: true },
                Err(_) => return Probe::Moved { file_seen },
            }
            file_seen = true;
        }
        let last = files.last().map(|(name, _)| name.as_str());
        if let Some(next) = crate::storage::successor_file(&self.generation, last) {
            match std::fs::metadata(self.dir.join(next)) {
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => return Probe::Moved { file_seen },
                Ok(_) => return Probe::Moved { file_seen: true },
            }
        }
        // A tail that has seen nothing guessed generation 0's format at
        // open; the primary may start the other one.
        if !self.observed()
            && crate::storage::first_generations().any(|generation| {
                generation != self.generation
                    && crate::storage::successor_file(&generation, None)
                        .is_some_and(|first| self.dir.join(first).exists())
            })
        {
            return Probe::Moved { file_seen: true };
        }
        Probe::Still { len }
    }

    /// Observe the log's current durable end. Within a generation this
    /// reads only the bytes appended since the last poll; across a
    /// checkpoint it reports the new base to re-base onto. When nothing
    /// moved since the last poll it is a few stats and no directory
    /// listing (see [`LogTail`]). Safe to call at any cadence.
    pub fn poll(&mut self) -> Result<TailProgress, RepoError> {
        self.poll_with(None)
    }

    /// [`LogTail::poll`], decoding the read in record-aligned ranges
    /// across `pool`'s workers when given one (the cold open's path).
    pub(crate) fn poll_with(
        &mut self,
        pool: Option<&WorkerPool>,
    ) -> Result<TailProgress, RepoError> {
        let mut progress = TailProgress::default();
        let stamp = Self::stat_manifest(&self.dir);
        let file_seen = match self.probe(stamp) {
            // Caught up and still: nothing to read. A pending torn tail
            // (a length beyond `offset`) is re-read until it heals.
            Probe::Still { len } if len == self.offset => return Ok(progress),
            Probe::Still { .. } => true,
            Probe::Moved { file_seen } => file_seen,
        };
        // A present manifest or log file proves the directory exists;
        // only when both missed is it worth asking.
        if stamp.is_none() && !file_seen && !self.dir.exists() {
            if self.observed() {
                // We were tailing real state and the whole directory is
                // gone — not a torn tail, not a slow primary. Surface it
                // typed; the tail keeps its position so a restored
                // directory can be polled again.
                return Err(RepoError::SourceUnavailable {
                    dir: self.dir.display().to_string(),
                });
            }
            // The primary simply has not created its directory yet.
            return Ok(progress);
        }
        // Only re-parse the manifest (it embeds a whole snapshot) when
        // its stamp moved; the stamp is taken before the parse so a
        // racing checkpoint costs one conservative re-parse, never a
        // stale skip.
        if stamp.is_none() && self.manifest_stamp.is_some() {
            // A manifest we had parsed is gone while the directory
            // remains (mid-rsync, a crashed compaction, a stray delete).
            // A healthy primary never removes its manifest, and falling
            // through would re-base onto the no-manifest default — an
            // empty snapshot. Surface it typed instead, keeping position
            // and state so a restored manifest resumes cleanly.
            return Err(RepoError::SourceUnavailable {
                dir: self.dir.display().to_string(),
            });
        }
        if stamp != self.manifest_stamp {
            let (base, generation) = EventLogBackend::read_state_in(&self.dir)?;
            self.manifest_stamp = stamp;
            if generation != self.generation {
                // The primary checkpointed: the caller adopts the
                // manifest state and we start tailing the new generation
                // from its beginning.
                self.generation = generation;
                self.applied = 0;
                self.offset = 0;
                progress.new_base = Some(base);
                progress.rebased = true;
            }
        } else if !self.observed() {
            // No manifest and nothing read yet: generation 0 is whichever
            // format the primary has started by now (see `probe`).
            self.generation = EventLogBackend::read_state_in(&self.dir)?.1;
        }
        let read = match read_generation(&self.dir, &self.generation, self.offset, pool)? {
            Some(read) => {
                self.applied += read.events.len();
                read
            }
            None => {
                // The tailed log shrank under us (a foreign truncation
                // beyond torn-tail repair). Rolling individual events
                // back is not possible; re-base onto what the directory
                // actually holds.
                let mut all =
                    read_generation(&self.dir, &self.generation, 0, pool)?.unwrap_or_default();
                let (base, _) = EventLogBackend::read_state_in(&self.dir)?;
                self.applied = all.events.len();
                progress.new_base = Some(replay(base, &std::mem::take(&mut all.events)));
                progress.rebased = true;
                all
            }
        };
        self.offset = read.end;
        self.files = Some(read.files);
        progress.events = read.events;
        Ok(progress)
    }
}

// == Parallel cold open ==
//
// The sequential cold open builds its derived state in two strokes: the
// initial `fwd(base, empty)` gives every base entry's page its first
// revision, then one batched `sync_changed` over the tailed events'
// dirty set gives each dirty page its (at most one) second revision —
// `set_page` dedups unchanged content. Both strokes are per-entry and
// entries' pages are distinct, so the parallel open reproduces them
// per-entry on the pool and the result is byte-for-byte identical:
// render every base record (revision one), replay, then render each
// dirty record's page again and build the index from the final snapshot.
// `tests/restore_parallel.rs` pins this equivalence over random
// histories.

/// Split `ids` into at most `shards` contiguous chunks of near-equal
/// size (none empty). Contiguity keeps the gather deterministic: shard
/// outputs concatenate back in id order.
fn shard_ids(ids: Vec<EntryId>, shards: usize) -> Vec<Vec<EntryId>> {
    if ids.is_empty() {
        return Vec::new();
    }
    let per = ids.len().div_ceil(shards.max(1));
    ids.chunks(per).map(<[EntryId]>::to_vec).collect()
}

/// Render the pages of `ids` (present in `snapshot`) across the pool,
/// returning `(page name, content)` pairs in id order.
fn render_pages_parallel(
    snapshot: &Arc<RepositorySnapshot>,
    ids: Vec<EntryId>,
    pool: &WorkerPool,
) -> Vec<(String, String)> {
    type Rendered = Vec<(String, String)>;
    let jobs: Vec<Box<dyn FnOnce() -> Rendered + Send>> = shard_ids(ids, pool.threads())
        .into_iter()
        .map(|shard| {
            let snapshot = Arc::clone(snapshot);
            Box::new(move || {
                shard
                    .iter()
                    .map(|id| {
                        let record = &snapshot.records[id];
                        (id.page_name(), render_entry(record.latest()))
                    })
                    .collect()
            }) as Box<dyn FnOnce() -> Rendered + Send>
        })
        .collect();
    pool.scatter(jobs).into_iter().flatten().collect()
}

/// Rebuild the search index and wiki site of a cold open:
/// `base_pages` are the pre-replay renders (each page's first revision),
/// the index is built once from `final_snapshot`, and the `dirty` pages
/// are re-rendered from the final state on the pool (their second
/// revision, deduped away when the content did not change). Equals the
/// sequential open's `SearchIndex::build` + incremental applies and
/// `fwd` + `sync_changed` exactly; see the section comment above.
fn derived_parallel(
    base_pages: Vec<(String, String)>,
    final_snapshot: &Arc<RepositorySnapshot>,
    dirty: BTreeSet<EntryId>,
    pool: &WorkerPool,
) -> (SearchIndex, WikiSite) {
    let dirty: Vec<EntryId> = dirty
        .into_iter()
        .filter(|id| final_snapshot.records.contains_key(id))
        .collect();
    let dirty_pages = render_pages_parallel(final_snapshot, dirty, pool);
    let mut site = WikiSite::new();
    // Base renders first: they are each page's first revision.
    for (page, content) in base_pages.into_iter().chain(dirty_pages) {
        site.set_page(&page, content);
    }
    (SearchIndex::build(final_snapshot), site)
}

/// Reclaim a snapshot shared with pool jobs. [`WorkerPool::scatter`]
/// returns only after every job has run to completion (dropping its
/// `Arc` clone), so the unwrap succeeds; the clone fallback is pure
/// belt-and-braces.
fn unshare(snapshot: Arc<RepositorySnapshot>) -> RepositorySnapshot {
    Arc::try_unwrap(snapshot).unwrap_or_else(|shared| (*shared).clone())
}

/// A short, slug-shaped identifier for one primary feeding a
/// [`Federation`]. Source ids namespace everything a source contributes
/// to the merged state: entry `composers` from source `eu` becomes
/// `eu/composers`, account `alice` becomes `eu/alice`. The separator can
/// never appear inside a source id (construction slugifies), so distinct
/// sources can never produce colliding namespaced keys.
///
/// [`SourceId::identity`] is the one source whose namespace is the
/// identity: a federation of it alone is a plain read replica.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SourceId(
    /// The namespaced-key prefix, `"<slug>/"`; empty for the identity.
    String,
);

impl SourceId {
    /// Build a source id from any label; the label is slugified
    /// (lowercase alphanumerics and dashes), so `"EU mirror"` becomes
    /// `eu-mirror`. An empty slug is rejected at [`Federation::open`].
    pub fn new(label: &str) -> SourceId {
        SourceId(format!("{}/", slug_of(label)))
    }

    /// The source whose namespace is the identity: entry ids and account
    /// names pass through unchanged and it owns every id. It must be its
    /// federation's only source ([`Federation::open`] rejects it beside
    /// any other, whose ids it could collide with).
    pub fn identity() -> SourceId {
        SourceId(String::new())
    }

    /// The slug text (empty for the identity).
    pub fn as_str(&self) -> &str {
        self.0.strip_suffix('/').unwrap_or_default()
    }

    /// The namespaced form of one of this source's entry ids.
    pub fn entry_id(&self, id: &EntryId) -> EntryId {
        EntryId(format!("{}{}", self.0, id.as_str()))
    }

    /// The namespaced form of one of this source's account names.
    pub fn account(&self, name: &str) -> String {
        format!("{}{name}", self.0)
    }

    /// Does a namespaced entry id belong to this source?
    pub fn owns(&self, id: &EntryId) -> bool {
        id.as_str().starts_with(&self.0)
    }
}

/// Source ids order by slug, as labels read; the stored prefix breaks
/// the one tie, the identity (`""`) against an empty slug (`"/"`).
impl Ord for SourceId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.as_str(), &self.0).cmp(&(other.as_str(), &other.0))
    }
}

impl PartialOrd for SourceId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SourceId").field(&self.as_str()).finish()
    }
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Rewrite one source event into the federation's namespace, in place:
/// entry ids and account names gain the `<source>/` prefix; entry
/// payloads (titles, authors, comments) pass through untouched — they are
/// display data, not keys. The result is what the merged snapshot, index
/// and site consume.
fn namespace_event(source: &SourceId, event: &mut RepoEvent) {
    // Prefixing in place allocates only when a key outgrows its buffer,
    // and not at all for the identity's empty prefix.
    let prefix = |key: &mut String| key.insert_str(0, &source.0);
    match event {
        RepoEvent::Founded(f) => f.curators.iter_mut().for_each(|c| prefix(&mut c.name)),
        RepoEvent::Registered(r) => prefix(&mut r.principal.name),
        RepoEvent::RoleGranted(g) => prefix(&mut g.account),
        RepoEvent::Contributed(d) | RepoEvent::Revised(d) | RepoEvent::Approved(d) => {
            prefix(&mut d.id.0);
        }
        RepoEvent::Commented(c) => prefix(&mut c.id.0),
        RepoEvent::ReviewRequested(r) | RepoEvent::ChangesRequested(r) => prefix(&mut r.id.0),
    }
}

/// The pure specification of federated state: namespace every source's
/// records and accounts under its [`SourceId`] and merge them into one
/// snapshot named `name` (an empty `name` takes the source's own, see
/// [`Federation::open`]). A [`Federation`] that has caught up with all
/// its sources holds exactly `federate_snapshots(name, per_source_folds)`
/// — the invariant the convergence property tests assert.
pub fn federate_snapshots(
    name: &str,
    sources: &[(SourceId, RepositorySnapshot)],
) -> RepositorySnapshot {
    let mut merged = RepositorySnapshot::empty(name);
    for (source, snapshot) in sources {
        adopt_name(&mut merged, &snapshot.name);
        for (id, record) in &snapshot.records {
            merged.records.insert(source.entry_id(id), record.clone());
        }
        for (account_name, principal) in &snapshot.accounts {
            let namespaced = source.account(account_name);
            merged.accounts.insert(
                namespaced.clone(),
                Principal {
                    name: namespaced,
                    ..principal.clone()
                },
            );
        }
    }
    merged
}

/// An unnamed federation takes the first name its source's log gives it
/// (a checkpoint's snapshot or the `Founded` event); a named one keeps
/// its own.
fn adopt_name(merged: &mut RepositorySnapshot, source_name: &str) {
    if merged.name.is_empty() {
        merged.name = source_name.to_string();
    }
}

/// Apply one *namespaced* event to the merged snapshot. Identical to
/// [`apply_event`] except for `Founded`, which registers the source's
/// curators and leaves the naming to [`adopt_name`].
fn apply_federated(merged: &mut RepositorySnapshot, event: &RepoEvent) {
    match event {
        RepoEvent::Founded(f) => {
            adopt_name(merged, &f.name);
            for c in &f.curators {
                merged.accounts.insert(c.name.clone(), c.clone());
            }
        }
        other => apply_event(merged, other),
    }
}

/// What one [`Federation::catch_up`] call did, per source and in total.
///
/// A pass never aborts on a sick source: healthy peers always make
/// their progress, failing sources land in [`FederationCatchUp::errors`]
/// with their typed error, and backed-off sources are counted in
/// [`FederationCatchUp::skipped`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FederationCatchUp {
    /// Events applied across all sources.
    pub events_applied: usize,
    /// How many sources re-based (checkpoint crossed, truncation
    /// recovered, or prefix-salvaged).
    pub rebases: usize,
    /// Per-source progress, in source order (a failed or skipped source
    /// contributes an all-zero [`CatchUp`]).
    pub per_source: Vec<CatchUp>,
    /// Sources whose poll failed this pass, with their typed errors, in
    /// source order. The merged state keeps serving their last good
    /// contribution.
    pub errors: Vec<(SourceId, RepoError)>,
    /// Sources not polled because their retry deadline has not arrived.
    pub skipped: usize,
    /// `SalvagePrefix` recoveries performed this pass — exactly what
    /// each one dropped, never silent.
    pub salvaged: Vec<(SourceId, SalvageReport)>,
}

/// One read node tailing N independent primaries into a single merged
/// snapshot, search index and wiki site; see the module docs.
pub struct Federation {
    sources: Vec<(SourceId, LogTail)>,
    /// One supervision state machine per source, index-aligned with
    /// `sources`.
    supervisors: Vec<SourceSupervisor>,
    retry: RetryPolicy,
    recovery: RecoveryPolicy,
    /// When set, every supervision transition (failure, recovery,
    /// quarantine, salvage) publishes [`HealthReport::Source`] under
    /// this component name.
    health: Option<(Arc<RuntimeHealth>, String)>,
    bx: WikiBx,
    snapshot: RepositorySnapshot,
    index: SearchIndex,
    site: WikiSite,
    /// Sinks observing the merged stream: each gets
    /// [`EventSink::rebased`] when any source re-bases and
    /// [`EventSink::accept`] for every *namespaced* event applied.
    observers: Vec<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Federation")
            .field("name", &self.snapshot.name)
            .field(
                "sources",
                &self.sources.iter().map(|(s, _)| s).collect::<Vec<_>>(),
            )
            .field("entries", &self.snapshot.records.len())
            .finish()
    }
}

impl Federation {
    /// Open a federation named `name` over `(source, directory)` pairs
    /// and catch up to every source's current durable end. Source ids
    /// must be non-empty and pairwise distinct, and
    /// [`SourceId::identity`] must be the only source if present;
    /// directories may be empty or absent (primaries that have not
    /// written yet). An empty `name` is allowed over one source only:
    /// the federation then takes the name that source's log gives it,
    /// so `Federation::open("", vec![(SourceId::identity(), dir)])` is
    /// a replica that snapshots, cites and exports exactly as its
    /// primary does.
    pub fn open(name: &str, sources: Vec<(SourceId, PathBuf)>) -> Result<Federation, RepoError> {
        Self::validate_sources(name, &sources)?;
        let mut federation = Federation {
            sources: Vec::with_capacity(sources.len()),
            supervisors: Vec::with_capacity(sources.len()),
            retry: RetryPolicy::default(),
            recovery: RecoveryPolicy::default(),
            health: None,
            bx: WikiBx::new(),
            snapshot: RepositorySnapshot::empty(name),
            index: SearchIndex::default(),
            site: WikiSite::new(),
            observers: Vec::new(),
        };
        for (source, dir) in sources {
            let (tail, base) = LogTail::open(dir)?;
            federation.rebase_source(&source, base);
            federation.sources.push((source, tail));
            federation.supervisors.push(SourceSupervisor::default());
        }
        // Opening is fail-fast: a federation must start from N readable
        // sources (supervised degradation is for a *running* node), so
        // the first source error of the initial pass aborts the open —
        // the same error, for the same input, as before supervision.
        let outcome = federation.catch_up()?;
        if let Some((_, error)) = outcome.errors.into_iter().next() {
            return Err(error);
        }
        Ok(federation)
    }

    /// Source ids must be non-empty and pairwise distinct, the identity
    /// must be the only source, and so must an unnamed federation's.
    fn validate_sources(name: &str, sources: &[(SourceId, PathBuf)]) -> Result<(), RepoError> {
        if name.is_empty() && sources.len() > 1 {
            // With several logs, which one named the federation would
            // depend on which primary founded first.
            return Err(RepoError::Persist(
                "a federation of several sources needs a name".to_string(),
            ));
        }
        let mut seen: BTreeSet<&SourceId> = BTreeSet::new();
        for (source, _) in sources {
            if source.0 == "/" {
                return Err(RepoError::Persist(
                    "federation source ids must be non-empty".to_string(),
                ));
            }
            if source.0.is_empty() && sources.len() > 1 {
                return Err(RepoError::Persist(
                    "the identity source must be a federation's only source: \
                     its ids could collide with a namespaced peer's"
                        .to_string(),
                ));
            }
            if !seen.insert(source) {
                return Err(RepoError::Persist(format!(
                    "duplicate federation source id `{source}`"
                )));
            }
        }
        Ok(())
    }

    /// [`Federation::open`] with the cold open fanned out over
    /// `runtime`'s workers — the path for nodes that host many
    /// federations (or large sources) on one bounded set of workers.
    /// Sources open one after another on the calling thread, each
    /// decoding its log in record-aligned ranges across the pool, so a
    /// single large source decodes as much in parallel as many small
    /// ones; then the merged replay and derived-state rebuild fan out
    /// over the same pool. On quiescent directories the merged snapshot,
    /// index and site are byte-for-byte the sequential open's, and a
    /// failing source surfaces the same error (the first in source
    /// order).
    pub fn open_on(
        name: &str,
        sources: Vec<(SourceId, PathBuf)>,
        runtime: &Arc<Runtime>,
    ) -> Result<Federation, RepoError> {
        Self::open_pooled(name, sources, runtime.pool())
    }

    fn open_pooled(
        name: &str,
        sources: Vec<(SourceId, PathBuf)>,
        pool: &WorkerPool,
    ) -> Result<Federation, RepoError> {
        Self::validate_sources(name, &sources)?;
        let mut tails = Vec::with_capacity(sources.len());
        let mut bases = Vec::with_capacity(sources.len());
        let mut events: Vec<RepoEvent> = Vec::new();
        for (source, dir) in sources {
            let (mut tail, base) = LogTail::open(dir)?;
            let mut progress = tail.poll_with(Some(pool))?;
            // A checkpoint racing the open lands as a new base on the
            // first poll, exactly as in the sequential open's catch-up.
            let base = progress.new_base.take().unwrap_or(base);
            for event in &mut progress.events {
                namespace_event(&source, event);
            }
            // Events are large: move the first source's batch, append
            // the rest.
            if events.is_empty() {
                events = progress.events;
            } else {
                events.append(&mut progress.events);
            }
            tails.push((source.clone(), tail));
            bases.push((source, base));
        }
        let base = Arc::new(federate_snapshots(name, &bases));
        drop(bases);
        let dirty = dirty_set(&events);
        let base_ids: Vec<EntryId> = base.records.keys().cloned().collect();
        let base_pages = render_pages_parallel(&base, base_ids, pool);
        // The federated replay keeps a named federation's name: `Founded`
        // barriers register a source's curators and name only an
        // unnamed snapshot.
        let snapshot = Arc::new(replay_parallel_with(
            unshare(base),
            events,
            pool,
            apply_federated,
        ));
        let (index, site) = derived_parallel(base_pages, &snapshot, dirty, pool);
        let supervisors = tails.iter().map(|_| SourceSupervisor::default()).collect();
        Ok(Federation {
            sources: tails,
            supervisors,
            retry: RetryPolicy::default(),
            recovery: RecoveryPolicy::default(),
            health: None,
            bx: WikiBx::new(),
            snapshot: unshare(snapshot),
            index,
            site,
            observers: Vec::new(),
        })
    }

    /// The federation's own name (kept regardless of what the source
    /// repositories are called), or an unnamed one's source's name.
    pub fn name(&self) -> &str {
        &self.snapshot.name
    }

    /// The source ids, in tail order.
    pub fn source_ids(&self) -> Vec<&SourceId> {
        self.sources.iter().map(|(s, _)| s).collect()
    }

    /// Subscribe a sink to the merged stream. The sink is backfilled
    /// immediately with [`EventSink::rebased`] over the current merged
    /// snapshot, then receives [`EventSink::accept`] for every
    /// *namespaced* event each later [`Federation::catch_up`] applies,
    /// and [`EventSink::rebased`] again whenever any source re-bases.
    /// Sinks run on the catch-up caller's thread.
    pub fn subscribe(&mut self, sink: Arc<dyn EventSink>) {
        sink.rebased(&self.snapshot);
        self.observers.push(sink);
    }

    /// Poll every due source once, folding its progress into the merged
    /// state. **A sick source never starves its peers**: a failing poll
    /// records the typed error in [`FederationCatchUp::errors`], advances
    /// that source's health state machine (arming its retry backoff),
    /// and the pass continues — the merged state keeps serving the
    /// failing source's last good contribution. A source inside its
    /// backoff window is skipped (counted, not polled); a quarantined
    /// source whose error is corruption is prefix-salvaged first when
    /// [`RecoveryPolicy::SalvagePrefix`] is active. Every supervision
    /// transition publishes [`HealthReport::Source`] on an attached
    /// runtime health channel.
    pub fn catch_up(&mut self) -> Result<FederationCatchUp, RepoError> {
        let now = Instant::now();
        let policy = self.retry;
        let mut total = FederationCatchUp::default();
        let mut reports: Vec<HealthReport> = Vec::new();
        // The sources vector is disjointly borrowed: the tail advances
        // while the merged materializations fold its output.
        for i in 0..self.sources.len() {
            if !self.supervisors[i].should_poll(now) {
                total.skipped += 1;
                total.per_source.push(CatchUp::default());
                continue;
            }
            let source = self.sources[i].0.clone();
            // A quarantined source whose sticky error is corruption gets
            // an opt-in prefix salvage before the poll that may revive it.
            let mut salvaged_bytes = None;
            let mut salvage_rebased = false;
            if self.recovery == RecoveryPolicy::SalvagePrefix
                && self.supervisors[i].health() == SourceHealth::Quarantined
            {
                let sick = self.supervisors[i]
                    .last_error()
                    .cloned()
                    .filter(crate::supervise::is_salvageable);
                if let Some(err) = sick {
                    match self.salvage_source(i, &err) {
                        Ok(report) => {
                            salvaged_bytes = Some(report.bytes_dropped);
                            salvage_rebased = true;
                            total.salvaged.push((source.clone(), report));
                        }
                        Err(e) => {
                            // Still quarantined: no transition to report.
                            self.supervisors[i].record_failure(
                                &policy,
                                source.as_str(),
                                e.clone(),
                                now,
                            );
                            total.errors.push((source, e));
                            total.per_source.push(CatchUp::default());
                            continue;
                        }
                    }
                }
            }
            let progress = match self.sources[i].1.poll() {
                Ok(progress) => progress,
                Err(e) => {
                    let before = self.supervisors[i].health();
                    let after = self.supervisors[i].record_failure(
                        &policy,
                        source.as_str(),
                        e.clone(),
                        now,
                    );
                    // Only transitions report: a change of health (each
                    // degraded step counts), or a salvage.
                    if after != before || salvaged_bytes.is_some() {
                        reports.push(self.source_report(i, salvaged_bytes, now));
                    }
                    total.errors.push((source, e));
                    total.per_source.push(CatchUp::default());
                    continue;
                }
            };
            if self.supervisors[i].record_success(now) || salvaged_bytes.is_some() {
                // Only transitions report: a recovery, or a salvage.
                reports.push(self.source_report(i, salvaged_bytes, now));
            }
            if let Some(base) = progress.new_base {
                self.rebase_source(&source, base);
                for observer in &self.observers {
                    observer.rebased(&self.snapshot);
                }
            }
            let events_applied = progress.events.len();
            let mut dirty: BTreeSet<EntryId> = BTreeSet::new();
            for mut event in progress.events {
                namespace_event(&source, &mut event);
                apply_federated(&mut self.snapshot, &event);
                self.index.apply(&event);
                for observer in &self.observers {
                    observer.accept(&event);
                }
                if event.changes_rendered_page() {
                    if let Some(id) = event.touched() {
                        dirty.insert(id.clone());
                    }
                }
            }
            if !dirty.is_empty() {
                self.bx.sync_changed(&self.snapshot, &mut self.site, &dirty);
            }
            let step = CatchUp {
                events_applied,
                rebased: progress.rebased || salvage_rebased,
            };
            total.events_applied += step.events_applied;
            total.rebases += usize::from(step.rebased);
            total.per_source.push(step);
        }
        if let Some((health, component)) = &self.health {
            for report in reports {
                health.report(component, report);
            }
        }
        Ok(total)
    }

    /// Truncate source `i`'s log at its corruption boundary
    /// ([`crate::supervise::salvage_prefix`]), reopen the tail fresh,
    /// and re-base the merged state onto what survives. The supervisor
    /// keeps its failure history — the poll that follows decides whether
    /// the source is healthy again.
    fn salvage_source(&mut self, i: usize, err: &RepoError) -> Result<SalvageReport, RepoError> {
        let dir = self.sources[i].1.dir().to_path_buf();
        let report = crate::supervise::salvage_prefix(&dir, err)?;
        let (tail, base) = LogTail::open(&dir)?;
        let source = self.sources[i].0.clone();
        self.sources[i].1 = tail;
        self.rebase_source(&source, base);
        for observer in &self.observers {
            observer.rebased(&self.snapshot);
        }
        self.supervisors[i].note_salvage(report.clone());
        Ok(report)
    }

    /// One source's [`HealthReport::Source`] at its current supervision
    /// state.
    fn source_report(&self, i: usize, salvaged_bytes: Option<u64>, now: Instant) -> HealthReport {
        let status = self.supervisors[i].status(now);
        HealthReport::Source {
            source: self.sources[i].0.to_string(),
            state: status.health.label().to_string(),
            consecutive_failures: status.consecutive_failures,
            error: status.last_error.map(|e| e.to_string()),
            retry_in_ms: status.retry_in.map(|d| d.as_millis() as u64),
            salvaged_bytes,
        }
    }

    /// The active per-source retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Replace the retry policy (takes effect from the next failure —
    /// already-armed deadlines keep their schedule).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// The active corruption recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Opt a federation into (or back out of)
    /// [`RecoveryPolicy::SalvagePrefix`]. The default is fail-stop.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.recovery = policy;
    }

    /// Publish every supervision transition (failures, recoveries,
    /// quarantines, salvages) as [`HealthReport::Source`] on `health`
    /// under `component`. Reports fire on the catch-up caller's thread,
    /// after the pass's folding is done.
    pub fn attach_runtime_health(&mut self, health: &Arc<RuntimeHealth>, component: &str) {
        self.health = Some((Arc::clone(health), component.to_string()));
    }

    /// Every source's supervision status — health state, failure
    /// counters, sticky error, time to next retry, and staleness (time
    /// since the source last polled clean, i.e. how old its contribution
    /// to the merged state may be).
    pub fn source_status(&self) -> Vec<(SourceId, SourceStatus)> {
        let now = Instant::now();
        self.sources
            .iter()
            .zip(&self.supervisors)
            .map(|((source, _), supervisor)| (source.clone(), supervisor.status(now)))
            .collect()
    }

    /// Clear `source`'s backoff deadline so the next catch-up polls it
    /// immediately (an operator repaired it and wants it back now).
    /// Returns `false` when the source id is unknown.
    pub fn retry_source_now(&mut self, source: &SourceId) -> bool {
        match self.sources.iter().position(|(s, _)| s == source) {
            Some(i) => {
                self.supervisors[i].force_retry();
                true
            }
            None => false,
        }
    }

    /// Adopt `target` as source `source`'s contribution to the merged
    /// state, patching the index and site for exactly the namespaced
    /// records that differ — the per-source re-base path.
    fn rebase_source(&mut self, source: &SourceId, target: RepositorySnapshot) {
        adopt_name(&mut self.snapshot, &target.name);
        let mut dirty: BTreeSet<EntryId> = BTreeSet::new();
        let target_records: BTreeMap<EntryId, EntryRecord> = target
            .records
            .into_iter()
            .map(|(id, record)| (source.entry_id(&id), record))
            .collect();
        // This source's records currently in the merged state but absent
        // from the target are retracted (a foreign truncation can lose
        // entries).
        let stale: Vec<EntryId> = self
            .records_of(source)
            .filter(|(id, _)| !target_records.contains_key(id))
            .map(|(id, _)| id.clone())
            .collect();
        for id in stale {
            self.snapshot.records.remove(&id);
            self.index.remove_entry(&id);
            dirty.insert(id);
        }
        for (id, record) in target_records {
            if self.snapshot.records.get(&id) != Some(&record) {
                self.index.upsert_entry(&id, record.latest());
                dirty.insert(id.clone());
                self.snapshot.records.insert(id, record);
            }
        }
        // Accounts: replace this source's namespace wholesale (accounts
        // feed no index or page, so no diffing is needed).
        self.snapshot
            .accounts
            .retain(|name, _| !name.starts_with(&source.0));
        for (name, principal) in &target.accounts {
            let namespaced = source.account(name);
            self.snapshot.accounts.insert(
                namespaced.clone(),
                Principal {
                    name: namespaced,
                    ..principal.clone()
                },
            );
        }
        if !dirty.is_empty() {
            self.bx.sync_changed(&self.snapshot, &mut self.site, &dirty);
        }
    }

    /// The merged records belonging to `source` (keys carry its
    /// `<source>/` prefix; every record for the identity).
    fn records_of<'a>(
        &'a self,
        source: &'a SourceId,
    ) -> impl Iterator<Item = (&'a EntryId, &'a EntryRecord)> {
        let start = EntryId(source.0.clone());
        self.snapshot
            .records
            .range(start..)
            .take_while(|(id, _)| source.owns(id))
    }

    /// The merged, namespaced snapshot — exactly
    /// [`federate_snapshots`] of the per-source durable folds once caught
    /// up.
    pub fn snapshot(&self) -> &RepositorySnapshot {
        &self.snapshot
    }

    /// The merged search index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// The merged wiki site (entry pages under namespaced slugs, e.g.
    /// `examples:eu/composers`).
    pub fn site(&self) -> &WikiSite {
        &self.site
    }

    /// Conjunctive keyword search across every source.
    pub fn query(&self, terms: &[&str]) -> Vec<(EntryId, u32)> {
        self.index.query(terms)
    }

    /// Conjunctive keyword search restricted to one source's entries.
    pub fn query_source(&self, source: &SourceId, terms: &[&str]) -> Vec<(EntryId, u32)> {
        self.index.query_filtered(terms, |id| source.owns(id))
    }

    /// The recommended citation for one federated entry (namespaced id),
    /// latest or pinned version.
    pub fn cite(&self, id: &EntryId, version: Option<Version>) -> Result<String, RepoError> {
        cite::cite_in(&self.snapshot, id, version)
    }

    /// Citations for every federated entry's latest version, in
    /// namespaced-id order.
    pub fn citations(&self) -> Vec<String> {
        cite::citations(&self.snapshot)
    }

    /// The archival manuscript export over the merged state (BibTeX keys
    /// derive from the namespaced ids, so colliding titles from different
    /// sources stay distinct).
    pub fn export_manuscript(&self, options: ManuscriptOptions) -> String {
        export_manuscript(&self.snapshot, options)
    }

    /// Per-source replication lag, in bytes of unapplied log, measured
    /// now by each tail's [`LogTail::lag_bytes`]: a few stats per source
    /// whose log has not moved since its last poll, a directory listing
    /// per source whose log has.
    pub fn lag(&self) -> Vec<(SourceId, u64)> {
        self.sources
            .iter()
            .map(|(source, tail)| (source.clone(), tail.lag_bytes()))
            .collect()
    }

    /// Per-source tail positions: (source, generation file, events
    /// applied from it).
    pub fn positions(&self) -> Vec<(&SourceId, &str, usize)> {
        self.sources
            .iter()
            .map(|(source, tail)| {
                let (generation, applied) = tail.position();
                (source, generation, applied)
            })
            .collect()
    }
}

/// Tuning for a [`ReplicaDaemon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// How long the daemon waits after one catch-up pass ends before it
    /// runs the next. A stop request never waits out the interval, and
    /// [`ReplicaDaemon::force_catch_up`] runs a pass on the caller's
    /// thread at any time.
    pub poll_interval: Duration,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// Progress accounting of a [`ReplicaDaemon`], readable at any time.
/// Per-source state is read where it lives, on the federation
/// ([`ReplicaDaemon::with_federation`]): [`Federation::source_status`]
/// and [`Federation::lag`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Catch-up passes completed (scheduled and forced).
    pub polls: u64,
    /// Events applied across all sources since the daemon started.
    pub events_applied: u64,
    /// Source re-bases observed (checkpoints crossed, truncations
    /// recovered).
    pub rebases: u64,
}

struct DaemonShared {
    federation: Mutex<Federation>,
    stats: Mutex<DaemonStats>,
    /// Set by [`ReplicaDaemon::stop`]: a scheduled pass that has not
    /// started yet does nothing and re-arms nothing.
    stopped: AtomicBool,
}

fn daemon_lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl DaemonShared {
    /// One catch-up pass over the federation, counted. A backed-off
    /// source sits out passes until its retry deadline; the first pass
    /// at or after it retries the source.
    fn pass(&self) -> Result<FederationCatchUp, RepoError> {
        let mut federation = daemon_lock(&self.federation);
        let outcome = federation.catch_up();
        // Counted under the federation's lock, so a reader never sees
        // the federation ahead of the stats.
        let mut stats = daemon_lock(&self.stats);
        stats.polls += 1;
        if let Ok(progress) = &outcome {
            stats.events_applied += progress.events_applied as u64;
            stats.rebases += progress.rebases as u64;
        }
        outcome
    }
}

/// A background polling tenant around a [`Federation`]: starts at
/// [`ReplicaDaemon::spawn_on`] as a [`SerialTask`] of a caller's
/// [`Runtime`], runs one catch-up pass and re-arms itself
/// [`DaemonConfig::poll_interval`] after the pass ends, and stops
/// cleanly (in-flight pass waited out, armed wake-up dropped) on
/// [`ReplicaDaemon::stop`] or drop — stop is prompt even mid-interval.
/// A failing source is supervised by the federation: its error and
/// state are in [`Federation::source_status`], each change of state is
/// published as [`HealthReport::Source`], and the daemon keeps serving
/// from the last good merged state and polling the healthy sources, so
/// a source directory that comes back is picked up again automatically.
/// A backed-off source is retried by the first pass at or after its
/// retry deadline.
pub struct ReplicaDaemon {
    shared: Arc<DaemonShared>,
    task: Option<SerialTask>,
    /// Keeps the runtime alive for as long as the daemon, so a caller may
    /// drop its own handle. Dropped after the task is.
    _runtime: Arc<Runtime>,
}

impl std::fmt::Debug for ReplicaDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaDaemon")
            .field("running", &self.task.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ReplicaDaemon {
    /// Take ownership of `federation` and poll it every
    /// [`DaemonConfig::poll_interval`] as a tenant of `runtime`: passes
    /// run on the runtime's pool, and the federation's supervision
    /// transitions ([`HealthReport::Source`]) are published on the
    /// runtime's health channel under `component`. A pass that changes
    /// no source's state publishes nothing.
    /// The first pass runs on the caller's thread before this returns,
    /// so a fresh daemon is never blind for a full interval and no later
    /// [`ReplicaDaemon::force_catch_up`] races it.
    pub fn spawn_on(
        mut federation: Federation,
        config: DaemonConfig,
        runtime: &Arc<Runtime>,
        component: &str,
    ) -> ReplicaDaemon {
        federation.attach_runtime_health(runtime.health(), component);
        let shared = Arc::new(DaemonShared {
            federation: Mutex::new(federation),
            stats: Mutex::new(DaemonStats::default()),
            stopped: AtomicBool::new(false),
        });
        // A source's poll error is the federation's to supervise, and
        // polling continues; a vanished source may come back.
        let _ = shared.pass();
        let task_shared = shared.clone();
        let interval = config.poll_interval;
        let task = runtime.serial_task(move |task| {
            if task_shared.stopped.load(Ordering::Acquire) {
                return;
            }
            let _ = task_shared.pass();
            task.notify_in(interval);
        });
        task.notify_in(interval);
        ReplicaDaemon {
            shared,
            task: Some(task),
            _runtime: Arc::clone(runtime),
        }
    }

    /// Catch up right now on the caller's thread (in addition to the
    /// scheduled polls), returning what the pass did. The federation and
    /// stats are updated exactly as a scheduled poll would.
    pub fn force_catch_up(&self) -> Result<FederationCatchUp, RepoError> {
        self.shared.pass()
    }

    /// Run `read` against the federation under the daemon's lock — the
    /// serving path (query, citations, manuscript, snapshot inspection)
    /// while polling continues in the background.
    pub fn with_federation<R>(&self, read: impl FnOnce(&Federation) -> R) -> R {
        read(&daemon_lock(&self.shared.federation))
    }

    /// Conjunctive keyword search across every source.
    pub fn query(&self, terms: &[&str]) -> Vec<(EntryId, u32)> {
        self.with_federation(|f| f.query(terms))
    }

    /// Citations for every federated entry's latest version.
    pub fn citations(&self) -> Vec<String> {
        self.with_federation(|f| f.citations())
    }

    /// The archival manuscript export over the merged state.
    pub fn export_manuscript(&self, options: ManuscriptOptions) -> String {
        self.with_federation(|f| f.export_manuscript(options))
    }

    /// Progress accounting so far.
    pub fn stats(&self) -> DaemonStats {
        *daemon_lock(&self.shared.stats)
    }

    /// Is the daemon still scheduled on its runtime?
    pub fn is_running(&self) -> bool {
        self.task.is_some()
    }

    /// Stop polling, returning the federation's final stats. Prompt —
    /// it never waits out [`DaemonConfig::poll_interval`], only an
    /// already-running pass — and idempotent: a second call returns the
    /// same stats without touching the runtime.
    pub fn stop(&mut self) -> DaemonStats {
        if let Some(task) = self.task.take() {
            self.shared.stopped.store(true, Ordering::Release);
            task.wait_idle();
        }
        self.stats()
    }

    /// Stop the daemon and hand the federation back for direct use.
    pub fn into_federation(mut self) -> Federation {
        self.stop();
        let mut shared = self.shared.clone();
        drop(self); // idempotent: the task is already stopped
        loop {
            match Arc::try_unwrap(shared) {
                Ok(shared) => {
                    return shared
                        .federation
                        .into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                }
                // stop() waited the task idle, but on a shared runtime
                // the worker that ran the last pass can hold the task
                // (and its Arc) for an instant after the pass returns.
                Err(again) => {
                    shared = again;
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl Drop for ReplicaDaemon {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::repo::Repository;
    use crate::storage::{AutoCompactingEventLog, CompactionPolicy, StorageBackend};
    use crate::template::{ExampleEntry, ExampleType};
    use bx_theory::Bx;

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

    /// A plain read replica of one primary's log directory: an unnamed
    /// federation of the identity source, named by the primary's log.
    fn replica(dir: &Path) -> Federation {
        Federation::open("", vec![(SourceId::identity(), dir.to_path_buf())]).unwrap()
    }

    #[test]
    fn replica_tails_within_a_generation() {
        let dir = unique_dir("tail");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();

        let mut replica = replica(&dir);
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert!(replica.query(&["composers"]).is_empty());

        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        r.comment("alice", &id, "2014-03-28", "tailed").unwrap();
        backend.record(&r.drain_events()).unwrap();

        let progress = replica.catch_up().unwrap();
        assert_eq!(progress.events_applied, 2);
        assert_eq!(progress.rebases, 0);
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert_eq!(replica.query(&["composers"]).len(), 1);
        assert!(WikiBx::new().consistent(replica.snapshot(), replica.site()));
        // Idempotent when nothing new arrived.
        assert_eq!(replica.catch_up().unwrap().per_source, [CatchUp::default()]);
    }

    #[test]
    fn replica_rebases_across_a_checkpoint() {
        let dir = unique_dir("rebase");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 1_000_000, // manual checkpoints only
            },
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        let mut replica = replica(&dir);

        // Mutations + a checkpoint the replica has not seen yet.
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        r.comment("alice", &id, "2014-03-28", "post-checkpoint")
            .unwrap();
        backend.record(&r.drain_events()).unwrap();

        let progress = replica.catch_up().unwrap();
        assert_eq!(
            progress.rebases, 1,
            "the manifest moved to a new generation"
        );
        assert_eq!(progress.events_applied, 1, "only the post-checkpoint tail");
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert_eq!(replica.index(), &SearchIndex::build(&r.snapshot()));
        assert!(WikiBx::new().consistent(replica.snapshot(), replica.site()));
    }

    #[test]
    fn replica_rebases_when_the_log_shrinks_under_it() {
        let dir = unique_dir("shrink");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        r.contribute("alice", entry("DATES")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        let events = r.drain_events();
        backend.record(&events).unwrap();
        let mut replica = replica(&dir);
        assert_eq!(replica.snapshot(), &r.snapshot());

        // A foreign hand truncates the log to its first three lines.
        let log = dir.join("events-0.jsonl");
        let text = std::fs::read_to_string(&log).unwrap();
        let keep: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&log, &keep).unwrap();

        let progress = replica.catch_up().unwrap();
        assert_eq!(progress.rebases, 1, "a shrunken log forces a re-base");
        let expected = crate::event::replay(RepositorySnapshot::empty(""), &events[..3]);
        assert_eq!(replica.snapshot(), &expected);
        assert_eq!(replica.index(), &SearchIndex::build(&expected));
        assert!(WikiBx::new().consistent(replica.snapshot(), replica.site()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_ignores_a_torn_tail_until_it_heals() {
        let dir = unique_dir("torn");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        let events = r.drain_events();
        backend.record(&events).unwrap();
        // A torn append lands after the intact events.
        let log = dir.join("events-0.jsonl");
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("{\"Commented\":{\"id\":\"co");
        std::fs::write(&log, text).unwrap();

        let mut replica = replica(&dir);
        assert_eq!(replica.snapshot(), &r.snapshot());
        let (_, _, applied) = replica.positions()[0];
        assert_eq!(applied, events.len(), "the torn fragment was not counted");

        // The writer reopens (repairing the tail) and appends for real.
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        r.comment(
            "alice",
            &EntryId::from_title("COMPOSERS"),
            "2014-03-28",
            "healed",
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();
        let progress = replica.catch_up().unwrap();
        assert_eq!(progress.events_applied, 1);
        assert_eq!(replica.snapshot(), &r.snapshot());
    }

    #[test]
    fn replica_serves_citations_and_manuscript() {
        let dir = unique_dir("serve");
        let name = "The Bx Examples Repository";
        let r = Repository::found(name, vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();

        // Unnamed, the replica cites under the name the log gives it:
        // the `Founded` event here, the checkpoint's snapshot below.
        let mut replica = replica(&dir);
        assert_eq!(replica.name(), name);
        let cites = replica.citations();
        assert_eq!(cites, crate::cite::citations(&r.snapshot()));
        assert!(cites[0].contains(name));
        assert!(cites[0].contains("COMPOSERS, version 0.1"));
        assert_eq!(replica.cite(&id, None).unwrap(), cites[0]);
        assert!(replica.cite(&id, Some(Version::new(9, 9))).is_err());
        let manuscript = replica.export_manuscript(ManuscriptOptions::default());
        assert!(manuscript.contains("++ COMPOSERS"));
        assert!(manuscript.contains("@misc{bx-composers-0-1,"));

        backend.checkpoint(&r.snapshot()).unwrap();
        let outcome = replica.catch_up().unwrap();
        assert_eq!((outcome.errors.len(), outcome.rebases), (0, 1));
        assert_eq!(replica.citations(), cites);
        let sources = vec![(SourceId::identity(), dir.clone())];
        for reopened in [
            Federation::open("", sources.clone()).unwrap(),
            Federation::open_on("", sources.clone(), &Runtime::new(2)).unwrap(),
        ] {
            assert_eq!(reopened.snapshot(), &r.snapshot());
            assert_eq!(reopened.citations(), cites);
        }
        // A named replica keeps its own name whatever the log says.
        let named = Federation::open("mirror", sources).unwrap();
        assert_eq!(named.name(), "mirror");
        assert!(!named.citations()[0].contains(name));
        std::fs::remove_dir_all(&dir).ok();
    }

    // == catch_up edge cases ==

    #[test]
    fn replica_opens_over_an_empty_or_absent_directory() {
        // Absent directory: the primary has not even created it yet.
        let dir = unique_dir("absent");
        let mut replica = replica(&dir);
        assert!(replica.snapshot().records.is_empty());
        assert_eq!(replica.catch_up().unwrap().per_source, [CatchUp::default()]);

        // Present-but-empty directory: same story.
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(replica.catch_up().unwrap().per_source, [CatchUp::default()]);

        // The first real write is then picked up normally.
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        let progress = replica.catch_up().unwrap();
        assert!(progress.events_applied > 0);
        assert_eq!(replica.snapshot(), &r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_adopts_a_manifest_appearing_between_polls() {
        let dir = unique_dir("late-manifest");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        // The replica opens while no checkpoint manifest exists.
        let mut replica = replica(&dir);
        assert_eq!(replica.snapshot(), &r.snapshot());

        // Between polls the primary writes its *first* checkpoint: the
        // manifest appears and names a fresh generation.
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();

        let progress = replica.catch_up().unwrap();
        assert_eq!(
            progress.rebases, 1,
            "the appearing manifest forces a re-base"
        );
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert_eq!(replica.index(), &SearchIndex::build(&r.snapshot()));
        assert!(WikiBx::new().consistent(replica.snapshot(), replica.site()));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One supervised pass over a single replica whose source just
    /// failed: the typed error lands in `errors`, the state is untouched,
    /// and the very next pass is skipped under the default backoff.
    fn assert_supervised_failure(replica: &mut Federation, expected: &RepositorySnapshot) {
        let outcome = replica.catch_up().unwrap();
        assert_eq!(outcome.errors.len(), 1);
        let (source, err) = &outcome.errors[0];
        assert_eq!(source, &SourceId::identity());
        assert!(
            matches!(err, RepoError::SourceUnavailable { dir } if dir.contains("vanish")),
            "expected SourceUnavailable naming the vanished directory, got {err:?}"
        );
        assert_eq!(
            replica.snapshot(),
            expected,
            "the last good state keeps serving"
        );
        let outcome = replica.catch_up().unwrap();
        assert_eq!(
            (outcome.skipped, outcome.errors.len()),
            (1, 0),
            "backed off"
        );
        // An operator who repaired the source asks for it back now.
        assert!(replica.retry_source_now(&SourceId::identity()));
    }

    #[test]
    fn replica_supervises_a_vanished_source_dir() {
        let dir = unique_dir("vanish");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        let events = r.drain_events();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&events).unwrap();
        let mut replica = replica(&dir);
        assert_eq!(replica.snapshot(), &r.snapshot());

        std::fs::remove_dir_all(&dir).unwrap();
        assert_supervised_failure(&mut replica, &r.snapshot());
        // A restored directory resumes tailing.
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&events).unwrap();
        let outcome = replica.catch_up().unwrap();
        assert!(outcome.errors.is_empty());
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert_eq!(replica.source_status()[0].1.health, SourceHealth::Healthy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_supervises_a_vanished_manifest() {
        let dir = unique_dir("manifest-vanish");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        let mut replica = replica(&dir);
        assert_eq!(replica.snapshot(), &r.snapshot());

        // The manifest alone disappears (mid-rsync, stray delete) while
        // the directory remains: without the guard the tail would
        // re-base onto the no-manifest default — an empty snapshot.
        let manifest = dir.join("checkpoint.json");
        let saved = std::fs::read(&manifest).unwrap();
        std::fs::remove_file(&manifest).unwrap();
        assert_supervised_failure(&mut replica, &r.snapshot());

        // A restored manifest resumes tailing where it left off.
        std::fs::write(&manifest, saved).unwrap();
        r.comment(
            "alice",
            &EntryId::from_title("COMPOSERS"),
            "2014-03-28",
            "healed",
        )
        .unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        let outcome = replica.catch_up().unwrap();
        assert_eq!((outcome.errors.len(), outcome.rebases), (0, 0));
        assert_eq!(replica.snapshot(), &r.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    // == federation ==

    fn primary(name: &str) -> Repository {
        let r = Repository::found(name, vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r
    }

    #[test]
    fn source_ids_namespace_and_own() {
        let eu = SourceId::new("EU mirror");
        assert_eq!(eu.as_str(), "eu-mirror");
        let id = EntryId::from_title("COMPOSERS");
        let ns = eu.entry_id(&id);
        assert_eq!(ns.as_str(), "eu-mirror/composers");
        assert!(eu.owns(&ns));
        assert!(!eu.owns(&id));
        // A source whose slug is a prefix of another's does not own it.
        let e = SourceId::new("eu");
        assert!(!e.owns(&ns));
        assert_eq!(eu.account("alice"), "eu-mirror/alice");
        // Ids order by slug (`eu` before `eu-mirror`), not by the stored
        // `"<slug>/"` prefix, where '-' sorts before '/'.
        assert!(e < eu);
        assert!(SourceId::identity() < SourceId::new("!!"));
        assert!(SourceId::new("!!") < e);
    }

    #[test]
    fn the_identity_source_passes_ids_and_accounts_through_and_owns_everything() {
        let identity = SourceId::identity();
        let id = EntryId::from_title("COMPOSERS");
        assert_eq!(identity.entry_id(&id), id);
        assert_eq!(identity.account("alice"), "alice");
        assert!(identity.owns(&id));
        assert!(identity.owns(&SourceId::new("eu").entry_id(&id)));
        assert_eq!(identity.as_str(), "");
        assert_ne!(
            identity,
            SourceId::new("!!"),
            "an empty slug is not the identity"
        );
    }

    #[test]
    fn federation_rejects_an_identity_source_beside_another() {
        let dir = unique_dir("fed-identity-peer");
        for sources in [
            vec![SourceId::identity(), SourceId::new("a")],
            vec![SourceId::new("a"), SourceId::identity()],
            vec![SourceId::identity(), SourceId::identity()],
        ] {
            let sources: Vec<(SourceId, PathBuf)> =
                sources.into_iter().map(|s| (s, dir.clone())).collect();
            let err = Federation::open("fed", sources.clone()).unwrap_err();
            assert!(matches!(err, RepoError::Persist(ref m) if m.contains("identity")));
            let err = Federation::open_on("fed", sources, &Runtime::new(1)).unwrap_err();
            assert!(matches!(err, RepoError::Persist(ref m) if m.contains("identity")));
        }
    }

    #[test]
    fn federation_of_several_sources_needs_a_name() {
        let dir = unique_dir("fed-unnamed");
        let sources = vec![
            (SourceId::new("a"), dir.join("a")),
            (SourceId::new("b"), dir.join("b")),
        ];
        let err = Federation::open("", sources.clone()).unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("needs a name")));
        let err = Federation::open_on("", sources, &Runtime::new(1)).unwrap_err();
        assert!(matches!(err, RepoError::Persist(ref m) if m.contains("needs a name")));
        // One namespaced source may go unnamed: it takes its log's name.
        let r = primary("alpha");
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(dir.join("a")).unwrap();
        backend.record(&r.drain_events()).unwrap();
        let one = Federation::open("", vec![(SourceId::new("a"), dir.join("a"))]).unwrap();
        assert_eq!(
            one.snapshot(),
            &federate_snapshots("alpha", &[(SourceId::new("a"), r.snapshot())])
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn federating_one_identity_source_only_renames_the_snapshot() {
        let r = primary("alpha");
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        let snapshot = r.snapshot();
        let federated = federate_snapshots("fed", &[(SourceId::identity(), snapshot.clone())]);
        assert_eq!(
            federated,
            RepositorySnapshot {
                name: "fed".to_string(),
                ..snapshot.clone()
            }
        );
        // Unnamed, it is the input exactly.
        assert_eq!(
            federate_snapshots("", &[(SourceId::identity(), snapshot.clone())]),
            snapshot
        );
    }

    #[test]
    fn federation_rejects_duplicate_or_empty_sources() {
        let dir = unique_dir("fed-dup");
        assert!(Federation::open(
            "fed",
            vec![
                (SourceId::new("a"), dir.clone()),
                (SourceId::new("a"), dir.clone()),
            ],
        )
        .is_err());
        assert!(Federation::open("fed", vec![(SourceId::new("!!"), dir)]).is_err());
    }

    #[test]
    fn federation_merges_colliding_entry_ids() {
        let dir_a = unique_dir("fed-a");
        let dir_b = unique_dir("fed-b");
        let a = primary("alpha");
        let b = primary("beta");
        // The *same* title on both primaries: in a single replica one
        // would clobber the other; the federation namespaces them apart.
        a.contribute("alice", entry("COMPOSERS")).unwrap();
        b.contribute("alice", entry("COMPOSERS")).unwrap();
        b.contribute("alice", entry("DATES")).unwrap();
        let mut backend_a = crate::storage::EventLogBackend::open(&dir_a).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        let mut backend_b = crate::storage::EventLogBackend::open(&dir_b).unwrap();
        backend_b.record(&b.drain_events()).unwrap();

        let federation = Federation::open(
            "fed",
            vec![
                (SourceId::new("a"), dir_a.clone()),
                (SourceId::new("b"), dir_b.clone()),
            ],
        )
        .unwrap();
        assert_eq!(federation.snapshot().records.len(), 3);
        assert_eq!(
            federation.snapshot(),
            &federate_snapshots(
                "fed",
                &[
                    (SourceId::new("a"), a.snapshot()),
                    (SourceId::new("b"), b.snapshot()),
                ]
            )
        );
        // Both COMPOSERS entries are found, namespaced apart.
        let hits = federation.query(&["composers"]);
        assert_eq!(hits.len(), 2);
        let ids: Vec<&str> = hits.iter().map(|(id, _)| id.as_str()).collect();
        assert!(ids.contains(&"a/composers") && ids.contains(&"b/composers"));
        // Source-restricted search sees only its own.
        let a_hits = federation.query_source(&SourceId::new("a"), &["composers"]);
        assert_eq!(a_hits.len(), 1);
        assert_eq!(a_hits[0].0.as_str(), "a/composers");
        // The merged wiki is consistent and serves namespaced pages.
        assert!(federation.site().current("examples:a/composers").is_some());
        assert!(WikiBx::new().consistent(federation.snapshot(), federation.site()));
        // Citations and manuscript come straight off the merged state.
        assert_eq!(federation.citations().len(), 3);
        let manuscript = federation.export_manuscript(ManuscriptOptions::default());
        assert!(manuscript.contains("@misc{bx-a-composers-0-1,"));
        assert!(manuscript.contains("@misc{bx-b-composers-0-1,"));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn federation_tails_and_rebases_per_source() {
        let dir_a = unique_dir("fed-tail-a");
        let dir_b = unique_dir("fed-tail-b");
        let a = primary("alpha");
        let b = primary("beta");
        let mut backend_a = AutoCompactingEventLog::open(
            &dir_a,
            CompactionPolicy {
                checkpoint_every: 1_000_000,
            },
        )
        .unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        let mut backend_b = crate::storage::EventLogBackend::open(&dir_b).unwrap();
        backend_b.record(&b.drain_events()).unwrap();

        let sa = SourceId::new("a");
        let sb = SourceId::new("b");
        let mut federation = Federation::open(
            "fed",
            vec![(sa.clone(), dir_a.clone()), (sb.clone(), dir_b.clone())],
        )
        .unwrap();

        // Source a checkpoints (forcing a per-source re-base); source b
        // just appends.
        let id_a = a.contribute("alice", entry("COMPOSERS")).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        backend_a.checkpoint(&a.snapshot()).unwrap();
        a.comment("alice", &id_a, "2014-03-28", "after checkpoint")
            .unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        b.contribute("alice", entry("DATES")).unwrap();
        backend_b.record(&b.drain_events()).unwrap();

        let progress = federation.catch_up().unwrap();
        assert_eq!(progress.rebases, 1, "only source a crossed a checkpoint");
        assert!(progress.per_source[0].rebased);
        assert!(!progress.per_source[1].rebased);
        let expected = federate_snapshots(
            "fed",
            &[(sa.clone(), a.snapshot()), (sb.clone(), b.snapshot())],
        );
        assert_eq!(federation.snapshot(), &expected);
        assert_eq!(federation.index(), &SearchIndex::build(&expected));
        assert!(WikiBx::new().consistent(federation.snapshot(), federation.site()));
        // Caught up: zero lag everywhere.
        assert!(federation.lag().iter().all(|(_, lag)| *lag == 0));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    // == parallel cold open ==

    /// A directory with enough texture to exercise every rebuild path:
    /// checkpointed base entries, post-checkpoint contributions,
    /// revisions, comments, status-only events and an account barrier
    /// mid-generation.
    fn textured_dir(tag: &str) -> (std::path::PathBuf, Repository) {
        let dir = unique_dir(tag);
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 1_000_000,
            },
        )
        .unwrap();
        for t in ["COMPOSERS", "UML2RDBMS", "DATES"] {
            r.contribute("alice", entry(t)).unwrap();
        }
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        // Post-checkpoint: one untouched base entry (DATES), one revised,
        // one commented, new entries, a registration barrier between
        // per-entry runs, and a status-only event.
        let composers = EntryId::from_title("COMPOSERS");
        let mut edited = r.latest(&composers).unwrap();
        edited.overview = "Revised after the checkpoint.".to_string();
        r.revise("alice", &composers, edited).unwrap();
        r.register(Principal::member("bob")).unwrap();
        r.contribute("bob", entry("FAMILIES")).unwrap();
        r.comment(
            "bob",
            &EntryId::from_title("UML2RDBMS"),
            "2014-03-28",
            "noted",
        )
        .unwrap();
        r.request_review("bob", &EntryId::from_title("FAMILIES"))
            .unwrap();
        backend.record(&r.drain_events()).unwrap();
        (dir, r)
    }

    #[test]
    fn parallel_federation_open_matches_sequential_exactly() {
        let (dir_a, r) = textured_dir("par-fed-a");
        let (dir_b, _) = textured_dir("par-fed-b");
        for (name, sources) in [
            // A plain replica: one unnamed identity source, which takes
            // its primary's name from the log.
            ("", vec![(SourceId::identity(), dir_a.clone())]),
            (
                "fed",
                vec![
                    (SourceId::new("a"), dir_a.clone()),
                    (SourceId::new("b"), dir_b.clone()),
                ],
            ),
        ] {
            let sequential = Federation::open(name, sources.clone()).unwrap();
            for threads in [1, 2, 4, 8] {
                let parallel =
                    Federation::open_on(name, sources.clone(), &Runtime::new(threads)).unwrap();
                assert_eq!(parallel.name(), sequential.name());
                assert_eq!(
                    parallel.snapshot(),
                    sequential.snapshot(),
                    "{threads} threads"
                );
                assert_eq!(parallel.index(), sequential.index(), "{threads} threads");
                assert_eq!(parallel.site(), sequential.site(), "{threads} threads");
                assert_eq!(
                    parallel.positions(),
                    sequential.positions(),
                    "{threads} threads"
                );
            }
            if sources.len() == 1 {
                assert_eq!(sequential.snapshot(), &r.snapshot());
            }
        }
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn parallel_federation_open_surfaces_the_first_corrupt_source() {
        let (dir_a, _) = textured_dir("par-fed-bad-a");
        let (dir_b, _) = textured_dir("par-fed-bad-b");
        // Corrupt b's tailed generation (a complete, unparseable line).
        let (_, generation) = EventLogBackend::read_state_in(&dir_b).unwrap();
        let log = dir_b.join(&generation);
        let mut text = std::fs::read_to_string(&log).unwrap();
        text.push_str("{\"Vandalised\":true}\n");
        std::fs::write(&log, text).unwrap();
        let sources = vec![
            (SourceId::new("a"), dir_a.clone()),
            (SourceId::new("b"), dir_b.clone()),
        ];
        let sequential = Federation::open("fed", sources.clone()).unwrap_err();
        let parallel = Federation::open_on("fed", sources, &Runtime::new(4)).unwrap_err();
        assert_eq!(parallel, sequential, "same typed error, same source");
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn federation_open_parses_each_manifest_once_and_idle_polls_skip_it() {
        let (dir_a, _) = textured_dir("fed-stamp-a");
        let (dir_b, _) = textured_dir("fed-stamp-b");
        let before = crate::storage::manifests_parsed();
        let mut federation = Federation::open(
            "fed",
            vec![
                (SourceId::new("a"), dir_a.clone()),
                (SourceId::new("b"), dir_b.clone()),
            ],
        )
        .unwrap();
        assert_eq!(
            crate::storage::manifests_parsed() - before,
            2,
            "cold open parses each source's manifest exactly once \
             (the open's first catch-up reuses the stamp taken at open)"
        );
        // Idle polls on an unchanged federation never re-parse.
        federation.catch_up().unwrap();
        federation.catch_up().unwrap();
        assert_eq!(crate::storage::manifests_parsed() - before, 2);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    /// A checkpointed binary source with a tail past its checkpoint, and
    /// a manifest-less JSONL one (returned with its primary): the two
    /// shapes an idle poll probes.
    fn probe_sources(tag: &str) -> (Vec<(SourceId, PathBuf)>, Repository) {
        let bin = unique_dir(&format!("{tag}-bin"));
        let a = primary("alpha");
        let mut backend = crate::binlog::BinaryLogBackend::open(&bin).unwrap();
        backend.record(&a.drain_events()).unwrap();
        backend.checkpoint(&a.snapshot()).unwrap();
        a.contribute("alice", entry("AFTER")).unwrap();
        backend.record(&a.drain_events()).unwrap();
        let jsonl = unique_dir(&format!("{tag}-jsonl"));
        let b = primary("beta");
        let mut backend = crate::storage::EventLogBackend::open(&jsonl).unwrap();
        backend.record(&b.drain_events()).unwrap();
        let sources = vec![(SourceId::new("bin"), bin), (SourceId::new("jsonl"), jsonl)];
        (sources, b)
    }

    #[test]
    fn an_idle_catch_up_lists_no_directory() {
        let (sources, b) = probe_sources("idle-listing");
        let mut federation = Federation::open("fed", sources.clone()).unwrap();
        let before = crate::storage::dirs_listed();
        for _ in 0..3 {
            let idle = federation.catch_up().unwrap();
            assert_eq!((idle.events_applied, idle.rebases), (0, 0));
        }
        assert!(federation.lag().iter().all(|(_, lag)| *lag == 0));
        assert_eq!(
            crate::storage::dirs_listed() - before,
            0,
            "an idle pass, and lag over an idle log, stat known paths only"
        );

        // A write moves the probe: the next pass lists and applies it,
        // and the pass after is idle again.
        let mut backend = crate::storage::EventLogBackend::open(&sources[1].1).unwrap();
        b.contribute("alice", entry("LATER")).unwrap();
        backend.record(&b.drain_events()).unwrap();
        let before = crate::storage::dirs_listed();
        assert_eq!(federation.catch_up().unwrap().events_applied, 1);
        assert!(crate::storage::dirs_listed() > before);
        let before = crate::storage::dirs_listed();
        federation.catch_up().unwrap();
        assert_eq!(crate::storage::dirs_listed() - before, 0);
        for (_, dir) in sources {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn an_idle_daemon_pass_lists_no_directory() {
        let (sources, _) = probe_sources("idle-daemon-listing");
        let federation = Federation::open("fed", sources.clone()).unwrap();
        let runtime = Runtime::new(1);
        let config = DaemonConfig {
            poll_interval: Duration::from_secs(60),
        };
        let mut daemon = ReplicaDaemon::spawn_on(federation, config, &runtime, "daemon");
        let before = crate::storage::dirs_listed();
        for _ in 0..3 {
            assert_eq!(daemon.force_catch_up().unwrap().events_applied, 0);
        }
        assert_eq!(crate::storage::dirs_listed() - before, 0);
        let lag = daemon.with_federation(|f| f.lag());
        assert_eq!(lag.len(), 2);
        assert!(lag.iter().all(|(_, lag)| *lag == 0));
        daemon.stop();
        for (_, dir) in sources {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn a_pending_torn_tail_is_re_read_on_every_poll_until_it_heals() {
        let dir = unique_dir("torn-reread");
        let a = primary("alpha");
        let mut backend = crate::binlog::BinaryLogBackend::open(&dir).unwrap();
        backend.record(&a.drain_events()).unwrap();
        let segment = dir.join(&backend.generation_files().unwrap()[0]);
        let torn = crate::binlog::torn_frame_bytes();
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes.extend_from_slice(&torn);
        std::fs::write(&segment, bytes).unwrap();

        let mut federation =
            Federation::open("fed", vec![(SourceId::new("a"), dir.clone())]).unwrap();
        let runtime = Runtime::new(1);
        let config = DaemonConfig {
            poll_interval: Duration::from_secs(60),
        };
        let daemon = ReplicaDaemon::spawn_on(
            Federation::open("fed", vec![(SourceId::new("a"), dir.clone())]).unwrap(),
            config,
            &runtime,
            "daemon",
        );
        for _ in 0..3 {
            let before = crate::storage::dirs_listed();
            assert_eq!(federation.catch_up().unwrap().events_applied, 0);
            assert_eq!(
                crate::storage::dirs_listed() - before,
                1,
                "a pending torn tail is read again, never skipped as idle"
            );
            daemon.force_catch_up().unwrap();
            assert_eq!(daemon.with_federation(|f| f.lag())[0].1, torn.len() as u64);
        }

        // The writer reopens (truncating the fragment) and appends.
        let mut backend = crate::binlog::BinaryLogBackend::open(&dir).unwrap();
        a.contribute("alice", entry("HEALED")).unwrap();
        backend.record(&a.drain_events()).unwrap();
        assert_eq!(federation.catch_up().unwrap().events_applied, 1);
        let before = crate::storage::dirs_listed();
        federation.catch_up().unwrap();
        assert_eq!(crate::storage::dirs_listed() - before, 0, "healed: idle");
        daemon.force_catch_up().unwrap();
        assert_eq!(daemon.with_federation(|f| f.lag())[0].1, 0);
        drop(daemon);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn daemon_polls_serves_degraded_and_stops_clean() {
        let dir_a = unique_dir("daemon-a");
        let dir_b = unique_dir("daemon-b");
        let a = primary("alpha");
        let b = primary("beta");
        let mut backend_a = crate::storage::EventLogBackend::open(&dir_a).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        let mut backend_b = crate::storage::EventLogBackend::open(&dir_b).unwrap();
        backend_b.record(&b.drain_events()).unwrap();

        let federation = Federation::open(
            "fed",
            vec![
                (SourceId::new("a"), dir_a.clone()),
                (SourceId::new("b"), dir_b.clone()),
            ],
        )
        .unwrap();
        let mut daemon = ReplicaDaemon::spawn_on(
            federation,
            DaemonConfig {
                poll_interval: Duration::from_millis(5),
            },
            &Runtime::new(1),
            "daemon",
        );
        assert!(daemon.is_running());

        // New writes are served after a forced pass (no sleep needed; a
        // scheduled poll may also have raced us to them, which is fine —
        // the cumulative stats see them either way).
        a.contribute("alice", entry("COMPOSERS")).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        daemon.force_catch_up().unwrap();
        assert!(daemon.stats().events_applied >= 1);
        assert_eq!(daemon.query(&["composers"]).len(), 1);
        assert_eq!(daemon.citations().len(), 1);

        // A vanished source surfaces a typed error in the pass outcome
        // and in its supervision status, while the pass itself succeeds
        // with partial progress and healthy sources still serve.
        std::fs::remove_dir_all(&dir_a).unwrap();
        let outcome = daemon.force_catch_up().unwrap();
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.errors[0].0, SourceId::new("a"));
        assert!(matches!(
            outcome.errors[0].1,
            RepoError::SourceUnavailable { .. }
        ));
        let status = daemon.with_federation(|f| f.source_status());
        let (a_status, b_status) = (&status[0].1, &status[1].1);
        assert_ne!(a_status.health, SourceHealth::Healthy);
        assert!(matches!(
            a_status.last_error,
            Some(RepoError::SourceUnavailable { .. })
        ));
        assert_eq!(b_status.health, SourceHealth::Healthy);
        assert!(b_status.last_error.is_none());
        assert_eq!(daemon.query(&["composers"]).len(), 1, "degraded serving");

        let stats = daemon.stop();
        assert!(stats.polls >= 2);
        assert!(!daemon.is_running(), "no orphan thread after stop");
        // Idempotent stop; the federation comes back out for direct use.
        daemon.stop();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn backed_off_sources_are_skipped_while_healthy_peers_progress() {
        let dir_a = unique_dir("backoff-a");
        let dir_b = unique_dir("backoff-b");
        let a = primary("alpha");
        let b = primary("beta");
        let mut backend_a = crate::storage::EventLogBackend::open(&dir_a).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        let mut backend_b = crate::storage::EventLogBackend::open(&dir_b).unwrap();
        backend_b.record(&b.drain_events()).unwrap();
        let mut federation = Federation::open(
            "fed",
            vec![
                (SourceId::new("a"), dir_a.clone()),
                (SourceId::new("b"), dir_b.clone()),
            ],
        )
        .unwrap();
        federation.set_retry_policy(RetryPolicy {
            base: Duration::from_secs(3600),
            max: Duration::from_secs(3600),
            multiplier: 1,
            jitter_percent: 0,
            quarantine_after: 5,
            seed: 0,
        });

        std::fs::remove_dir_all(&dir_a).unwrap();
        let outcome = federation.catch_up().unwrap();
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.skipped, 0);

        // Inside the hour-long backoff window the sick source is skipped
        // (not polled), while the healthy peer keeps folding.
        b.contribute("alice", entry("COMPOSERS")).unwrap();
        backend_b.record(&b.drain_events()).unwrap();
        let outcome = federation.catch_up().unwrap();
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.skipped, 1);
        assert_eq!(outcome.events_applied, 1);
        assert_eq!(
            outcome.per_source.len(),
            2,
            "skipped sources keep their slot"
        );

        let status = federation.source_status();
        assert_eq!(status[0].0, SourceId::new("a"));
        assert_eq!(
            status[0].1.health,
            SourceHealth::Degraded {
                consecutive_failures: 1
            }
        );
        assert!(
            status[0].1.retry_in.unwrap() > Duration::from_secs(3000),
            "the sick source sits out passes until its distant deadline"
        );
        assert_eq!(status[1].1.health, SourceHealth::Healthy);

        // Operator override: clear the deadline and the next pass polls
        // the source again immediately.
        assert!(federation.retry_source_now(&SourceId::new("a")));
        assert!(!federation.retry_source_now(&SourceId::new("nonesuch")));
        let outcome = federation.catch_up().unwrap();
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.skipped, 0);
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn quarantined_corrupt_source_salvages_its_intact_prefix() {
        use std::io::Write as _;
        let dir_a = unique_dir("salvage-a");
        let dir_b = unique_dir("salvage-b");
        let a = primary("alpha");
        let b = primary("beta");
        a.contribute("alice", entry("COMPOSERS")).unwrap();
        b.contribute("alice", entry("UML2RDBMS")).unwrap();
        let mut backend_a = crate::storage::EventLogBackend::open(&dir_a).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        let mut backend_b = crate::storage::EventLogBackend::open(&dir_b).unwrap();
        backend_b.record(&b.drain_events()).unwrap();
        let mut federation = Federation::open(
            "fed",
            vec![
                (SourceId::new("a"), dir_a.clone()),
                (SourceId::new("b"), dir_b.clone()),
            ],
        )
        .unwrap();
        let clean = federation.snapshot().clone();
        federation.set_retry_policy(RetryPolicy {
            quarantine_after: 1,
            ..RetryPolicy::immediate()
        });

        // Corruption lands beyond the already-tailed prefix.
        let log = dir_a.join("events-0.jsonl");
        let boundary = std::fs::metadata(&log).unwrap().len();
        let rot = b"{ rotted beyond repair\n";
        let mut file = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        file.write_all(rot).unwrap();
        drop(file);

        // Fail-stop (the default): the source quarantines and stays sick
        // across passes — corruption is never silently skipped.
        let outcome = federation.catch_up().unwrap();
        assert!(matches!(
            outcome.errors[0].1,
            RepoError::CorruptFrame { offset, .. } if offset == boundary
        ));
        assert_eq!(
            federation.source_status()[0].1.health,
            SourceHealth::Quarantined
        );
        let outcome = federation.catch_up().unwrap();
        assert!(outcome.salvaged.is_empty());
        assert_eq!(outcome.errors.len(), 1);

        // Opt in: the next pass truncates at the corruption boundary,
        // reopens the tail from the intact prefix, and reports exactly
        // what was dropped.
        federation.set_recovery_policy(RecoveryPolicy::SalvagePrefix);
        let outcome = federation.catch_up().unwrap();
        assert!(outcome.errors.is_empty());
        assert_eq!(outcome.salvaged.len(), 1);
        let (source, report) = &outcome.salvaged[0];
        assert_eq!(source, &SourceId::new("a"));
        assert_eq!(report.truncated_at, Some(boundary));
        assert_eq!(report.bytes_dropped, rot.len() as u64);
        assert_eq!(federation.snapshot(), &clean, "intact prefix survives");

        let status = federation.source_status();
        assert_eq!(status[0].1.health, SourceHealth::Healthy, "revived");
        assert!(status[0].1.salvage.is_some(), "the drop stays on record");

        // The salvaged source tails new durable writes as before.
        a.contribute("alice", entry("TRIPLEGRAPH")).unwrap();
        let mut backend_a = crate::storage::EventLogBackend::open(&dir_a).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        let outcome = federation.catch_up().unwrap();
        assert_eq!(outcome.events_applied, 1);
        assert_eq!(federation.query(&["triplegraph"]).len(), 1);
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn supervision_transitions_publish_on_an_attached_health_channel() {
        let dir_a = unique_dir("transitions-a");
        let hidden = unique_dir("transitions-hidden");
        let a = primary("alpha");
        let mut backend_a = crate::storage::EventLogBackend::open(&dir_a).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        let mut federation =
            Federation::open("fed", vec![(SourceId::new("a"), dir_a.clone())]).unwrap();
        let health = Arc::new(RuntimeHealth::new());
        federation.attach_runtime_health(&health, "fed");

        // Steady healthy state publishes nothing.
        federation.catch_up().unwrap();
        assert!(health.drain().is_empty(), "no news is good news");

        // Failure → degraded transition publishes; recovery publishes.
        std::fs::rename(&dir_a, &hidden).unwrap();
        federation.catch_up().unwrap();
        std::fs::rename(&hidden, &dir_a).unwrap();
        federation.retry_source_now(&SourceId::new("a"));
        federation.catch_up().unwrap();

        let states: Vec<String> = health
            .drain()
            .into_iter()
            .map(|entry| match entry.report {
                HealthReport::Source { source, state, .. } => {
                    assert_eq!(source, "a");
                    state
                }
                other => panic!("expected source reports, got {other:?}"),
            })
            .collect();
        assert_eq!(states, ["degraded", "healthy"]);
        std::fs::remove_dir_all(&dir_a).ok();
    }

    /// A sink that records everything it is told, for observer tests.
    #[derive(Default)]
    struct RecordingSink {
        accepted: Mutex<Vec<RepoEvent>>,
        rebases: Mutex<Vec<usize>>, // record count of each base seen
    }

    impl crate::event::EventSink for RecordingSink {
        fn accept(&self, event: &RepoEvent) {
            self.accepted.lock().unwrap().push(event.clone());
        }
        fn rebased(&self, base: &RepositorySnapshot) {
            self.rebases.lock().unwrap().push(base.records.len());
        }
    }

    #[test]
    fn federation_observers_see_namespaced_events() {
        // The identity source's observers see the primary's own ids.
        for (source, composers) in [
            (SourceId::new("a"), "a/composers"),
            (SourceId::identity(), "composers"),
        ] {
            let dir = unique_dir("fed-observe");
            let a = primary("alpha");
            let mut backend = AutoCompactingEventLog::open(
                &dir,
                CompactionPolicy {
                    checkpoint_every: 1_000_000,
                },
            )
            .unwrap();
            a.contribute("alice", entry("COMPOSERS")).unwrap();
            backend.record(&a.drain_events()).unwrap();

            let mut federation = Federation::open("fed", vec![(source, dir.clone())]).unwrap();
            let sink = Arc::new(RecordingSink::default());
            federation.subscribe(sink.clone());
            assert_eq!(
                sink.rebases.lock().unwrap().as_slice(),
                &[1],
                "backfill delivers the already-merged base"
            );

            let id = EntryId::from_title("COMPOSERS");
            a.comment("alice", &id, "2014-03-28", "federated").unwrap();
            backend.record(&a.drain_events()).unwrap();
            federation.catch_up().unwrap();
            assert_eq!(
                sink.accepted.lock().unwrap()[0]
                    .touched()
                    .map(|id| id.as_str().to_string()),
                Some(composers.to_string()),
                "observers see the namespaced form"
            );

            // A checkpoint crossing notifies rebased, then the tail events.
            backend.checkpoint(&a.snapshot()).unwrap();
            a.comment("alice", &id, "2014-03-29", "observed").unwrap();
            backend.record(&a.drain_events()).unwrap();
            assert_eq!(federation.catch_up().unwrap().rebases, 1);
            assert_eq!(sink.rebases.lock().unwrap().as_slice(), &[1, 1]);
            assert_eq!(sink.accepted.lock().unwrap().len(), 2);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn daemon_hands_the_federation_back() {
        let dir = unique_dir("daemon-back");
        let a = primary("alpha");
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&a.drain_events()).unwrap();
        let federation = Federation::open("fed", vec![(SourceId::new("a"), dir.clone())]).unwrap();
        let daemon = ReplicaDaemon::spawn_on(
            federation,
            DaemonConfig::default(),
            &Runtime::new(1),
            "daemon",
        );
        let federation = daemon.into_federation();
        assert_eq!(federation.name(), "fed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn daemon_stop_is_prompt_even_mid_interval() {
        let dir = unique_dir("daemon-prompt");
        let a = primary("alpha");
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&a.drain_events()).unwrap();
        let federation = Federation::open("fed", vec![(SourceId::new("a"), dir.clone())]).unwrap();
        let mut daemon = ReplicaDaemon::spawn_on(
            federation,
            DaemonConfig {
                poll_interval: Duration::from_secs(5),
            },
            &Runtime::new(1),
            "daemon",
        );
        assert_eq!(daemon.stats().polls, 1, "the spawn-time pass ran");
        // The next tick is ~5 s out; stop must not wait for it.
        let begin = std::time::Instant::now();
        daemon.stop();
        assert!(
            begin.elapsed() < Duration::from_millis(100),
            "stop waited {:?} of a 5 s poll interval",
            begin.elapsed()
        );
        assert!(!daemon.is_running());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn daemon_runs_its_first_pass_before_spawn_returns() {
        let dir = unique_dir("daemon-first-pass");
        let a = primary("alpha");
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&a.drain_events()).unwrap();
        let federation = Federation::open("fed", vec![(SourceId::new("a"), dir.clone())]).unwrap();
        // Park the runtime's only worker: a pass handed to the pool could
        // not run until it is released.
        let runtime = Runtime::new(1);
        let (release, parked) = std::sync::mpsc::channel::<()>();
        runtime.pool().execute(move || {
            let _ = parked.recv();
        });
        let mut daemon =
            ReplicaDaemon::spawn_on(federation, DaemonConfig::default(), &runtime, "daemon");
        assert_eq!(
            daemon.stats().polls,
            1,
            "the first pass ran on the caller's thread"
        );
        release.send(()).unwrap();
        daemon.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn daemon_over_an_identity_federation_serves_unnamespaced_ids() {
        let dir = unique_dir("daemon-identity");
        let a = primary("alpha");
        a.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&a.drain_events()).unwrap();
        let federation =
            Federation::open("alpha", vec![(SourceId::identity(), dir.clone())]).unwrap();
        let daemon = ReplicaDaemon::spawn_on(
            federation,
            DaemonConfig::default(),
            &Runtime::new(1),
            "daemon",
        );
        a.contribute("alice", entry("DATES")).unwrap();
        backend.record(&a.drain_events()).unwrap();
        daemon.force_catch_up().unwrap();
        let hits: Vec<EntryId> = daemon
            .query(&["composers"])
            .into_iter()
            .chain(daemon.query(&["dates"]))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(
            hits,
            [
                EntryId::from_title("COMPOSERS"),
                EntryId::from_title("DATES")
            ]
        );
        assert_eq!(daemon.into_federation().snapshot(), &a.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn daemon_on_a_shared_runtime_publishes_only_transitions() {
        let dir_a = unique_dir("daemon-shared-a");
        let dir_b = unique_dir("daemon-shared-b");
        let a = primary("alpha");
        let b = primary("beta");
        a.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend_a = crate::storage::EventLogBackend::open(&dir_a).unwrap();
        backend_a.record(&a.drain_events()).unwrap();
        let mut backend_b = crate::storage::EventLogBackend::open(&dir_b).unwrap();
        backend_b.record(&b.drain_events()).unwrap();
        let sources = vec![
            (SourceId::new("a"), dir_a.clone()),
            (SourceId::new("b"), dir_b.clone()),
        ];

        let runtime = crate::runtime::Runtime::new(2);
        // The shared-pool cold open matches the per-pool one exactly.
        let sequential = Federation::open("fed", sources.clone()).unwrap();
        let mut federation = Federation::open_on("fed", sources, &runtime).unwrap();
        assert_eq!(federation.snapshot(), sequential.snapshot());
        assert_eq!(federation.index(), sequential.index());
        // A failed source is not retried within the test, so the one
        // transition below stays the only one.
        let hour = Duration::from_secs(3600);
        federation.set_retry_policy(RetryPolicy {
            base: hour,
            max: hour,
            ..RetryPolicy::default()
        });

        let mut daemon = ReplicaDaemon::spawn_on(
            federation,
            DaemonConfig {
                poll_interval: Duration::from_millis(5),
            },
            &runtime,
            "daemon",
        );
        b.contribute("alice", entry("UML2RDBMS")).unwrap();
        backend_b.record(&b.drain_events()).unwrap();
        daemon.force_catch_up().unwrap();
        assert_eq!(daemon.query(&["uml2rdbms"]).len(), 1);
        let stats = daemon.stats();
        assert!(stats.polls >= 2);
        assert!(stats.events_applied >= 1);
        assert!(
            runtime.health().drain().is_empty(),
            "passes over healthy sources publish nothing"
        );

        // A source that vanishes is one transition, published under the
        // daemon's component and readable as its latest report.
        std::fs::remove_dir_all(&dir_b).unwrap();
        daemon.force_catch_up().unwrap();
        let latest = runtime.health().latest("daemon").expect("a transition");
        match latest.report {
            HealthReport::Source {
                ref source,
                ref state,
                ref error,
                ..
            } => {
                assert_eq!(source, "b");
                assert_eq!(state, "degraded");
                assert!(error.as_deref().is_some_and(|e| !e.is_empty()));
            }
            ref other => panic!("expected a source transition, got {other:?}"),
        }
        assert_eq!(runtime.health().drain(), [latest]);
        daemon.stop();
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
