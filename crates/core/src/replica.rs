//! Read replicas and federation: replication by shipping the event log.
//!
//! ## Single-primary replicas
//!
//! A [`Replica`] tails the directory an [`EventLogBackend`] writes —
//! locally, over a network file system, or rsynced from the primary —
//! and incrementally maintains three read-side materializations:
//!
//! * a [`RepositorySnapshot`] (the folded state, via
//!   [`crate::event::apply_event`]),
//! * a [`SearchIndex`] (via [`SearchIndex::apply`]), and
//! * the entry pages of a [`WikiSite`] (via [`WikiBx::sync_changed`]
//!   over the tailed events' dirty set),
//!
//! so a fleet of replicas can serve search, wiki, citation and manuscript
//! reads while the primary alone takes writes. [`Replica::catch_up`] is
//! cheap to call in a loop: within a log generation it applies only the
//! events appended since the last call; when the primary has checkpointed
//! (the manifest names a new generation), it *re-bases* — adopts the
//! checkpoint state and patches the index and site for exactly the
//! records that differ. The tailing state machine itself is [`LogTail`],
//! shared with the federation below.
//!
//! ## Multi-primary federation
//!
//! A [`Federation`] is one read node tailing **N independent primaries**
//! (each its own event-log directory and [`LogTail`]) and folding them
//! into a single merged snapshot, search index and wiki site. Every
//! record and account is namespaced by its [`SourceId`]
//! (`"<source>/<id>"`), so colliding entry ids from different primaries
//! coexist instead of clobbering each other. Per source, the federation
//! re-bases across checkpoint generations exactly as a single replica
//! does. The merged state it converges to is specified by the pure
//! [`federate_snapshots`] fold, which the convergence property tests
//! (`tests/federation_convergence.rs`) pin it against under interleaved
//! writes, compaction, killed writers and torn appends.
//!
//! [`ReplicaDaemon`] wraps a federation in a background polling thread
//! ([`DaemonConfig`] sets the cadence) with clean start/stop,
//! [`ReplicaDaemon::force_catch_up`], sticky error surfacing and
//! [`DaemonStats`] (polls, events applied, rebases, per-source lag).
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
//! state; [`DaemonStats::source_health`] exposes per-source staleness.
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
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use bx_theory::Bx;

use crate::cite;
use crate::error::RepoError;
use crate::event::{apply_event, dirty_set, replay, replay_parallel_with, EventSink, RepoEvent};
use crate::index::SearchIndex;
use crate::manuscript::{export_manuscript, ManuscriptOptions};
use crate::principal::Principal;
use crate::repo::{EntryId, EntryRecord, RepositorySnapshot};
use crate::runtime::{HealthReport, Runtime, RuntimeHealth, TimerTask, WorkerPool};
use crate::storage::{read_generation, EventLogBackend};
use crate::supervise::{
    RecoveryPolicy, RetryPolicy, SalvageReport, SourceHealth, SourceStatus, SourceSupervisor,
};
use crate::template::slug_of;
use crate::version::Version;
use crate::wiki::{render_entry, WikiSite};
use crate::wiki_bx::WikiBx;

/// What one [`Replica::catch_up`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatchUp {
    /// Events applied from the tailed generation.
    pub events_applied: usize,
    /// Whether the replica re-based onto a new checkpoint generation.
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
/// error when a directory that was being tailed disappears. [`Replica`]
/// runs one of these; [`Federation`] runs one per source.
#[derive(Debug)]
pub struct LogTail {
    dir: PathBuf,
    /// The log generation currently being tailed.
    generation: String,
    /// Intact events of that generation already applied.
    applied: usize,
    /// Byte offset just past the last applied intact line — where the
    /// next poll starts reading, so polling an unchanged log costs a
    /// metadata check + empty read, not a re-parse of the whole file.
    offset: u64,
    /// (mtime, len) of `checkpoint.json` when it was last parsed — the
    /// manifest embeds a whole snapshot, so polls skip re-parsing it
    /// until this stamp moves.
    manifest_stamp: Option<(std::time::SystemTime, u64)>,
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
    /// the log is absent). A torn trailing fragment counts as lag until
    /// the writer's next durable append resolves it. The length is the
    /// sum of the generation's file sizes — metadata only.
    pub fn lag_bytes(&self) -> u64 {
        crate::binlog::generation_len(&self.dir, &self.generation)
            .map_or(0, |len| len.saturating_sub(self.offset))
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

    /// Observe the log's current durable end. Within a generation this
    /// reads only the bytes appended since the last poll (polling an
    /// unchanged log is a metadata check); across a checkpoint it reports
    /// the new base to re-base onto. Safe to call at any cadence.
    pub fn poll(&mut self) -> Result<TailProgress, RepoError> {
        self.poll_with(None)
    }

    /// [`LogTail::poll`] with large reads decoded on `pool` — the
    /// cold-open path of [`Replica::open_on`]. Incremental polls of a
    /// live tail are small and stay on the calling thread. Observed
    /// behaviour is identical to [`LogTail::poll`] in every case,
    /// including which error a corrupt log surfaces.
    pub(crate) fn poll_with(
        &mut self,
        pool: Option<&WorkerPool>,
    ) -> Result<TailProgress, RepoError> {
        let mut progress = TailProgress::default();
        if !self.dir.exists() {
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
        let stamp = Self::stat_manifest(&self.dir);
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
        }
        match read_generation(&self.dir, &self.generation, self.offset, pool)? {
            Some((events, new_offset)) => {
                self.applied += events.len();
                self.offset = new_offset;
                progress.events = events;
            }
            None => {
                // The tailed log shrank under us (a foreign truncation
                // beyond torn-tail repair). Rolling individual events
                // back is not possible; re-base onto what the directory
                // actually holds.
                let (all, end) =
                    read_generation(&self.dir, &self.generation, 0, pool)?.unwrap_or_default();
                let (base, _) = EventLogBackend::read_state_in(&self.dir)?;
                self.applied = all.len();
                self.offset = end;
                progress.new_base = Some(replay(base, &all));
                progress.events = Vec::new();
                progress.rebased = true;
            }
        }
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
// render every base record (revision one), replay, then per final
// record index its latest version and render it again iff dirty.
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

/// Rebuild the search index and wiki site of a cold open on the pool:
/// `base_pages` are the pre-replay renders (each page's first revision),
/// every record of `final_snapshot` is indexed from its latest version,
/// and `dirty` pages are re-rendered from the final state (their second
/// revision, deduped away when the content did not change). Equals the
/// sequential open's `SearchIndex::build` + incremental applies and
/// `fwd` + `sync_changed` exactly; see the section comment above.
fn derived_parallel(
    base_pages: Vec<(String, String)>,
    final_snapshot: &Arc<RepositorySnapshot>,
    dirty: BTreeSet<EntryId>,
    pool: &WorkerPool,
) -> (SearchIndex, WikiSite) {
    let ids: Vec<EntryId> = final_snapshot.records.keys().cloned().collect();
    let dirty = Arc::new(dirty);
    type Partial = (SearchIndex, Vec<(String, String)>);
    let jobs: Vec<Box<dyn FnOnce() -> Partial + Send>> = shard_ids(ids, pool.threads())
        .into_iter()
        .map(|shard| {
            let snapshot = Arc::clone(final_snapshot);
            let dirty = Arc::clone(&dirty);
            Box::new(move || {
                let mut index = SearchIndex::default();
                let mut pages = Vec::new();
                for id in &shard {
                    let record = &snapshot.records[id];
                    index.upsert_entry(id, record.latest());
                    if dirty.contains(id) {
                        pages.push((id.page_name(), render_entry(record.latest())));
                    }
                }
                (index, pages)
            }) as Box<dyn FnOnce() -> Partial + Send>
        })
        .collect();
    let partials = pool.scatter(jobs);
    let mut index = SearchIndex::default();
    let mut site = WikiSite::new();
    // Base renders first: they are each page's first revision.
    for (page, content) in base_pages {
        site.set_page(&page, content);
    }
    for (partial, pages) in partials {
        index.absorb(partial);
        for (page, content) in pages {
            site.set_page(&page, content);
        }
    }
    (index, site)
}

/// Reclaim a snapshot shared with pool jobs. [`WorkerPool::scatter`]
/// returns only after every job has run to completion (dropping its
/// `Arc` clone), so the unwrap succeeds; the clone fallback is pure
/// belt-and-braces.
fn unshare(snapshot: Arc<RepositorySnapshot>) -> RepositorySnapshot {
    Arc::try_unwrap(snapshot).unwrap_or_else(|shared| (*shared).clone())
}

/// A read replica of one event-log directory; see the module docs.
pub struct Replica {
    tail: LogTail,
    bx: WikiBx,
    snapshot: RepositorySnapshot,
    index: SearchIndex,
    site: WikiSite,
    /// Sinks observing the replicated stream (e.g. a lint engine): each
    /// gets [`EventSink::rebased`] when the replica adopts a new base and
    /// [`EventSink::accept`] for every event applied on top.
    observers: Vec<Arc<dyn EventSink>>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("dir", &self.tail.dir)
            .field("generation", &self.tail.generation)
            .field("applied", &self.tail.applied)
            .field("entries", &self.snapshot.records.len())
            .finish()
    }
}

impl Replica {
    /// Open a replica over `dir` and catch up to the log's current end.
    /// The directory may be empty or absent (a primary that has not
    /// written yet).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Replica, RepoError> {
        let (tail, base) = LogTail::open(dir)?;
        let bx = WikiBx::new();
        let index = SearchIndex::build(&base);
        let site = bx.fwd(&base, &WikiSite::new());
        let mut replica = Replica {
            tail,
            bx,
            snapshot: base,
            index,
            site,
            observers: Vec::new(),
        };
        replica.catch_up()?;
        Ok(replica)
    }

    /// [`Replica::open`] with decode, replay and derived-state rebuild
    /// fanned out over `runtime`'s workers — the cold-open path for
    /// nodes that host many replicas on one bounded set of workers. The
    /// snapshot, index and site of a quiescent directory are
    /// byte-for-byte what the sequential open produces, including which
    /// error a corrupt log surfaces (`tests/restore_parallel.rs`).
    pub fn open_on(dir: impl Into<PathBuf>, runtime: &Arc<Runtime>) -> Result<Replica, RepoError> {
        Self::open_pooled(dir.into(), runtime.pool())
    }

    fn open_pooled(dir: PathBuf, pool: &WorkerPool) -> Result<Replica, RepoError> {
        let (mut tail, base) = LogTail::open(dir)?;
        let mut progress = tail.poll_with(Some(pool))?;
        // A checkpoint racing the open lands as a new base on the first
        // poll, exactly as in the sequential open's first catch-up.
        let base = Arc::new(progress.new_base.take().unwrap_or(base));
        let events = std::mem::take(&mut progress.events);
        let dirty = dirty_set(&events);
        let base_ids: Vec<EntryId> = base.records.keys().cloned().collect();
        let base_pages = render_pages_parallel(&base, base_ids, pool);
        let snapshot = Arc::new(crate::event::replay_parallel(unshare(base), events, pool));
        let (index, site) = derived_parallel(base_pages, &snapshot, dirty, pool);
        Ok(Replica {
            tail,
            bx: WikiBx::new(),
            snapshot: unshare(snapshot),
            index,
            site,
            observers: Vec::new(),
        })
    }

    /// Subscribe a sink to the replicated stream. The sink is backfilled
    /// immediately with [`EventSink::rebased`] over the current snapshot
    /// (so a derived view starts from the state already tailed), then
    /// receives [`EventSink::accept`] for every event each later
    /// [`Replica::catch_up`] applies, and [`EventSink::rebased`] again
    /// whenever the replica adopts a new base (checkpoint crossed or
    /// truncation recovered). Sinks run on the catch-up caller's thread.
    pub fn subscribe(&mut self, sink: Arc<dyn EventSink>) {
        sink.rebased(&self.snapshot);
        self.observers.push(sink);
    }

    /// Pull the replica up to the log's current durable end. Within a
    /// generation this applies only the events appended since the last
    /// call; across a checkpoint it re-bases first. Safe to call at any
    /// cadence.
    pub fn catch_up(&mut self) -> Result<CatchUp, RepoError> {
        let progress = self.tail.poll()?;
        if let Some(base) = progress.new_base {
            self.rebase(base);
            for observer in &self.observers {
                observer.rebased(&self.snapshot);
            }
        }
        let mut dirty: BTreeSet<EntryId> = BTreeSet::new();
        for event in &progress.events {
            apply_event(&mut self.snapshot, event);
            self.index.apply(event);
            for observer in &self.observers {
                observer.accept(event);
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
        Ok(CatchUp {
            events_applied: progress.events.len(),
            rebased: progress.rebased,
        })
    }

    /// Adopt `target` as the replica state, updating the index and site
    /// for exactly the records that differ from the current snapshot.
    fn rebase(&mut self, target: RepositorySnapshot) {
        let mut dirty: BTreeSet<EntryId> = BTreeSet::new();
        for (id, record) in &target.records {
            if self.snapshot.records.get(id) != Some(record) {
                self.index.upsert_entry(id, record.latest());
                dirty.insert(id.clone());
            }
        }
        // Records the target no longer has (impossible through the
        // curation API, which never deletes, but a foreign log might).
        for id in self.snapshot.records.keys() {
            if !target.records.contains_key(id) {
                self.index.remove_entry(id);
                dirty.insert(id.clone());
            }
        }
        self.snapshot = target;
        if !dirty.is_empty() {
            self.bx.sync_changed(&self.snapshot, &mut self.site, &dirty);
        }
    }

    /// The replicated state (equals the primary's snapshot after the
    /// primary flushed and this replica caught up).
    pub fn snapshot(&self) -> &RepositorySnapshot {
        &self.snapshot
    }

    /// The incrementally maintained search index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// Conjunctive keyword search served from the replica.
    pub fn query(&self, terms: &[&str]) -> Vec<(EntryId, u32)> {
        self.index.query(terms)
    }

    /// The incrementally maintained wiki site (entry pages).
    pub fn site(&self) -> &WikiSite {
        &self.site
    }

    /// The recommended citation for one replicated entry (latest or
    /// pinned version), served without touching the primary.
    pub fn cite(&self, id: &EntryId, version: Option<Version>) -> Result<String, RepoError> {
        cite::cite_in(&self.snapshot, id, version)
    }

    /// Citations for every replicated entry's latest version, in id
    /// order.
    pub fn citations(&self) -> Vec<String> {
        cite::citations(&self.snapshot)
    }

    /// The archival manuscript export (§5.2) over the replicated state.
    pub fn export_manuscript(&self, options: ManuscriptOptions) -> String {
        export_manuscript(&self.snapshot, options)
    }

    /// The directory being tailed.
    pub fn dir(&self) -> &Path {
        self.tail.dir()
    }

    /// Tail position: (current generation file, events applied from it).
    pub fn position(&self) -> (&str, usize) {
        self.tail.position()
    }
}

/// A short, slug-shaped identifier for one primary feeding a
/// [`Federation`]. Source ids namespace everything a source contributes
/// to the merged state: entry `composers` from source `eu` becomes
/// `eu/composers`, account `alice` becomes `eu/alice`. The separator can
/// never appear inside a source id (construction slugifies), so distinct
/// sources can never produce colliding namespaced keys.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(String);

impl SourceId {
    /// Build a source id from any label; the label is slugified
    /// (lowercase alphanumerics and dashes), so `"EU mirror"` becomes
    /// `eu-mirror`. An empty slug is rejected at [`Federation::open`].
    pub fn new(label: &str) -> SourceId {
        SourceId(slug_of(label))
    }

    /// The slug text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The namespaced form of one of this source's entry ids.
    pub fn entry_id(&self, id: &EntryId) -> EntryId {
        EntryId(format!("{}/{}", self.0, id.as_str()))
    }

    /// The namespaced form of one of this source's account names.
    pub fn account(&self, name: &str) -> String {
        format!("{}/{name}", self.0)
    }

    /// Does a namespaced entry id belong to this source?
    pub fn owns(&self, id: &EntryId) -> bool {
        id.as_str()
            .strip_prefix(&self.0)
            .is_some_and(|rest| rest.starts_with('/'))
    }

    /// The namespaced-key prefix of this source (`"<source>/"`).
    fn prefix(&self) -> String {
        format!("{}/", self.0)
    }
}

impl std::fmt::Display for SourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Rewrite one source event into the federation's namespace: entry ids
/// and account names gain the `<source>/` prefix; entry payloads (titles,
/// authors, comments) pass through untouched — they are display data, not
/// keys. The result is what the merged snapshot, index and site consume.
fn namespace_event(source: &SourceId, event: &RepoEvent) -> RepoEvent {
    use crate::event::{Commented, EntryDelta, EntryRef, Founded, Registered, RoleGranted};
    let ns_principal = |p: &Principal| Principal {
        name: source.account(&p.name),
        ..p.clone()
    };
    match event {
        RepoEvent::Founded(f) => RepoEvent::Founded(Founded {
            name: f.name.clone(),
            curators: f.curators.iter().map(ns_principal).collect(),
        }),
        RepoEvent::Registered(r) => RepoEvent::Registered(Registered {
            principal: ns_principal(&r.principal),
        }),
        RepoEvent::RoleGranted(g) => RepoEvent::RoleGranted(RoleGranted {
            account: source.account(&g.account),
            role: g.role,
        }),
        RepoEvent::Contributed(d) => RepoEvent::Contributed(EntryDelta {
            id: source.entry_id(&d.id),
            entry: d.entry.clone(),
        }),
        RepoEvent::Revised(d) => RepoEvent::Revised(EntryDelta {
            id: source.entry_id(&d.id),
            entry: d.entry.clone(),
        }),
        RepoEvent::Approved(d) => RepoEvent::Approved(EntryDelta {
            id: source.entry_id(&d.id),
            entry: d.entry.clone(),
        }),
        RepoEvent::Commented(c) => RepoEvent::Commented(Commented {
            id: source.entry_id(&c.id),
            comment: c.comment.clone(),
        }),
        RepoEvent::ReviewRequested(r) => RepoEvent::ReviewRequested(EntryRef {
            id: source.entry_id(&r.id),
        }),
        RepoEvent::ChangesRequested(r) => RepoEvent::ChangesRequested(EntryRef {
            id: source.entry_id(&r.id),
        }),
    }
}

/// The pure specification of federated state: namespace every source's
/// records and accounts under its [`SourceId`] and merge them into one
/// snapshot named `name`. A [`Federation`] that has caught up with all
/// its sources holds exactly `federate_snapshots(name, per_source_folds)`
/// — the invariant the convergence property tests assert.
pub fn federate_snapshots(
    name: &str,
    sources: &[(SourceId, RepositorySnapshot)],
) -> RepositorySnapshot {
    let mut merged = RepositorySnapshot::empty(name);
    for (source, snapshot) in sources {
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

/// Apply one *namespaced* event to the merged snapshot. Identical to
/// [`apply_event`] except for `Founded`, which must register the source's
/// curators without adopting the source repository's name (the federation
/// keeps its own).
fn apply_federated(merged: &mut RepositorySnapshot, event: &RepoEvent) {
    match event {
        RepoEvent::Founded(f) => {
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
    name: String,
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
            .field("name", &self.name)
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
    /// must be non-empty and pairwise distinct; directories may be empty
    /// or absent (primaries that have not written yet).
    pub fn open(name: &str, sources: Vec<(SourceId, PathBuf)>) -> Result<Federation, RepoError> {
        Self::validate_sources(&sources)?;
        let mut federation = Federation {
            name: name.to_string(),
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

    /// Source ids must be non-empty and pairwise distinct.
    fn validate_sources(sources: &[(SourceId, PathBuf)]) -> Result<(), RepoError> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (source, _) in sources {
            if source.as_str().is_empty() {
                return Err(RepoError::Persist(
                    "federation source ids must be non-empty".to_string(),
                ));
            }
            if !seen.insert(source.as_str()) {
                return Err(RepoError::Persist(format!(
                    "duplicate federation source id `{source}`"
                )));
            }
        }
        Ok(())
    }

    /// [`Federation::open`] with the N sources tailed **concurrently**
    /// on `runtime`'s workers — the cold-open path for nodes that host
    /// many federations (or federations of many sources) on one bounded
    /// set of workers. Each source's open-and-decode runs as one pool job
    /// (source-level parallelism — a nested scatter from inside a job
    /// would run inline, so per-source decode stays a single sequential
    /// job), then the merged replay and derived-state rebuild fan out
    /// over the same pool. On quiescent directories the merged snapshot,
    /// index and site are byte-for-byte the sequential open's; a failing
    /// source surfaces the same error the sequential open would (the
    /// first in source order), though sources listed after it will
    /// already have been read.
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
        Self::validate_sources(&sources)?;
        type Opened = Result<(LogTail, RepositorySnapshot, Vec<RepoEvent>), RepoError>;
        let jobs: Vec<Box<dyn FnOnce() -> Opened + Send>> = sources
            .iter()
            .map(|(_, dir)| {
                let dir = dir.clone();
                Box::new(move || -> Opened {
                    let (mut tail, base) = LogTail::open(dir)?;
                    let mut progress = tail.poll()?;
                    let base = progress.new_base.take().unwrap_or(base);
                    Ok((tail, base, progress.events))
                }) as Box<dyn FnOnce() -> Opened + Send>
            })
            .collect();
        let mut tails = Vec::with_capacity(sources.len());
        let mut bases = Vec::with_capacity(sources.len());
        let mut events: Vec<RepoEvent> = Vec::new();
        for ((source, _), opened) in sources.iter().zip(pool.scatter(jobs)) {
            // Ordered gather: the first failing source in source order
            // reports, as it would sequentially.
            let (tail, base, tailed) = opened?;
            events.extend(tailed.iter().map(|e| namespace_event(source, e)));
            tails.push((source.clone(), tail));
            bases.push((source.clone(), base));
        }
        let base = Arc::new(federate_snapshots(name, &bases));
        drop(bases);
        let dirty = dirty_set(&events);
        let base_ids: Vec<EntryId> = base.records.keys().cloned().collect();
        let base_pages = render_pages_parallel(&base, base_ids, pool);
        // The federated replay keeps the federation's own name: `Founded`
        // barriers register a source's curators without adopting its
        // repository name.
        let snapshot = Arc::new(replay_parallel_with(
            unshare(base),
            events,
            pool,
            apply_federated,
        ));
        let (index, site) = derived_parallel(base_pages, &snapshot, dirty, pool);
        let supervisors = tails.iter().map(|_| SourceSupervisor::default()).collect();
        Ok(Federation {
            name: name.to_string(),
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
    /// repositories are called).
    pub fn name(&self) -> &str {
        &self.name
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
                            self.supervisors[i].record_failure(
                                &policy,
                                source.as_str(),
                                e.clone(),
                                now,
                            );
                            reports.push(self.source_report(i, None, now));
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
                    self.supervisors[i].record_failure(&policy, source.as_str(), e.clone(), now);
                    reports.push(self.source_report(i, salvaged_bytes, now));
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
            let mut dirty: BTreeSet<EntryId> = BTreeSet::new();
            for event in &progress.events {
                let event = namespace_event(&source, event);
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
                events_applied: progress.events.len(),
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

    /// The soonest retry deadline across all backed-off sources, as seen
    /// from now (`None` when every source is either healthy or already
    /// due). [`ReplicaDaemon`] uses this to schedule a timer-wheel
    /// wake-up instead of blind-polling a backed-off source.
    pub fn next_retry_in(&self) -> Option<Duration> {
        let now = Instant::now();
        self.supervisors
            .iter()
            .filter_map(|supervisor| supervisor.retry_in(now))
            .min()
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
        let prefix = source.prefix();
        self.snapshot
            .accounts
            .retain(|name, _| !name.starts_with(&prefix));
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

    /// The merged records belonging to `source` (keys carry the
    /// `<source>/` prefix).
    fn records_of<'a>(
        &'a self,
        source: &'a SourceId,
    ) -> impl Iterator<Item = (&'a EntryId, &'a EntryRecord)> {
        let start = EntryId(source.prefix());
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

    /// Per-source replication lag, in bytes of unapplied log.
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
    /// How long the timer wheel waits between catch-up passes. A stop
    /// request cancels the tick immediately (it never waits out the
    /// interval), and [`ReplicaDaemon::force_catch_up`] runs a pass on
    /// the caller's thread at any time.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Catch-up passes completed (scheduled and forced).
    pub polls: u64,
    /// Events applied across all sources since the daemon started.
    pub events_applied: u64,
    /// Source re-bases observed (checkpoints crossed, truncations
    /// recovered).
    pub rebases: u64,
    /// Per-source lag in bytes, as of the last pass.
    pub source_lag: Vec<(SourceId, u64)>,
    /// Per-source supervision status as of the last pass — health state,
    /// retry deadline, and staleness, the metadata degraded serving
    /// hands out alongside answers from the last good merged state.
    pub source_health: Vec<(SourceId, SourceStatus)>,
}

struct DaemonShared {
    federation: Mutex<Federation>,
    stats: Mutex<DaemonStats>,
    /// Most recent poll error; sticky — it stays visible after later
    /// successful polls until [`ReplicaDaemon::clear_error`].
    error: Mutex<Option<RepoError>>,
    /// Per-source sticky errors: two failing sources no longer overwrite
    /// each other's slot. Cleared per source on
    /// [`ReplicaDaemon::clear_source_error`] (or wholesale on
    /// [`ReplicaDaemon::clear_error`]).
    errors: Mutex<BTreeMap<SourceId, RepoError>>,
    /// Every pass publishes a [`HealthReport::Daemon`] here under
    /// `component`.
    health: Arc<RuntimeHealth>,
    component: String,
    /// The runtime whose timer wheel schedules backoff retries. Weak:
    /// a pending retry one-shot must not keep the runtime (or, via the
    /// closure, this shared state) alive past the daemon.
    runtime: Weak<Runtime>,
    poll_interval: Duration,
    /// Collapses retry wake-ups: at most one one-shot is in flight.
    retry_scheduled: AtomicBool,
}

fn daemon_lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl DaemonShared {
    /// One catch-up pass over the federation, folding the outcome into
    /// stats and the sticky error slots, then scheduling a timer-wheel
    /// retry if a backed-off source's deadline falls beyond the next
    /// periodic tick.
    fn pass(self: &Arc<Self>) -> Result<FederationCatchUp, RepoError> {
        let (outcome, retry_in) = {
            let mut federation = daemon_lock(&self.federation);
            let outcome = federation.catch_up();
            let mut stats = daemon_lock(&self.stats);
            match &outcome {
                Ok(progress) => {
                    stats.polls += 1;
                    stats.events_applied += progress.events_applied as u64;
                    stats.rebases += progress.rebases as u64;
                    stats.source_lag = federation.lag();
                    stats.source_health = federation.source_status();
                    if !progress.errors.is_empty() {
                        let mut errors = daemon_lock(&self.errors);
                        for (source, error) in &progress.errors {
                            errors.insert(source.clone(), error.clone());
                        }
                        // The "most recent" slot keeps its pre-existing
                        // meaning: the last error any source raised.
                        *daemon_lock(&self.error) = progress.errors.last().map(|(_, e)| e.clone());
                    }
                }
                Err(e) => {
                    stats.polls += 1;
                    *daemon_lock(&self.error) = Some(e.clone());
                }
            }
            let retry_in = federation.next_retry_in();
            (outcome, retry_in)
        };
        self.schedule_retry(retry_in);
        // Publish after the daemon locks are released: a health sink is
        // arbitrary user code and must not nest inside them.
        let (polls, events_applied, rebases) = {
            let stats = daemon_lock(&self.stats);
            (stats.polls, stats.events_applied, stats.rebases)
        };
        let error = daemon_lock(&self.error).as_ref().map(|e| e.to_string());
        self.health.report(
            &self.component,
            HealthReport::Daemon {
                polls,
                events_applied,
                rebases_detected: rebases,
                error,
            },
        );
        outcome
    }

    /// Arm a one-shot timer-wheel wake-up for the soonest backed-off
    /// source whose deadline falls beyond the periodic tick — the tick
    /// itself covers deadlines inside the next interval. At most one
    /// wake-up is in flight; it holds only a weak reference, so a
    /// stopped daemon (or a dropped runtime) simply lets it lapse.
    fn schedule_retry(self: &Arc<Self>, retry_in: Option<Duration>) {
        let Some(delay) = retry_in else { return };
        if delay <= self.poll_interval {
            return;
        }
        if self.retry_scheduled.swap(true, Ordering::AcqRel) {
            return;
        }
        let Some(runtime) = self.runtime.upgrade() else {
            self.retry_scheduled.store(false, Ordering::Release);
            return;
        };
        let weak = Arc::downgrade(self);
        runtime.schedule_once(delay, move || {
            if let Some(shared) = weak.upgrade() {
                shared.retry_scheduled.store(false, Ordering::Release);
                let _ = shared.pass();
            }
        });
    }
}

/// A background polling tenant around a [`Federation`]: starts at
/// [`ReplicaDaemon::spawn_on`] as a tenant of a caller's [`Runtime`],
/// catches up every [`DaemonConfig::poll_interval`] via the runtime's
/// timer wheel, and stops cleanly (tick cancelled, in-flight pass waited out) on
/// [`ReplicaDaemon::stop`] or drop — stop is prompt even mid-interval.
/// Poll errors are sticky — per source in
/// [`ReplicaDaemon::last_errors`], with [`ReplicaDaemon::last_error`]
/// keeping the most recent across sources, until
/// [`ReplicaDaemon::clear_error`] — while the daemon keeps serving from
/// the last good merged state and polling the healthy sources, so a
/// source directory that comes back is picked up again automatically.
/// Backed-off sources beyond the poll interval get a dedicated one-shot
/// wake-up on the runtime's timer wheel instead of blind polling.
pub struct ReplicaDaemon {
    shared: Arc<DaemonShared>,
    tick: Option<TimerTask>,
    /// Keeps the runtime alive for as long as the daemon, so a caller may
    /// drop its own handle. Dropped after the tick is cancelled.
    _runtime: Arc<Runtime>,
}

impl std::fmt::Debug for ReplicaDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaDaemon")
            .field("running", &self.tick.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

impl ReplicaDaemon {
    /// Take ownership of `federation` and poll it every
    /// [`DaemonConfig::poll_interval`] as a tenant of `runtime`: poll
    /// ticks fire on the runtime's pool, and every pass publishes
    /// [`HealthReport::Daemon`] on the runtime's health channel under
    /// `component`, next to the federation's supervision transitions.
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
            error: Mutex::new(None),
            errors: Mutex::new(BTreeMap::new()),
            health: Arc::clone(runtime.health()),
            component: component.to_string(),
            runtime: Arc::downgrade(runtime),
            poll_interval: config.poll_interval,
            retry_scheduled: AtomicBool::new(false),
        });
        let tick_shared = shared.clone();
        let tick = runtime.schedule_periodic(config.poll_interval, move || {
            // Poll errors are recorded (sticky) and polling continues;
            // a vanished source may come back.
            let _ = tick_shared.pass();
        });
        // Poll once immediately, so a fresh daemon isn't blind for a
        // full interval.
        tick.fire_now();
        ReplicaDaemon {
            shared,
            tick: Some(tick),
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
        daemon_lock(&self.shared.stats).clone()
    }

    /// The most recent poll error any source raised — sticky until
    /// [`ReplicaDaemon::clear_error`]. For attribution when several
    /// sources are failing, use [`ReplicaDaemon::last_errors`].
    pub fn last_error(&self) -> Option<RepoError> {
        daemon_lock(&self.shared.error).clone()
    }

    /// Per-source sticky errors: each failing source keeps its own slot,
    /// so a flaky peer no longer masks a corrupt one. Entries persist
    /// across later successful polls of *other* sources until cleared
    /// ([`ReplicaDaemon::clear_source_error`] /
    /// [`ReplicaDaemon::clear_error`]).
    pub fn last_errors(&self) -> BTreeMap<SourceId, RepoError> {
        daemon_lock(&self.shared.errors).clone()
    }

    /// Clear one source's sticky error (e.g. after repairing it).
    /// Returns whether an entry was present. The "most recent" slot is
    /// left alone — it is cross-source by definition.
    pub fn clear_source_error(&self, source: &SourceId) -> bool {
        daemon_lock(&self.shared.errors).remove(source).is_some()
    }

    /// Clear every sticky error — the most-recent slot and the whole
    /// per-source map (e.g. after restoring a vanished source
    /// directory).
    pub fn clear_error(&self) {
        *daemon_lock(&self.shared.error) = None;
        daemon_lock(&self.shared.errors).clear();
    }

    /// Is the daemon still scheduled on its runtime?
    pub fn is_running(&self) -> bool {
        self.tick.is_some()
    }

    /// Stop polling, returning the federation's final stats. Prompt —
    /// cancelling the tick never waits out [`DaemonConfig::poll_interval`],
    /// only an already-running pass — and idempotent: a second call
    /// returns the same stats without touching the runtime.
    pub fn stop(&mut self) -> DaemonStats {
        if let Some(tick) = self.tick.take() {
            tick.cancel();
        }
        self.stats()
    }

    /// Stop the daemon and hand the federation back for direct use.
    pub fn into_federation(mut self) -> Federation {
        self.stop();
        let mut shared = self.shared.clone();
        drop(self); // idempotent: the tick is already cancelled
        loop {
            match Arc::try_unwrap(shared) {
                Ok(shared) => {
                    return shared
                        .federation
                        .into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                }
                // cancel() guarantees no pass is running or scheduled,
                // but on a shared runtime the worker that ran the last
                // tick can hold the fired job's environment (and its
                // Arc) for an instant after the pass returns.
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

    #[test]
    fn replica_tails_within_a_generation() {
        let dir = unique_dir("tail");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();

        let mut replica = Replica::open(&dir).unwrap();
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert!(replica.query(&["composers"]).is_empty());

        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        r.comment("alice", &id, "2014-03-28", "tailed").unwrap();
        backend.record(&r.drain_events()).unwrap();

        let progress = replica.catch_up().unwrap();
        assert_eq!(progress.events_applied, 2);
        assert!(!progress.rebased);
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert_eq!(replica.query(&["composers"]).len(), 1);
        assert!(replica.bx.consistent(replica.snapshot(), replica.site()));
        // Idempotent when nothing new arrived.
        assert_eq!(replica.catch_up().unwrap(), CatchUp::default());
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
        let mut replica = Replica::open(&dir).unwrap();

        // Mutations + a checkpoint the replica has not seen yet.
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        r.comment("alice", &id, "2014-03-28", "post-checkpoint")
            .unwrap();
        backend.record(&r.drain_events()).unwrap();

        let progress = replica.catch_up().unwrap();
        assert!(progress.rebased, "the manifest moved to a new generation");
        assert_eq!(progress.events_applied, 1, "only the post-checkpoint tail");
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert_eq!(replica.index(), &SearchIndex::build(&r.snapshot()));
        assert!(replica.bx.consistent(replica.snapshot(), replica.site()));
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
        let mut replica = Replica::open(&dir).unwrap();
        assert_eq!(replica.snapshot(), &r.snapshot());

        // A foreign hand truncates the log to its first three lines.
        let log = dir.join("events-0.jsonl");
        let text = std::fs::read_to_string(&log).unwrap();
        let keep: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&log, &keep).unwrap();

        let progress = replica.catch_up().unwrap();
        assert!(progress.rebased, "a shrunken log forces a re-base");
        let expected = crate::event::replay(RepositorySnapshot::empty(""), &events[..3]);
        assert_eq!(replica.snapshot(), &expected);
        assert_eq!(replica.index(), &SearchIndex::build(&expected));
        assert!(replica.bx.consistent(replica.snapshot(), replica.site()));
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

        let mut replica = Replica::open(&dir).unwrap();
        assert_eq!(replica.snapshot(), &r.snapshot());
        let (_, applied) = replica.position();
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
        let r = Repository::found("The Bx Examples Repository", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();

        let replica = Replica::open(&dir).unwrap();
        let cites = replica.citations();
        assert_eq!(cites.len(), 1);
        assert!(cites[0].contains("COMPOSERS, version 0.1"));
        assert_eq!(replica.cite(&id, None).unwrap(), cites[0]);
        assert!(replica.cite(&id, Some(Version::new(9, 9))).is_err());
        let manuscript = replica.export_manuscript(ManuscriptOptions::default());
        assert!(manuscript.contains("++ COMPOSERS"));
        assert!(manuscript.contains("@misc{bx-composers-0-1,"));
        std::fs::remove_dir_all(&dir).ok();
    }

    // == catch_up edge cases (satellite) ==

    #[test]
    fn replica_opens_over_an_empty_or_absent_directory() {
        // Absent directory: the primary has not even created it yet.
        let dir = unique_dir("absent");
        let mut replica = Replica::open(&dir).unwrap();
        assert!(replica.snapshot().records.is_empty());
        assert_eq!(replica.catch_up().unwrap(), CatchUp::default());

        // Present-but-empty directory: same story.
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(replica.catch_up().unwrap(), CatchUp::default());

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
        let mut replica = Replica::open(&dir).unwrap();
        assert_eq!(replica.snapshot(), &r.snapshot());

        // Between polls the primary writes its *first* checkpoint: the
        // manifest appears and names a fresh generation.
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();

        let progress = replica.catch_up().unwrap();
        assert!(progress.rebased, "the appearing manifest forces a re-base");
        assert_eq!(replica.snapshot(), &r.snapshot());
        assert_eq!(replica.index(), &SearchIndex::build(&r.snapshot()));
        assert!(replica.bx.consistent(replica.snapshot(), replica.site()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_surfaces_a_typed_error_when_the_source_dir_vanishes() {
        let dir = unique_dir("vanish");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        let mut replica = Replica::open(&dir).unwrap();
        assert_eq!(replica.snapshot(), &r.snapshot());

        std::fs::remove_dir_all(&dir).unwrap();
        let err = replica.catch_up().unwrap_err();
        assert!(
            matches!(err, RepoError::SourceUnavailable { ref dir } if dir.contains("vanish")),
            "expected SourceUnavailable, got {err:?}"
        );
        // State is untouched — the replica keeps serving its last good
        // view, and a restored directory resumes tailing.
        assert_eq!(replica.snapshot(), &r.snapshot());
        std::fs::create_dir_all(&dir).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        assert!(replica.catch_up().is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_surfaces_a_typed_error_when_the_manifest_vanishes() {
        let dir = unique_dir("manifest-vanish");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        r.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&r.drain_events()).unwrap();
        backend.checkpoint(&r.snapshot()).unwrap();
        let mut replica = Replica::open(&dir).unwrap();
        assert_eq!(replica.snapshot(), &r.snapshot());

        // The manifest alone disappears (mid-rsync, stray delete) while
        // the directory remains: without the guard the tail would
        // re-base onto the no-manifest default — an empty snapshot.
        let manifest = dir.join("checkpoint.json");
        let saved = std::fs::read(&manifest).unwrap();
        std::fs::remove_file(&manifest).unwrap();
        let err = replica.catch_up().unwrap_err();
        assert!(matches!(err, RepoError::SourceUnavailable { .. }));
        assert_eq!(
            replica.snapshot(),
            &r.snapshot(),
            "the last good state keeps serving"
        );

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
        replica.catch_up().unwrap();
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
    fn parallel_replica_open_matches_sequential_exactly() {
        let (dir, r) = textured_dir("par-open");
        let sequential = Replica::open(&dir).unwrap();
        for threads in [1, 2, 4, 8] {
            let parallel = Replica::open_on(&dir, &Runtime::new(threads)).unwrap();
            assert_eq!(
                parallel.snapshot(),
                sequential.snapshot(),
                "{threads} threads"
            );
            assert_eq!(parallel.index(), sequential.index(), "{threads} threads");
            assert_eq!(parallel.site(), sequential.site(), "{threads} threads");
            assert_eq!(
                parallel.position(),
                sequential.position(),
                "{threads} threads"
            );
            assert_eq!(parallel.snapshot(), &r.snapshot());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_federation_open_matches_sequential_exactly() {
        let (dir_a, _) = textured_dir("par-fed-a");
        let (dir_b, _) = textured_dir("par-fed-b");
        let sources = vec![
            (SourceId::new("a"), dir_a.clone()),
            (SourceId::new("b"), dir_b.clone()),
        ];
        let sequential = Federation::open("fed", sources.clone()).unwrap();
        for threads in [1, 4] {
            let parallel =
                Federation::open_on("fed", sources.clone(), &Runtime::new(threads)).unwrap();
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

    #[test]
    fn daemon_polls_surfaces_sticky_errors_and_stops_clean() {
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
        assert!(daemon.last_error().is_none());

        // A vanished source surfaces a sticky typed error — per source
        // and in the most-recent slot — while the pass itself succeeds
        // with partial progress and healthy sources still serve.
        std::fs::remove_dir_all(&dir_a).unwrap();
        let outcome = daemon.force_catch_up().unwrap();
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.errors[0].0, SourceId::new("a"));
        assert!(matches!(
            outcome.errors[0].1,
            RepoError::SourceUnavailable { .. }
        ));
        assert!(matches!(
            daemon.last_error(),
            Some(RepoError::SourceUnavailable { .. })
        ));
        let errors = daemon.last_errors();
        assert!(matches!(
            errors.get(&SourceId::new("a")),
            Some(RepoError::SourceUnavailable { .. })
        ));
        assert!(!errors.contains_key(&SourceId::new("b")));
        assert_eq!(daemon.query(&["composers"]).len(), 1, "degraded serving");
        assert!(daemon.clear_source_error(&SourceId::new("a")));
        assert!(!daemon.clear_source_error(&SourceId::new("a")));
        daemon.clear_error();

        let stats = daemon.stop();
        assert!(stats.polls >= 2);
        assert!(
            stats
                .source_health
                .iter()
                .any(|(s, status)| s == &SourceId::new("a")
                    && status.health != SourceHealth::Healthy),
            "per-source staleness metadata reflects the sick source"
        );
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
        assert!(status[0].1.retry_in.is_some());
        assert_eq!(status[1].1.health, SourceHealth::Healthy);
        assert!(
            federation.next_retry_in().unwrap() > Duration::from_secs(3000),
            "the daemon would schedule a distant timer-wheel wake-up, not blind-poll"
        );

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
    fn replica_observers_see_backfill_events_and_rebases() {
        let dir = unique_dir("observe");
        let r = Repository::found("bx", vec![Principal::curator("c")]);
        r.register(Principal::member("alice")).unwrap();
        let mut backend = AutoCompactingEventLog::open(
            &dir,
            CompactionPolicy {
                checkpoint_every: 1_000_000,
            },
        )
        .unwrap();
        backend.record(&r.drain_events()).unwrap();

        let mut replica = Replica::open(&dir).unwrap();
        let sink = Arc::new(RecordingSink::default());
        replica.subscribe(sink.clone());
        assert_eq!(
            sink.rebases.lock().unwrap().as_slice(),
            &[0],
            "subscription backfills with the current (empty-records) base"
        );

        // Tailed events reach the observer verbatim.
        let id = r.contribute("alice", entry("COMPOSERS")).unwrap();
        backend.record(&r.drain_events()).unwrap();
        replica.catch_up().unwrap();
        assert_eq!(sink.accepted.lock().unwrap().len(), 1);

        // A checkpoint crossing notifies rebased, then the tail events.
        backend.checkpoint(&r.snapshot()).unwrap();
        r.comment("alice", &id, "2014-03-28", "observed").unwrap();
        backend.record(&r.drain_events()).unwrap();
        let progress = replica.catch_up().unwrap();
        assert!(progress.rebased);
        assert_eq!(sink.rebases.lock().unwrap().as_slice(), &[0, 1]);
        assert_eq!(sink.accepted.lock().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn federation_observers_see_namespaced_events() {
        let dir = unique_dir("fed-observe");
        let a = primary("alpha");
        a.contribute("alice", entry("COMPOSERS")).unwrap();
        let mut backend = crate::storage::EventLogBackend::open(&dir).unwrap();
        backend.record(&a.drain_events()).unwrap();

        let mut federation =
            Federation::open("fed", vec![(SourceId::new("a"), dir.clone())]).unwrap();
        let sink = Arc::new(RecordingSink::default());
        federation.subscribe(sink.clone());
        assert_eq!(
            sink.rebases.lock().unwrap().as_slice(),
            &[1],
            "backfill delivers the already-merged base"
        );

        a.comment(
            "alice",
            &EntryId::from_title("COMPOSERS"),
            "2014-03-28",
            "federated",
        )
        .unwrap();
        backend.record(&a.drain_events()).unwrap();
        federation.catch_up().unwrap();
        let accepted = sink.accepted.lock().unwrap();
        assert_eq!(accepted.len(), 1);
        assert_eq!(
            accepted[0].touched().map(|id| id.as_str().to_string()),
            Some("a/composers".to_string()),
            "observers see the namespaced form"
        );
        std::fs::remove_dir_all(&dir).ok();
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
        // Let the immediate first pass land so stop() isn't racing it.
        let settle = std::time::Instant::now();
        while daemon.stats().polls == 0 && settle.elapsed() < Duration::from_secs(5) {
            std::thread::yield_now();
        }
        assert!(daemon.stats().polls >= 1, "the spawn-time pass ran");
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
    fn daemon_on_a_shared_runtime_reports_on_the_unified_channel() {
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
        let federation = Federation::open_on("fed", sources, &runtime).unwrap();
        assert_eq!(federation.snapshot(), sequential.snapshot());
        assert_eq!(federation.index(), sequential.index());

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

        let report = runtime
            .health()
            .latest("daemon")
            .expect("every pass publishes on the unified channel");
        match report.report {
            HealthReport::Daemon {
                polls,
                events_applied,
                error,
                ..
            } => {
                assert!(polls >= 1);
                assert!(events_applied >= 1);
                assert!(error.is_none());
            }
            other => panic!("expected a daemon report, got {other:?}"),
        }
        daemon.stop();
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }
}
